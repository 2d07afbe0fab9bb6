"""The oracles have one home, tests/oracles.py: no test helper, test
module or CI step imports from a test module."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IMPORTS_A_TEST_MODULE = re.compile(r"\s*(from|import) test_")


def test_nothing_imports_from_a_test_module():
    assert IMPORTS_A_TEST_MODULE.match("    from test_spectral import x")
    assert IMPORTS_A_TEST_MODULE.match("import test_ring")
    assert not IMPORTS_A_TEST_MODULE.match("from oracles import msu_group")
    paths = sorted((ROOT / "tests").glob("*.py"))
    paths.append(ROOT / ".github" / "workflows" / "tests.yml")
    found = ["%s:%d" % (path.relative_to(ROOT), i)
             for path in paths
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if IMPORTS_A_TEST_MODULE.match(line)]
    assert found == []
