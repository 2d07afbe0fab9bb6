"""Layout rules: the oracles have one home, tests/oracles.py, so nothing
imports from a test module; the page oracles read only a page's spec;
and no jfl module imports a name it neither reads nor exports."""

import ast
import re
from pathlib import Path

from jfl import spectral

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


def unused_imports(source):
    """(line, name) of each name a module imports but neither reads nor
    lists in a literal __all__; a computed __all__ lists nothing."""
    tree = ast.parse(source)
    imported, read, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            try:
                exported.update(ast.literal_eval(node.value))
            except ValueError:
                pass
    used = read | exported | {"*"}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    assert unused_imports("import os\nfrom a import b, c as d\nd()") == [
        (1, "os"), (2, "b")]
    assert unused_imports("import os.path\nos.path.join") == []
    assert unused_imports("from a import b\n__all__ = ['b']") == []
    assert unused_imports("from a import b\n__all__ = list('x')") == [
        (1, "b")]
    found = ["%s:%d %s" % (path.relative_to(ROOT), line, name)
             for path in sorted((ROOT / "src" / "jfl").glob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert found == []


# all an oracle may read of a page and of spectral: any other page
# attribute or spectral name is code shared with what it checks
SPEC_READERS = {"spec", "key", "_degree", "free_names", "survivor_names"}
SPECTRAL_ALLOWED = {"msu_sub_page", "tjf_page", "NotAComplex"}
PAGE_INTERNALS = (set(vars(spectral.tjf_page(8)))
                  | set(vars(spectral.BigradedPage))) - SPEC_READERS


def internals_read(tree, root):
    """(function, name) of each page attribute past SPEC_READERS, and each
    spectral name past SPECTRAL_ALLOWED, read by the module function
    `root` or a module function it reaches."""
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    from_spectral = {alias.asname or alias.name for node in tree.body
                     if isinstance(node, ast.ImportFrom)
                     and node.module == "jfl.spectral"
                     for alias in node.names} - SPECTRAL_ALLOWED
    seen, todo, found = set(), [root], []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(funcs[name]):
            if isinstance(node, ast.Name):
                if node.id in funcs:
                    todo.append(node.id)
                elif node.id in from_spectral:
                    found.append((name, node.id))
            elif isinstance(node, ast.Attribute) and (
                    node.attr in PAGE_INTERNALS
                    or getattr(node.value, "id", None) == "spectral"
                    and node.attr not in SPECTRAL_ALLOWED):
                found.append((name, node.attr))
    return sorted(set(found))


def test_the_spec_homology_oracle_shares_no_page_code():
    probe = ast.parse("from jfl.spectral import preimage_lattice, tjf_page\n"
                      "def f(p):\n"
                      "    return preimage_lattice(p.basis), spectral._x\n")
    assert internals_read(probe, "f") == [
        ("f", "_x"), ("f", "basis"), ("f", "preimage_lattice")]
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    for root in ("spec_homology", "homotopy_groups_spec_oracle",
                 "surjectivity_check_oracle", "page_map", "bidegree_failure"):
        assert internals_read(tree, root) == [], root
