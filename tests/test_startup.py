"""Start-up cost, checked in fresh interpreters: `import jfl.cli` and each
command load only the modules they run.  (pytest has imported every
module already, so these checks cannot run in-process.)"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = dict(os.environ, PYTHONPATH=SRC)

# runs `jfl.cli.main(argv)` if argv is given, then writes the loaded
# module names to stderr as its last line
PROBE = """
import json, sys
import jfl.cli
code = jfl.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
sys.stderr.write("\\n" + json.dumps(sorted(sys.modules)))
sys.exit(code)
"""

JFL = ("series", "generators", "ring", "lattice", "spectral", "genus",
       "suite")

# every name `import jfl` exports, each loaded lazily
EXPORTS = """
    series generators ring lattice spectral genus
    QYSeries SeriesError MixedParity BadExponent NonDivisible make_series
    exact_divide render_text render_json_dict
    generator_table gen_a gen_b2 gen_b3 gen_b4 gen_b8 theta_quotient
    stabilizer_power eisenstein_c4 eisenstein_c6 discriminant
    verify_relation verify_mf_embedding mf_embedding_report CALIBRATION
    JFElement Inhomogeneous normal_form degree_basis element_coords
    eval_series in_image image_basis cokernel cokernel_representatives
    render_element_text render_element_json ONE B2 B3 B4 B8
    IMAGE_GENERATORS
    smith_normal_form hermite_normal_form kernel_basis determinant
    FPAbelianGroup
    PageSpec PageGenerator BigradedPage homology_at NotAComplex
    UnsupportedDegree tjf_page msu_page msu_sub_page homotopy_groups
    free_kernel_lattice surjectivity_check check_tjf_groups DEVIATIONS
    ChernData chern_data product_chern_data milnor_s
    euler_characteristic genus_deg4 genus_deg6 genus_deg8 elliptic_genus
    generator_genus_table NonIntegralGenus UnsupportedDim
    """.split()


def _probe(*argv):
    """(exit code, loaded module names) of one fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=ENV,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    return proc.returncode, set(json.loads(proc.stderr.rpartition("\n")[2]))


def test_importing_the_cli_loads_no_computation():
    # the guard alone: no series, and not the verify-all suite
    code, modules = _probe()
    assert code == 0
    assert "jfl.guard" in modules
    assert not modules & {"jfl." + m for m in JFL}
    assert not modules & {"dataclasses", "fractions"}


def test_importing_the_cli_loads_no_traceback():
    # traceback is imported only where a command fails unexpectedly;
    # measured against a bare interpreter, in case its start-up loads it
    bare = subprocess.run(
        [sys.executable, "-c", "import json, sys; "
         "sys.stderr.write(json.dumps(sorted(sys.modules)))"],
        env=ENV, stderr=subprocess.PIPE, text=True, timeout=120)
    code, modules = _probe()
    assert code == 0
    assert "traceback" not in modules - set(json.loads(bare.stderr))


# the jfl modules a command loads when it answers; the pages and the
# ring need no series, the ring needs no lattice, and the msu page no
# ring (tjf homotopy reads the ring's degree bases as its expected ranks)
RUNS = {"expand": ("series", "generators"),
        "verify": ("series", "generators"),
        "homotopy": ("spectral", "lattice"),
        "surjectivity": ("spectral", "lattice", "ring"),
        "image": ("ring", "lattice"),
        "genus": ("genus", "ring", "series"),
        "verify-all": JFL}


@pytest.mark.parametrize("argv, exit_code, absent", [
    (("expand", "--gen", "b2", "--qmax", "5"), 0,
     ("spectral", "lattice", "ring", "genus", "suite")),
    (("verify", "--qmax", "3"), 0,
     ("spectral", "lattice", "ring", "genus", "suite")),
    (("homotopy", "--target", "tjf", "--max-degree", "8"), 0,
     ("series", "genus", "generators", "suite", "dataclasses")),
    (("surjectivity", "--n-param", "1", "--max-degree", "8"), 0,
     ("series", "genus", "generators", "suite", "dataclasses")),
    (("image", "--degree", "8"), 0,
     ("genus", "generators", "dataclasses", "spectral", "suite")),
    # non-integral: refused before the answer is rendered
    (("genus", "--dim", "8", "--chern", "c2sq=1,c4=1"), 2,
     ("lattice", "generators", "spectral", "suite")),
    (("verify-all",), 0, ()),
    # over the guard: refused before any computation is imported
    (("homotopy", "--target", "msu", "--max-degree", "200"), 2, JFL),
    (("surjectivity", "--n-param", "1", "--max-degree", "200"), 2, JFL),
    (("image", "--degree", "256"), 2, JFL),
    (("genus", "--dim", "4", "--chern", "c2=24"), 0,
     ("lattice", "generators", "spectral", "suite")),
    # the msu page reads nothing of the ring
    (("homotopy", "--target", "msu", "--max-degree", "8"), 0,
     ("ring", "series", "genus", "generators", "suite", "dataclasses")),
])
def test_each_command_loads_only_its_modules(argv, exit_code, absent):
    code, modules = _probe(*argv)
    assert code == exit_code
    runs = RUNS[argv[0]] + (("ring",) if "tjf" in argv else ())
    for name in runs if code == 0 else ():
        assert "jfl." + name in modules
    for name in absent:
        assert name not in modules and "jfl." + name not in modules


def test_every_export_still_imports_from_the_package():
    check = ("import jfl, sys\n"
             "from jfl import *\n"
             "names = sys.argv[1:]\n"
             "missing = [n for n in names if n not in globals()]\n"
             "assert not missing, missing\n"
             "assert sorted(jfl.__all__) == sorted(names), jfl.__all__\n")
    proc = subprocess.run([sys.executable, "-c", check, *EXPORTS], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_a_closed_pipe_exits_2_without_a_traceback():
    # the reader is gone before the command writes, as in `jfl ... | head -0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "jfl.cli", "verify", "--qmax", "1"],
            env=ENV, stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, b"")
