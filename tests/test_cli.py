import json
import os
import sys

import pytest

from jfl import generators, genus, ring, spectral, suite
from jfl.cli import main
from jfl.lattice import FPAbelianGroup
from jfl.spectral import DEVIATIONS
from oracles import crooked_images


@pytest.fixture
def run(capsys):
    def go(argv):
        code = main(argv)
        return code, capsys.readouterr().out
    return go


def test_expand_text_pins(run):
    code, out = run(["expand", "--gen", "b4", "--qmax", "1"])
    assert code == 0
    assert out == "y^-1 + 4 + y\n"
    code, out = run(["expand", "--gen", "a", "--qmax", "1"])
    assert code == 0
    assert out == "-y^(-1/2) + y^(1/2)\n"
    code, out = run(["expand", "--gen", "b8", "--qmax", "1"])
    assert code == 0
    assert out == "y^-1 + 1 + y\n"


def test_expand_bad_qmax(run):
    code, out = run(["expand", "--gen", "b2", "--qmax", "0"])
    assert code == 2
    assert out.startswith("error:")


def test_expand_json_round_trips_bytewise(run):
    code, out = run(["expand", "--gen", "b2", "--qmax", "2",
                     "--format", "json"])
    assert code == 0
    parsed = json.loads(out)
    assert json.dumps(parsed, indent=2) + "\n" == out
    assert parsed["status"] == "ok"
    assert parsed["payload"]["generator"] == "b2"
    assert parsed["payload"]["text"].startswith("y^-1 + 10 + y")
    assert parsed["deviations"] == []


def test_verify_all_checks(run):
    code, out = run(["verify"])
    assert code == 0
    assert out.splitlines() == [
        "relation: ok", "c4: ok", "c6: ok", "delta: ok", "mf_relation: ok",
    ]


def test_verify_single_check(run):
    code, out = run(["verify", "--which", "relation", "--qmax", "6"])
    assert code == 0
    assert out == "relation: ok\n"


def test_genus_text_pins(run):
    code, out = run(["genus", "--dim", "8", "--chern", "c2sq=1350,c4=2610"])
    assert code == 0
    assert out == "387*b4 + 2*b2^2\nchi = 2610\n"
    code, out = run(["genus", "--dim", "4", "--chern", "c2=24"])
    assert code == 0
    assert out == "2*b2\nchi = 24\n"
    code, out = run(["genus", "--dim", "6", "--chern", "c3=0"])
    assert code == 0
    assert out == "0\nchi = 0\n"


def test_genus_non_integral_is_an_error(run):
    code, out = run(["genus", "--dim", "4", "--chern", "c2=25",
                     "--format", "json"])
    assert code == 2
    parsed = json.loads(out)
    assert parsed["status"] == "error"
    assert parsed["payload"]["value"] == "25/12"


def test_genus_bad_chern_string(run):
    code, out = run(["genus", "--dim", "4", "--chern", "c2"])
    assert code == 2
    assert "key=value" in out


def test_genus_chern_value_not_an_integer(capsys):
    # the entry is named, not int()'s "invalid literal ... base 10"
    code = main(["genus", "--dim", "4", "--chern", "c2=abc"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "error: --chern c2=abc: 'abc' is not an integer\n"
    assert "Traceback" not in captured.err


def test_genus_repeated_chern_key(run):
    # a repeated key is refused, not overwritten (c2=24 alone prints 2*b2)
    code, out = run(["genus", "--dim", "4", "--chern", "c2=1,c2=24"])
    assert code == 2
    assert "c2 twice" in out
    assert "b2" not in out


def test_genus_chern_key_dim_is_bad_input(capsys):
    # "dim" is an unknown Chern number name, not chern_data's own argument
    code = main(["genus", "--dim", "4", "--chern", "dim=5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "error: unknown Chern number name 'dim'\n"
    assert "Traceback" not in captured.err


def test_genus_chern_key_of_another_dimension_is_bad_input(capsys):
    # c2 lives in complex dimension 2, not in the 4 of --dim 8
    code = main(["genus", "--dim", "8", "--chern", "c2=3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ("error: c2 is not a Chern number in complex "
                            "dimension 4\n")
    assert "Traceback" not in captured.err


def test_homotopy_tjf(run):
    code, out = run(["homotopy", "--target", "tjf", "--max-degree", "6"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert lines[0].split() == ["n=0", "Z", "expected", "Z", "ok"]
    assert lines[1].split() == ["n=1", "Z/2", "expected", "Z/2", "ok"]
    assert all(line.endswith("ok") for line in lines)


def test_homotopy_msu_beyond_table(run):
    code, out = run(["homotopy", "--target", "msu", "--max-degree", "17",
                     "--format", "json"])
    assert code == 0
    parsed = json.loads(out)
    rows = parsed["payload"]["rows"]
    assert rows[16]["match"] is True
    assert rows[17]["expected"] is None and rows[17]["match"] is None
    assert parsed["deviations"] == list(DEVIATIONS)


def test_homotopy_msu_below_the_first_generator(run):
    code, out = run(["homotopy", "--target", "msu", "--max-degree", "3"])
    assert code == 0
    assert out.splitlines()[3].split() == ["n=3", "0", "expected", "0", "ok"]


def test_surjectivity_ok(run):
    code, out = run(["surjectivity", "--n-param", "1", "--max-degree", "12"])
    assert code == 0
    assert out == "ok: 30 bidegrees match at parameter 1 through degree 12\n"


def test_surjectivity_json_carries_deviations(run):
    code, out = run(["surjectivity", "--n-param", "-1", "--max-degree", "8",
                     "--format", "json"])
    assert code == 0
    parsed = json.loads(out)
    assert parsed["status"] == "ok"
    assert parsed["payload"]["first_failure"] is None
    assert parsed["deviations"] == list(DEVIATIONS)


def test_surjectivity_mismatch_exit_code(run, monkeypatch):
    monkeypatch.setattr(spectral, "_substitution_images", crooked_images)
    code, out = run(["surjectivity", "--n-param", "0", "--max-degree", "12"])
    assert code == 1
    assert out.startswith("mismatch at degree 8 filtration 0")


def test_image_degree20(run):
    code, out = run(["image", "--degree", "20"])
    assert code == 0
    assert out.splitlines() == [
        "degree 20 cokernel: Z/2 + Z/2",
        "representatives: b2^5, b2*b8",
        "expected torsion rank 2: ok",
    ]


def _one_z2(degree):
    # a cokernel one Z/2 short of the two b2^(2m+1) b8^n in degree 20
    return FPAbelianGroup(0, (2,))


def test_image_compares_the_closed_form_with_the_cokernel(run, monkeypatch):
    monkeypatch.setattr(ring, "cokernel", _one_z2)
    code, out = run(["image", "--degree", "20"])
    assert code == 1
    assert out.splitlines() == [
        "degree 20 cokernel: Z/2",
        "representatives: b2^5, b2*b8",
        "expected torsion rank 2: MISMATCH",
    ]


def test_image_degree0(run):
    code, out = run(["image", "--degree", "0"])
    assert code == 0
    assert out.splitlines() == [
        "degree 0 cokernel: 0",
        "expected torsion rank 0: ok",
    ]


def test_image_rejects_odd_degree(run):
    code, out = run(["image", "--degree", "7"])
    assert code == 2
    assert "even" in out


def test_degree_guard_and_override(run, monkeypatch):
    code, out = run(["image", "--degree", "66"])
    assert code == 2
    assert "guard" in out
    monkeypatch.setenv("JFL_MAX_DEGREE_GUARD", "4")
    code, out = run(["expand", "--gen", "b2", "--qmax", "5"])
    assert code == 2
    monkeypatch.setenv("JFL_MAX_DEGREE_GUARD", "128")
    code, out = run(["expand", "--gen", "b2", "--qmax", "5"])
    assert code == 0


def test_surjectivity_below_a_low_guard(run, monkeypatch):
    # the sub-page restricts msu_page(8), which has no C8: no guard of 16
    monkeypatch.setenv("JFL_MAX_DEGREE_GUARD", "8")
    code, out = run(["surjectivity", "--n-param", "1", "--max-degree", "8"])
    assert (code, out) == (
        0, "ok: 16 bidegrees match at parameter 1 through degree 8\n")


def test_guard_error_names_a_valid_override(run, monkeypatch):
    monkeypatch.setenv("JFL_MAX_DEGREE_GUARD", "128")
    code, out = run(["homotopy", "--target", "msu", "--max-degree", "200"])
    assert (code, out) == (2, "error: max degree 200 exceeds guard 128 "
                              "(set JFL_MAX_DEGREE_GUARD to raise)\n")


def test_guard_error_reports_an_ignored_override(run, monkeypatch):
    for raw in ("abc", "-5"):
        monkeypatch.setenv("JFL_MAX_DEGREE_GUARD", raw)
        code, out = run(["homotopy", "--target", "msu", "--max-degree", "200"])
        assert (code, out) == (
            2, "error: max degree 200 exceeds guard 64 "
               "(JFL_MAX_DEGREE_GUARD=%r is not a nonnegative integer; "
               "default used)\n" % raw)
        # the default guard applies below it
        code, _ = run(["homotopy", "--target", "msu", "--max-degree", "4"])
        assert code == 0


def test_negative_max_degree_is_an_error(run):
    code, out = run(["homotopy", "--target", "msu", "--max-degree", "-1"])
    assert (code, out) == (2, "error: max degree -1 is negative\n")
    code, out = run(["surjectivity", "--n-param", "0", "--max-degree", "-5"])
    assert (code, out) == (2, "error: max degree -5 is negative\n")


def test_value_error_subclasses_exit_2(run, monkeypatch):
    def unsupported(*args, **kwargs):
        raise genus.UnsupportedDim("no formula in this dimension")
    monkeypatch.setattr(genus, "chern_data", unsupported)
    code, out = run(["genus", "--dim", "4", "--chern", "c2=24",
                     "--format", "json"])
    assert code == 2
    parsed = json.loads(out)
    assert parsed["status"] == "error"
    assert parsed["payload"]["error"] == "no formula in this dimension"


def test_unexpected_exception_exits_2(monkeypatch, capsys):
    def broken(page):
        raise KeyError("B9")
    monkeypatch.setattr(spectral, "homotopy_groups", broken)
    assert main(["homotopy", "--target", "tjf", "--format", "json"]) == 2
    out, err = capsys.readouterr()
    parsed = json.loads(out)
    assert parsed["status"] == "error"
    assert parsed["payload"]["error"] == "KeyError: 'B9'"
    # a bug still shows its traceback on stderr
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("KeyError: 'B9'\n")
    assert main(["homotopy", "--target", "tjf"]) == 2
    out, err = capsys.readouterr()
    assert out == "error: KeyError: 'B9'\n"
    assert "Traceback" in err


def test_verify_all_json_keeps_error_text(run, monkeypatch):
    # only check 4 builds the msu page through the target table
    def broken(max_degree):
        raise RuntimeError("table went missing")
    monkeypatch.setitem(spectral._TARGETS, "msu",
                        (broken, spectral.expected_msu_group))
    code, out = run(["verify-all", "--format", "json"])
    assert code == 2
    parsed = json.loads(out)
    assert parsed["status"] == parsed["payload"]["overall"] == "error"
    check = parsed["payload"]["checks"][3]
    assert check == {"name": suite.SUITE[3][0], "status": "error",
                     "error": "RuntimeError: table went missing"}
    assert [c["status"] for c in parsed["payload"]["checks"]].count("ok") == 7


def test_verify_all_scoreboard(run):
    code, out = run(["verify-all"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert all(line.endswith(": ok") for line in lines[:-1])
    assert lines[-1] == "overall: ok"
    names = [line.rsplit(":", 1)[0] for line in lines[:-1]]
    assert names == [name for name, _ in suite.SUITE] == [
        "series relation through q^8",
        "generator anchors",
        "modular embeddings through q^8",
        "bordism table through degree 16",
        "homotopy of the target through degree 24",
        "image lattice and cokernels through degree 64",
        "surjectivity at parameters -1, 0, 1, 2",
        "genus examples and generator table",
    ]


def test_verify_all_json(run):
    code, out = run(["verify-all", "--format", "json"])
    assert code == 0
    parsed = json.loads(out)
    assert parsed["payload"]["overall"] == "ok"
    assert len(parsed["payload"]["checks"]) == 8
    assert json.dumps(parsed, indent=2) + "\n" == out


def test_unwritable_stdout_exits_2(monkeypatch, capsys):
    # a pipe whose reader is gone: every line written raises BrokenPipeError
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", buffering=1) as gone:
        with pytest.raises(BrokenPipeError):
            gone.write("\n")
        monkeypatch.setattr(sys, "stdout", gone)
        assert main(["verify", "--qmax", "1"]) == 2
        # stdout now points at devnull, so closing it flushes nothing
        # into the broken pipe
        assert os.path.samestat(os.fstat(gone.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


def _key_error(*args):
    raise KeyError("B9")


# (argv, patch, exit code, deviations): every command once ok, each with
# a mismatch where it can report one, the non-integral genus error and
# an unexpected exception
ENVELOPES = {
    "expand": (["expand", "--gen", "b3", "--qmax", "2"], None, 0, []),
    "verify": (["verify", "--qmax", "2"], None, 0, []),
    "verify mismatch": (
        ["verify", "--which", "relation", "--qmax", "2"],
        lambda mp: mp.setattr(generators, "verify_relation",
                              lambda qmax: False), 1, []),
    "genus": (["genus", "--dim", "4", "--chern", "c2=24"], None, 0, []),
    "genus non-integral": (["genus", "--dim", "4", "--chern", "c2=25"],
                           None, 2, []),
    "homotopy": (["homotopy", "--target", "tjf", "--max-degree", "4"],
                 None, 0, DEVIATIONS),
    "homotopy mismatch": (
        ["homotopy", "--target", "tjf", "--max-degree", "4"],
        lambda mp: mp.setitem(spectral._TARGETS, "tjf", (
            spectral.tjf_page, lambda n: FPAbelianGroup(n))), 1, DEVIATIONS),
    "surjectivity": (["surjectivity", "--n-param", "1", "--max-degree", "8"],
                     None, 0, DEVIATIONS),
    "surjectivity mismatch": (
        ["surjectivity", "--n-param", "0", "--max-degree", "8"],
        lambda mp: mp.setattr(spectral, "_substitution_images",
                              crooked_images), 1, DEVIATIONS),
    "image": (["image", "--degree", "8"], None, 0, []),
    "image mismatch": (
        ["image", "--degree", "20"],
        lambda mp: mp.setattr(ring, "cokernel", _one_z2), 1, []),
    "image unexpected exception": (
        ["image", "--degree", "8"],
        lambda mp: mp.setattr(ring, "cokernel", _key_error), 2, []),
    "verify-all": (["verify-all"], None, 0, DEVIATIONS),
    "verify-all mismatch": (
        ["verify-all"],
        lambda mp: mp.setattr(suite, "SUITE", (("never", lambda: False),)),
        1, DEVIATIONS),
    # an error beats a mismatch, and the checks after it still run
    "verify-all error": (
        ["verify-all"],
        lambda mp: mp.setattr(suite, "SUITE", (
            ("never", lambda: False), ("broken", _key_error),
            ("fine", lambda: True))), 2, DEVIATIONS),
}


@pytest.mark.parametrize("case", ENVELOPES)
def test_every_command_answers_in_one_envelope(case, run, monkeypatch):
    argv, patch, exit_code, deviations = ENVELOPES[case]
    if patch:
        patch(monkeypatch)
    code, out = run(argv + ["--format", "json"])
    parsed = json.loads(out)
    assert code == exit_code
    assert list(parsed) == ["status", "payload", "deviations"]
    assert parsed["status"] == ("ok", "mismatch", "error")[exit_code]
    assert parsed["deviations"] == list(deviations)
    assert json.dumps(parsed, indent=2) + "\n" == out


def test_verify_all_error_beats_mismatch(run, monkeypatch):
    # every check runs; a bug's text names its type, a ValueError's not
    def bad_value():
        raise ValueError("no such table")
    monkeypatch.setattr(suite, "SUITE", (
        ("never", lambda: False), ("broken", _key_error),
        ("fine", lambda: True), ("bad value", bad_value)))
    code, out = run(["verify-all"])
    assert code == 2
    assert out.splitlines() == [
        "never: mismatch", "broken: error (KeyError: 'B9')", "fine: ok",
        "bad value: error (no such table)", "overall: error"]
