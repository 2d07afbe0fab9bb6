"""Command-line surface: every computation as a scriptable command.

Each subcommand returns (status, payload, deviations, text): a status
(ok, mismatch, error), a JSON-ready payload, the list of
adopted-assumption strings relevant to it, and its text; main alone
builds the result dict from the first three.  Text output is
deterministic; JSON output is the serialized dict and survives a
parse/re-dump round trip byte for byte.  Exit code 0 means ok, 1
mismatch, 2 error, also for an unexpected exception and for output that
cannot be written.  Each command imports only the modules it runs; this
module loads only the degree guard (jfl.guard), so a bound over it is
refused before any computation loads, and verify-all's checks are in
jfl.suite.
"""

import argparse
import json
import os
import sys

from .guard import check_guard


# -- subcommand implementations -----------------------------------------

def _qmax(args):
    if args.qmax < 1:
        raise ValueError("qmax must be at least 1")
    return check_guard(args.qmax, "qmax")


def cmd_expand(args):
    from . import generators
    from .series import render_json_dict, render_text
    qmax = _qmax(args)
    table = generators.generator_table(qmax)
    s = getattr(table, args.gen)
    text = render_text(s)
    payload = {"generator": args.gen, "qmax": qmax,
               "series": render_json_dict(s), "text": text}
    return "ok", payload, [], text


def cmd_verify(args):
    from . import generators
    qmax = _qmax(args)
    checks = {}
    if args.which in ("relation", "all"):
        checks["relation"] = generators.verify_relation(qmax)
    if args.which in ("mf-embed", "all"):
        checks.update(generators.mf_embedding_report(qmax))
    ok = all(checks.values())
    lines = ["%s: %s" % (k, "ok" if v else "mismatch")
             for k, v in checks.items()]
    payload = {"which": args.which, "qmax": qmax, "checks": checks}
    return "ok" if ok else "mismatch", payload, [], "\n".join(lines)


def _parse_chern(text):
    values = {}
    if text:
        for item in text.split(","):
            key, _, raw = item.partition("=")
            if not _:
                raise ValueError("expected key=value in --chern, got %r" % item)
            key = key.strip()
            if key in values:
                raise ValueError("--chern gives %s twice" % key)
            try:
                values[key] = int(raw)
            except ValueError:
                raise ValueError("--chern %s: %r is not an integer"
                                 % (item, raw)) from None
    return values


def cmd_genus(args):
    from . import genus, ring
    data = genus.chern_data(args.dim // 2, **_parse_chern(args.chern))
    try:
        element = genus.elliptic_genus(data)
    except genus.NonIntegralGenus as exc:
        payload = {"error": str(exc), "value": str(exc.value)}
        return "error", payload, [], "error: %s" % exc
    chi = genus.euler_characteristic(data)
    text = ring.render_element_text(element)
    payload = {"dim": args.dim,
               "chern": genus.chern_to_json(data),
               "element": ring.render_element_json(element),
               "text": text,
               "chi": chi}
    return "ok", payload, [], "%s\nchi = %d" % (text, chi)


def _group_str(group):
    from .lattice import FPAbelianGroup
    return str(FPAbelianGroup(group["rank"], tuple(group["torsion"])))


def cmd_homotopy(args):
    max_degree = check_guard(args.max_degree, "max degree")
    from . import spectral
    _, rows, ok = spectral.compare_homotopy(args.target, max_degree)
    lines = []
    for row in rows:
        line = "n=%-2d  %-12s" % (row["n"], _group_str(row))
        if row["expected"] is not None:
            line += " expected %-12s %s" % (_group_str(row["expected"]),
                                           "ok" if row["match"] else "MISMATCH")
        lines.append(line)
    payload = {"target": args.target, "max_degree": max_degree, "rows": rows}
    return ("ok" if ok else "mismatch", payload, list(spectral.DEVIATIONS),
            "\n".join(lines))


def cmd_surjectivity(args):
    max_degree = check_guard(args.max_degree, "max degree")
    from . import spectral
    report = spectral.surjectivity_check(args.n_param, max_degree)
    if report["status"] == "ok":
        text = ("ok: %d bidegrees match at parameter %d through degree %d"
                % (report["bidegrees_checked"], args.n_param, max_degree))
    else:
        f = report["first_failure"]
        text = ("mismatch at degree %d filtration %d: %s"
                % (f["degree"], f["filtration"], f["reason"]))
    return report["status"], report, list(spectral.DEVIATIONS), text


def cmd_image(args):
    if args.degree < 0 or args.degree % 2:
        raise ValueError("degree must be even and nonnegative")
    degree = check_guard(args.degree, "degree")
    from . import lattice, ring
    # raises ArithmeticError (exit 2) unless the certified lattice has a
    # 2 at exactly the b2^(2m+1) b8^n; the closed-form count of those
    # monomials must then be the cokernel's number of Z/2
    coker = ring.cokernel(degree)
    expected = ring.expected_torsion_rank(degree)
    match = coker == lattice.FPAbelianGroup(0, (2,) * expected)
    reps = [ring.render_element_text(ring.normal_form({mono: 1}))
            for mono in ring.cokernel_representatives(degree)]
    payload = {"degree": degree,
               "cokernel": lattice.group_to_json(coker),
               "representatives": reps,
               "expected_torsion_rank": expected,
               "match": match}
    lines = ["degree %d cokernel: %s" % (degree, coker)]
    if reps:
        lines.append("representatives: " + ", ".join(reps))
    lines.append("expected torsion rank %d: %s"
                 % (expected, "ok" if match else "MISMATCH"))
    return "ok" if match else "mismatch", payload, [], "\n".join(lines)


def cmd_verify_all(args):
    from .spectral import DEVIATIONS
    from .suite import SUITE
    checks = []
    for name, run in SUITE:
        try:
            checks.append({"name": name, "status": "ok" if run() else "mismatch"})
        except Exception as exc:  # the other checks still run
            checks.append({"name": name, "status": "error",
                           "error": _error_message(exc)})
    statuses = [c["status"] for c in checks]
    overall = next((s for s in ("error", "mismatch") if s in statuses), "ok")
    lines = ["%s: %s" % (c["name"], c["status"])
             + (" (%s)" % c["error"] if "error" in c else "") for c in checks]
    lines.append("overall: %s" % overall)
    payload = {"checks": checks, "overall": overall}
    return overall, payload, list(DEVIATIONS), "\n".join(lines)


# -- argument parsing and dispatch ----------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="jfl",
        description="exact weak Jacobi form computations and verifications")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(fn=fn)
        return p

    p = add("expand", cmd_expand, help="print a generator expansion")
    p.add_argument("--gen", required=True, choices=("a", "b2", "b3", "b4", "b8"))
    p.add_argument("--qmax", type=int, required=True,
                   help="number of q-orders to compute")

    p = add("verify", cmd_verify, help="check the ring relation and embeddings")
    p.add_argument("--which", choices=("relation", "mf-embed", "all"),
                   default="all")
    p.add_argument("--qmax", type=int, default=9)

    p = add("genus", cmd_genus, help="genus of Chern data")
    p.add_argument("--dim", type=int, required=True, choices=(4, 6, 8))
    p.add_argument("--chern", default="",
                   help="comma-separated key=value list, e.g. c2sq=1350,c4=2610")

    p = add("homotopy", cmd_homotopy, help="homotopy groups of a page")
    p.add_argument("--target", choices=("tjf", "msu"), required=True)
    p.add_argument("--max-degree", type=int, default=16)

    p = add("surjectivity", cmd_surjectivity,
            help="bidegreewise isomorphism check of the comparison map")
    p.add_argument("--n-param", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=32)

    p = add("image", cmd_image, help="cokernel of the image lattice in a degree")
    p.add_argument("--degree", type=int, required=True)

    add("verify-all", cmd_verify_all, help="run the whole verification suite")
    return parser


def _error_message(exc):
    """The text of the exception being handled: a bug's has its type."""
    if isinstance(exc, ValueError):
        return str(exc)
    import traceback  # only here: it costs every request's start-up
    traceback.print_exc()
    return "%s: %s" % (type(exc).__name__, exc)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status, payload, deviations, text = args.fn(args)
    except Exception as exc:  # a bug is still an error, not a mismatch
        message = _error_message(exc)
        status, payload, deviations = "error", {"error": message}, []
        text = "error: %s" % message
    if args.format == "json":
        text = json.dumps({"status": status, "payload": payload,
                           "deviations": deviations}, indent=2)
    try:
        print(text)
        sys.stdout.flush()
    except OSError:  # the reader is gone: as Python's SIGPIPE note advises,
        # point stdout at devnull, so that the flush at exit cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return {"ok": 0, "mismatch": 1}.get(status, 2)


if __name__ == "__main__":
    sys.exit(main())
