"""Benchmark runner: real `jfl` CLI requests, one fresh process each.

Usage (from the repository root):

    python3 perfbench/run.py --workload expansions|homotopy|scoreboard|all \
        --seed N --seconds S --trace 0|1

Each request runs `jfl.cli.main(argv + ["--format", "json"])` in a new
interpreter with JFL_MAX_DEGREE_GUARD=128, one at a time (a closed loop
with one client).  Every request's exit code and the sha256 of its
stdout are checked against pinned.json.

With --trace 0 the run repeats whole passes of the workload for about
S seconds and reports the end-to-end metrics, each request's times
scaled to a reference host speed (speed.py).  With --trace 1 it runs
the first pass once untraced and once with spans around every public
`jfl` function (see tracer.py) and reports the per-layer metrics.  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.  See README.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer
from child import MARKER
from workloads import EXPECT_CALLS, EXPECT_NO_CALLS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
PINNED = HERE / "pinned.json"
RUN_LIMIT_S = 170  # one workload ends within 180 s, requests included
WARMUP_CHUNKS = 5  # reference chunks run and dropped before timing
SPEED_WINDOW_S = 2.0  # a request's slowdown: chunks this close to it


class Request:
    """Outcome of one child process."""

    def __init__(self, argv, code, digest, start, wall_s, record):
        self.argv = argv
        self.code = code
        self.digest = digest
        self.start = start
        self.wall_s = wall_s
        self.record = record  # child's stderr report, None if it died first
        self.slowdown = 1.0  # the host's around it, against speed.py's reference

    @property
    def key(self):
        return " ".join(self.argv)


def run_request(argv, trace, deadline):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               JFL_MAX_DEGREE_GUARD="128", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(CHILD), "1" if trace else "0", *argv]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env, cwd=ROOT) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - t0))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
    wall = time.perf_counter() - t0
    record = None
    tail = err.decode(errors="replace").rstrip("\n").rpartition("\n")[2]
    if tail.startswith(MARKER):
        record = json.loads(tail[len(MARKER):])
    return Request(tuple(argv), proc.returncode,
                   hashlib.sha256(out).hexdigest(), t0, wall, record)


def run_pass(requests, trace, deadline, summary=None, speedometer=None):
    """Run requests in order; a traced report is folded into `summary`
    and dropped, so raw spans of one request at a time are held.  The
    pass time counts requests only, not `speedometer`'s samples."""
    wall = 0.0
    done = []
    for argv in requests:
        r = run_request(argv, trace, deadline)
        wall += r.wall_s
        if speedometer is not None:
            speedometer.sample(r.wall_s)
        if summary is not None and r.record:
            spans = r.record.pop("trace", None)
            if spans and spans["spans"]:
                summary.add(spans, r.wall_s)
            else:
                summary.errors.append("%s: traced request examined nothing" % r.key)
        done.append(r)
    return done, wall


def failures(done, pinned):
    out = []
    for r in done:
        want = pinned.get(r.key)
        if want is None:
            out.append("%s: no pinned expectation" % r.key)
        elif r.record is None or r.code != want["exit"] or r.digest != want["sha256"]:
            out.append("%s: exit %s, digest %s, expected exit %d, digest %s%s"
                       % (r.key, r.code, r.digest[:12], want["exit"],
                          want["sha256"][:12],
                          "" if r.record else " (no child report)"))
    return out


def end_to_end(name, seed, seconds, deadline):
    """Whole balanced cycles of passes for about `seconds`.

    A cycle is one pass except on expansions, where it is one pass per
    q-order, so that every seed measures the same work.  Each request's
    times are divided by the host's slowdown measured by the reference
    chunks run within SPEED_WINDOW_S of it (speed.py); the raw medians
    are printed beside them.
    """
    generate, cycle = WORKLOADS[name]
    passes = generate(random.Random(seed))
    speedometer = speed.Speedometer()
    for _ in range(WARMUP_CHUNKS):
        speed.chunk()
    speedometer.sample()
    done, cycles = [], []
    start = time.perf_counter()
    while True:
        requests = []
        for _ in range(cycle):
            requests += run_pass(next(passes), False, deadline,
                                 speedometer=speedometer)[0]
        done += requests
        cycles.append(requests)
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(cycles)) > seconds or time.perf_counter() > deadline:
            break
    for r in done:
        r.slowdown = speedometer.slowdown(r.start - SPEED_WINDOW_S,
                                          r.start + r.wall_s + SPEED_WINDOW_S)
    reported = [r for r in done if r.record]
    rss = [r.record["maxrss_kb"] / 1024 for r in reported]
    n = len(done)
    metrics = {
        "wall_s": (statistics.median(sum(r.wall_s / r.slowdown for r in c) / cycle
                                     for c in cycles), "s",
                   "median over %d cycles of %d passes" % (len(cycles), cycle)),
        "request_p50_s": (statistics.median(r.wall_s / r.slowdown for r in done),
                          "s", "median of %d requests" % n),
        "setup_s": (statistics.median(r.record["setup_s"] / r.slowdown
                                      for r in reported) if reported else 0.0,
                    "s", "median of %d requests" % len(reported)),
        "peak_rss_mb": (max(rss, default=0.0), "MB", "max of %d requests" % len(rss)),
    }
    raw = "as measured, not scaled"
    printed = {
        "raw.wall_s": (statistics.median(sum(r.wall_s for r in c) / cycle
                                         for c in cycles), "s", raw),
        "raw.request_p50_s": (statistics.median(r.wall_s for r in done), "s", raw),
        "raw.setup_s": (statistics.median(r.record["setup_s"] for r in reported)
                        if reported else 0.0, "s", raw),
        "host.slowdown": (speedometer.slowdown(), "1", "mean of %d reference chunks"
                          % len(speedometer.chunks)),
    }
    return done, metrics, printed, []


def per_layer(name, seed, deadline):
    """The first pass untraced, then the same pass traced."""
    generate, _ = WORKLOADS[name]
    requests = next(generate(random.Random(seed)))
    plain, plain_wall = run_pass(requests, False, deadline)
    summary = tracer.Summary()
    traced, traced_wall = run_pass(requests, True, deadline, summary)
    totals, caches, errors = summary.totals, summary.caches, summary.errors
    if summary.requests < len(traced):
        errors.append("%d of %d traced requests sent no report"
                      % (len(traced) - summary.requests, len(traced)))
    for group in EXPECT_CALLS[name]:
        if not totals[group]["calls"]:
            errors.append("%s recorded no calls on %s" % (group, name))
    for group in EXPECT_NO_CALLS[name]:
        if totals[group]["calls"]:
            errors.append("%s recorded %d calls on %s, predicted none"
                          % (group, totals[group]["calls"], name))
    n = "%d requests" % len(traced)
    metrics = {}
    for group, t in totals.items():
        metrics[group + ".calls"] = (t["calls"], "count", n)
        metrics[group + ".self_s"] = (t["self_s"], "s", n)
    for cache, (hits, misses) in caches.items():
        metrics[cache + ".hits"] = (hits, "count", n)
        metrics[cache + ".misses"] = (misses, "count", n)
    homology_calls = totals["spectral.homology"]["calls"]
    metrics.update({
        "series.mul.terms_out": (totals["series.mul"]["extra_sum"], "count", n),
        "lattice.snf.max_cells": (totals["lattice.snf"]["extra_max"], "count", n),
        "spectral.basis.max_size": (totals["spectral.basis"]["extra_max"], "count", n),
        "spectral.snf_per_bidegree": (
            totals["lattice.snf"]["calls"] / homology_calls if homology_calls else 0.0,
            "1", "lattice.snf.calls / spectral.homology.calls"),
        "generators.identities.s": (totals["generators.identities"]["inclusive_s"],
                                    "s", n + ", inclusive"),
        "ring.image_lattice.s": (totals["ring.image_lattice"]["inclusive_s"],
                                 "s", n + ", inclusive"),
        "trace.overhead_s": (traced_wall - plain_wall, "s",
                             "traced minus untraced wall_s of one pass"),
        "trace.spans": (summary.spans, "count", n),
    })
    return plain + traced, metrics, {}, errors


def run_workload(name, seed, seconds, trace, pinned, deadline):
    if trace:
        done, metrics, printed, errors = per_layer(name, seed, deadline)
    else:
        done, metrics, printed, errors = end_to_end(name, seed, seconds,
                                                    deadline)
    failed = failures(done, pinned)
    print("workload %s  seed %d  trace %d  requests %d"
          % (name, seed, trace, len(done)))
    for metric, (value, unit, samples) in {**metrics, **printed}.items():
        print("  %-32s %14.6g %-6s (%s)" % (metric, value, unit, samples))
    print("  %-32s %14.6g %-6s (%d of %d requests)"
          % ("failed_ratio", len(failed) / len(done), "1", len(failed), len(done)))
    for line in failed:
        print("  FAILED %s" % line)
    for line in errors:
        print("  TRACE CHECK FAILED %s" % line)
    return {"correct": not failed and not errors,
            "attempted": len(done),
            "failed": len(failed),
            "metrics": {m: {"value": v, "unit": u}
                        for m, (v, u, _) in metrics.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "jfl" / "cli.py").is_file() or not spec.is_file():
        sys.exit("perfbench: run from a jfl checkout (src/jfl and BENCHMARK.json)")
    declared = json.loads(spec.read_text())["per_layer" if args.trace else "end_to_end"]
    declared = {m["name"]: m["unit"] for m in declared}
    pinned = json.loads(PINNED.read_text())
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = time.perf_counter() + RUN_LIMIT_S
        result = run_workload(name, args.seed, args.seconds, args.trace,
                              pinned, deadline)
        got = {m: v["unit"] for m, v in result["metrics"].items()}
        if result["metrics"] and got != declared:
            sys.exit("perfbench: metrics %s differ from BENCHMARK.json %s"
                     % (sorted(got.items()), sorted(declared.items())))
        results[name] = result
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {"%s.%s" % (n, m): v for n, r in results.items()
                           for m, v in r["metrics"].items()}}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
