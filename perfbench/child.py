"""One benchmark request: a fresh interpreter running the jfl CLI.

Usage: python3 child.py TRACE ARG...   (TRACE is 0 or 1)

Runs `jfl.cli.main(ARGS + ["--format", "json"])` and exits with its
code, so stdout is exactly what a CLI user would see.  The time taken
by `import jfl.cli` (and, with TRACE 1, the spans) goes to the last
line of stderr after MARKER, as JSON.
"""

import json
import os
import resource
import sys
import time

MARKER = "PERFBENCH "


def main():
    trace = sys.argv[1] == "1"
    argv = sys.argv[2:]
    t0 = time.perf_counter()
    import jfl.cli
    record = {"setup_s": time.perf_counter() - t0}
    src = os.path.realpath(os.environ["PYTHONPATH"])
    if os.path.dirname(os.path.dirname(os.path.realpath(jfl.cli.__file__))) != src:
        raise SystemExit("jfl was not imported from %s" % src)
    if trace:
        import tracer
        recorder = tracer.install()
    try:
        return jfl.cli.main(argv + ["--format", "json"])
    finally:
        sys.stdout.flush()
        record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if trace:
            record["trace"] = recorder.report()
        sys.stderr.write("\n" + MARKER + json.dumps(record) + "\n")


if __name__ == "__main__":
    sys.exit(main())
