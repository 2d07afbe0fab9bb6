"""Regenerate pinned.json: the expected exit code and stdout sha256 of
every request any seed can draw, taken from the current source tree.

Usage (from the repository root): python3 perfbench/pin.py

Run it only when a change is meant to alter the CLI's output, and say so
in the change; otherwise the pins are what catch an unintended change.
"""

import json
import time

from run import PINNED, RUN_LIMIT_S, run_request
from workloads import all_requests


def main():
    pinned = {}
    for argv in all_requests():
        r = run_request(argv, False, time.perf_counter() + RUN_LIMIT_S)
        if r.record is None:
            raise SystemExit("%s: child died (exit %s)" % (r.key, r.code))
        pinned[r.key] = {"exit": r.code, "sha256": r.digest}
        print("%-50s exit %d  %.2f s" % (r.key, r.code, r.wall_s), flush=True)
    PINNED.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
