"""How fast the host runs right now, from a fixed reference computation.

The benchmark's machine is a few vCPUs of a shared host whose speed
drifts with the other tenants' load, by up to a factor of two, in
phases of tens of seconds.  The drift slows `jfl` and the reference
alike, so end-to-end times divided by the reference's slowdown are
steady between runs, while raw times are not (README.md, "Noise").

The reference is a thin-by-wide product of two-variable polynomials
held in dicts, with coefficients of about 200 bits, truncated in q: the
same kind of work as the generator builds and series products `jfl`
spends most of its time in.  Tried against `verify --qmax 37`, a
reference of small coefficients in small dicts overreacted to the
host's drift (log-log slope 0.68), and this one tracked it (slope
0.91).  It never touches `jfl`, so no change to the program can move it.
"""

import statistics
import time

# Reference time of one chunk: the speed that reported times are scaled
# to.  A run where chunks take twice as long reports times halved.
CHUNK_NOMINAL_S = 0.015
SHARE = 0.1  # reference time after a request, as a share of the request
QMAX = 40


def _series(q_terms, seed):
    return {(i, j): ((i * 7 + j * 3 + seed) % 11 - 5) << 200
            for i in range(q_terms) for j in range(-10, 11)}


_THIN = _series(2, 0)
_WIDE = _series(QMAX, 4)


def chunk():
    """One reference product; returns its time in seconds."""
    t0 = time.perf_counter()
    out = {}
    for (i, j), c in _THIN.items():
        for (k, m), d in _WIDE.items():
            if i + k < QMAX:
                key = (i + k, j + m)
                out[key] = out.get(key, 0) + c * d
    return time.perf_counter() - t0


class Speedometer:
    """Reference chunk times, taken between requests.

    After a request of w seconds, `sample(w)` runs chunks until they
    add up to SHARE * w (at least one chunk), so the chunks sample the
    host's speed evenly over time, as the requests' own time does.
    """

    def __init__(self):
        self.chunks = []  # (start, seconds)

    def sample(self, covering_s=0.0):
        spent = 0.0
        while spent == 0.0 or spent < SHARE * covering_s:
            start = time.perf_counter()
            self.chunks.append((start, chunk()))
            spent += self.chunks[-1][1]

    def slowdown(self, start=float("-inf"), end=float("inf")):
        """Mean time of the chunks begun in [start, end] over the nominal."""
        return statistics.mean(s for t, s in self.chunks
                               if start <= t <= end) / CHUNK_NOMINAL_S
