"""The benchmark's three workloads of `jfl` CLI requests.

A request is the argv of one `jfl` invocation without `--format json`,
which the child process appends.  Each workload yields passes: a pass
is the list of requests that finish the workload once, in seeded
order.  The seed picks request order and each request's parameters
from the fixed pools below; `jfl` itself only ever sees the argv.

Parameters are drawn stratified so that every seed asks for the same
amount of work: expansions cycles one q-order per pass through a
seeded permutation of its pool (a run measures whole cycles), and
scoreboard takes one image degree from each quarter of its range.
Without that, the spread between seeds would swamp the bounds in
BENCHMARK.json: `verify --qmax 45` costs twice `verify --qmax 37`.
"""

EXPANSION_QMAX = (37, 41, 45)
EXPANSION_GENERATORS = ("a", "b2", "b3", "b4", "b8")
SURJECTIVITY_N = tuple(range(-3, 4))
IMAGE_DEGREE_STRATA = (range(64, 80, 2), range(80, 96, 2),
                       range(96, 112, 2), range(112, 129, 2))
HOMOTOPY = (("homotopy", "--target", "msu", "--max-degree", "64"),
            ("homotopy", "--target", "msu", "--max-degree", "56"),
            ("homotopy", "--target", "tjf", "--max-degree", "96"))
# Most requests here cost little more than process start, so the median
# request falls among the short ones.  Twelve of the 23 in a pass make
# that part of the distribution dense enough for its median to repeat
# between runs; with six, the median moved with the image degrees each
# seed drew (quartile spread 0.134 over ten seeds).
SCOREBOARD_FIXED = (
    ("verify-all",), ("verify-all",), ("verify-all",),
    ("genus", "--dim", "8", "--chern", "c2sq=1350,c4=2610"),
    ("genus", "--dim", "4", "--chern", "c2=24"),
    ("verify", "--qmax", "9"), ("verify", "--qmax", "9"),
    ("verify", "--qmax", "9"), ("verify", "--qmax", "9"),
    ("expand", "--gen", "b2", "--qmax", "9"),
    ("homotopy", "--target", "msu", "--max-degree", "16"),
    ("homotopy", "--target", "tjf", "--max-degree", "24"),
    ("image", "--degree", "32"),
    # both are pinned to exit 2: over the degree guard, and non-integral
    ("homotopy", "--target", "msu", "--max-degree", "200"),
    ("genus", "--dim", "8", "--chern", "c2sq=1,c4=1"),
)


def _expansions_pass(qmax):
    q = str(qmax)
    return ([("verify", "--qmax", q)]
            + [("expand", "--gen", g, "--qmax", q) for g in EXPANSION_GENERATORS])


def _surjectivity(n):
    return ("surjectivity", "--n-param", str(n), "--max-degree", "96")


def _image(d):
    return ("image", "--degree", str(d))


def expansions(rng):
    while True:
        cycle = list(EXPANSION_QMAX)
        rng.shuffle(cycle)
        for qmax in cycle:
            requests = _expansions_pass(qmax)
            rng.shuffle(requests)
            yield requests


def homotopy(rng):
    while True:
        requests = list(HOMOTOPY)
        rng.shuffle(requests)
        yield requests


def scoreboard(rng):
    while True:
        requests = (list(SCOREBOARD_FIXED)
                    + [_surjectivity(n) for n in rng.sample(SURJECTIVITY_N, 4)]
                    + [_image(rng.choice(s)) for s in IMAGE_DEGREE_STRATA])
        rng.shuffle(requests)
        yield requests


# name -> (pass generator, passes per balanced cycle)
WORKLOADS = {
    "expansions": (expansions, len(EXPANSION_QMAX)),
    "homotopy": (homotopy, 1),
    "scoreboard": (scoreboard, 1),
}

# Traced-run predictions: span groups that must record calls, and span
# groups that must record none, on each workload.  lattice.solve,
# .kernel and .det are reached only through the names spectral imported
# from lattice, and lattice.in_span only through ring's, so they also
# check that those bindings were wrapped.
_LATTICE = ("lattice.snf", "lattice.solve", "lattice.kernel", "lattice.hnf",
            "lattice.in_span", "lattice.det")
EXPECT_CALLS = {
    "expansions": ("series.mul", "series.exact_divide", "generators.build",
                   "generators.identities"),
    "homotopy": ("lattice.snf", "lattice.solve", "lattice.kernel",
                 "lattice.hnf", "spectral.basis", "spectral.d3_matrix",
                 "spectral.homology"),
    "scoreboard": ("series.mul", "ring.mul", "ring.image_lattice",
                   "lattice.snf", "lattice.hnf", "lattice.in_span",
                   "lattice.det", "spectral.homology",
                   "spectral.surjectivity", "genus"),
}
EXPECT_NO_CALLS = {
    "expansions": _LATTICE + ("ring.mul", "spectral.basis", "spectral.homology"),
    "homotopy": ("series.mul", "series.exact_divide", "generators.build",
                 "ring.mul"),
    "scoreboard": (),
}


def all_requests():
    """Every request any seed can draw, for pinning expected outputs."""
    out = [r for q in EXPANSION_QMAX for r in _expansions_pass(q)]
    out += HOMOTOPY + SCOREBOARD_FIXED
    out += [_surjectivity(n) for n in SURJECTIVITY_N]
    out += [_image(d) for s in IMAGE_DEGREE_STRATA for d in s]
    return list(dict.fromkeys(out))
