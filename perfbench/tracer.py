"""Spans around the public functions of each `jfl` module.

`install()` runs inside a request's child process after `import jfl.cli`
and before `jfl.cli.main`.  It wraps every function in TARGETS in every
`jfl` module namespace that bound it (names imported with `from ...
import` are separate bindings), and patches methods on their class so
that `*` and `**` route through the wrapper.  Spans are kept in memory
and written out by the child when it exits; `Summary` folds the spans
of many requests into per-layer metrics in the parent.

A span is [group index, start, end, parent span index, extra], where
extra is a size recorded at the boundary (product terms, matrix cells,
basis length).  Self time is a span's duration minus the time covered
by its child spans.
"""

import importlib
import sys
import time

# (span group, module, function or Class.method)
TARGETS = (
    ("series.mul", "jfl.series", "QYSeries.__mul__"),
    ("series.exact_divide", "jfl.series", "exact_divide"),
) + tuple(
    ("generators.build", "jfl.generators", name)
    for name in ("gen_a", "gen_b2", "gen_b3", "gen_b4", "gen_b8",
                 "theta_quotient", "stabilizer_power", "eisenstein_c4",
                 "eisenstein_c6", "discriminant", "generator_table")
) + tuple(
    ("generators.identities", "jfl.generators", name)
    for name in ("verify_relation", "mf_embedding_report",
                 "verify_mf_embedding", "verify_discriminant_identity")
) + (
    ("ring.mul", "jfl.ring", "JFElement.__mul__"),
    ("ring.image_lattice", "jfl.ring", "cokernel"),
    ("ring.image_lattice", "jfl.ring", "in_image"),
    ("ring.image_lattice", "jfl.ring", "image_basis"),
    ("lattice.snf", "jfl.lattice", "smith_normal_form"),
    ("lattice.solve", "jfl.lattice", "solve_column_combination"),
    ("lattice.kernel", "jfl.lattice", "kernel_basis"),
    ("lattice.hnf", "jfl.lattice", "hermite_normal_form"),
    ("lattice.in_span", "jfl.lattice", "in_row_span"),
    ("lattice.det", "jfl.lattice", "determinant"),
    ("spectral.basis", "jfl.spectral", "BigradedPage.basis"),
    ("spectral.d3_matrix", "jfl.spectral", "BigradedPage.d3_matrix"),
    ("spectral.homology", "jfl.spectral", "homology_at"),
    ("spectral.homotopy", "jfl.spectral", "homotopy_groups"),
    ("spectral.surjectivity", "jfl.spectral", "surjectivity_check"),
) + tuple(
    ("genus", "jfl.genus", name)
    for name in ("chern_data", "product_chern_data", "milnor_s",
                 "euler_characteristic", "genus_deg4", "genus_deg6",
                 "genus_deg8", "elliptic_genus", "generator_genus_table")
) + (
    ("cli", "jfl.cli", "main"),
)

# lru_cache tables whose hits and misses are read after each request
CACHES = (("generators.table", "jfl.generators", "generator_table"),
          ("ring.degree_basis", "jfl.ring", "degree_basis"),
          ("ring.image_lattice_cache", "jfl.ring", "_image_lattice"))

GROUPS = tuple(dict.fromkeys(group for group, _, _ in TARGETS))


def _series_terms(args, result):
    return len(result._terms)


def _matrix_cells(args, result):
    mat = args[0]
    return len(mat) * (len(mat[0]) if mat else 0)


def _basis_size(args, result):
    return len(result)


def _is_product(cls):
    return lambda args: isinstance(args[1], cls)


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.caches = {}

    def wrap(self, group, fn, measure=None, only=None):
        gid = GROUPS.index(group)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if only is not None and not only(args):
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [gid, 0.0, 0.0, stack[-1], 0]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                span[4] = measure(args, result)
            return result

        return wrapper

    def report(self):
        return {"groups": GROUPS, "spans": self.spans,
                "caches": {name: list(cache.cache_info()[:2])
                           for name, cache in self.caches.items()}}


def install():
    """Wrap every target in every jfl namespace; returns the Recorder."""
    import jfl.series
    import jfl.ring
    rec = Recorder()
    for name, module, attr in CACHES:
        rec.caches[name] = getattr(importlib.import_module(module), attr)
    special = {"series.mul": (_series_terms, _is_product(jfl.series.QYSeries)),
               "ring.mul": (None, _is_product(jfl.ring.JFElement)),
               "lattice.snf": (_matrix_cells, None),
               "spectral.basis": (_basis_size, None)}
    replaced = {}  # id(original) -> (original, wrapper)
    wrappers = []
    for group, module, attr in TARGETS:
        mod = importlib.import_module(module)
        measure, only = special.get(group, (None, None))
        owner, name = mod, attr
        if "." in attr:
            cls_name, name = attr.split(".")
            owner = getattr(mod, cls_name)
        fn = owner.__dict__[name]
        wrapper = rec.wrap(group, fn, measure, only)
        wrappers.append((owner, name, wrapper))
        if owner is mod:
            replaced[id(fn)] = (fn, wrapper)
        else:
            setattr(owner, name, wrapper)
    # a name imported with `from ... import` is its own binding: rebind
    # every jfl namespace that holds an original, not just its module
    for mod in [m for n, m in sys.modules.items()
                if n == "jfl" or n.startswith("jfl.")]:
        for key, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, key, hit[1])
    for owner, name, wrapper in wrappers:
        if owner.__dict__[name] is not wrapper:
            raise RuntimeError("%s.%s is not wrapped" % (owner.__name__, name))
    return rec


class Summary:
    """Per-layer totals over requests, plus the accounting checks.

    `add` folds in one request's child report and the parent-measured
    spawn-to-exit time of that request, so raw spans need not be kept.
    `totals` maps group -> calls, self_s, inclusive_s, extra_sum,
    extra_max; `caches` maps cache -> [hits, misses].
    """

    def __init__(self):
        self.totals = {g: {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0,
                           "extra_sum": 0, "extra_max": 0} for g in GROUPS}
        self.caches = {name: [0, 0] for name, _, _ in CACHES}
        self.spans = 0
        self.requests = 0
        self.errors = []

    def add(self, trace, wall):
        n = self.requests
        self.requests += 1
        groups, spans = trace["groups"], trace["spans"]
        self.spans += len(spans)
        covered = [0.0] * len(spans)
        for gid, t0, t1, parent, _ in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        self_sum = 0.0
        for i, (gid, t0, t1, parent, extra) in enumerate(spans):
            self_s = (t1 - t0) - covered[i]
            if self_s < -1e-9:
                self.errors.append("request %d: span %d has self time %.3g s"
                                   % (n, i, self_s))
            self_sum += self_s
            tot = self.totals[groups[gid]]
            tot["calls"] += 1
            tot["self_s"] += self_s
            tot["extra_sum"] += extra
            tot["extra_max"] = max(tot["extra_max"], extra)
            p = parent
            while p >= 0 and spans[p][0] != gid:
                p = spans[p][3]
            if p < 0:
                tot["inclusive_s"] += t1 - t0
        if self_sum > wall:
            self.errors.append("request %d: self times sum to %.4f s, over its "
                               "wall time %.4f s" % (n, self_sum, wall))
        for name, (hits, misses) in trace["caches"].items():
            self.caches[name][0] += hits
            self.caches[name][1] += misses
