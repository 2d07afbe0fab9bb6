"""Seeded random property suites.

Shared between the per-module tests and the acceptance gate.  Each
function performs at least `cases` independent checks with a fixed
default seed and returns the number actually run.
"""

import random

import pytest

from jfl import ring, spectral
from jfl.generators import generator_table
from jfl.lattice import (determinant, hermite_normal_form, in_row_span,
                         kernel_basis, smith_normal_form,
                         solve_column_combination, transpose)
from jfl.series import NonDivisible, QYSeries, exact_divide, make_series
from oracles import (bareiss_determinant, d3_element, dict_exact_divide,
                     dict_product, multiply, normalize)


def random_series(rng, truncation, parity, max_terms=6):
    entries = []
    for _ in range(rng.randrange(max_terms + 1)):
        n = rng.randrange(truncation)
        r2 = 2 * rng.randrange(-4, 5) + parity
        entries.append((n, r2, rng.randrange(-9, 10)))
    return make_series(entries, truncation)


def _assert_same_product(f, g):
    want = dict_product(f, g)
    assert f * g == want and g * f == want


def packed_product_matches_dict(cases=1000, seed=20260824):
    # wide coefficients and y-ranges, unequal truncations; terms of the
    # longer operand often sit at or past the shorter one's truncation
    rng = random.Random(seed)
    done = 0
    for _ in range(cases):
        operands = []
        for _ in range(2):
            t = rng.randrange(1, 21)
            p = rng.randrange(2)
            mag = rng.choice((9, 10 ** 6, 10 ** 30))
            size = rng.choice((0, 1, rng.randrange(2, 16)))
            entries = [(rng.randrange(t), 2 * rng.randrange(-10, 11) + p,
                        rng.randrange(-mag, mag + 1)) for _ in range(size)]
            operands.append(make_series(entries, t))
        _assert_same_product(*operands)
        for f in operands:
            assert f * f == dict_product(f, f)  # the square path
        done += 1
    return done


def packed_width_edges(max_bits=40):
    """Products whose middle coefficient is exactly +-bound, the digit
    bound that sets the packed width: bound = max over output layers n
    of sum_i |A_i|_1 max|B_(n-i)|, |A_i|_1 the sum of |a| over layer i.

    Two families with m = 2^k - 1: full layers of m times full layers of
    +-m at every order, where the bound m^2 (layer length) trunc is met
    in the last layer, and a full layer of m at q^(trunc-1) times a full
    layer of +-m at q^0, where it is m^2 (layer length).  As k grows
    the bound's bit length crosses every byte edge.  Returns the number
    of products checked.
    """
    done = 0
    edges = (set(), set())
    for k in range(1, max_bits + 1):
        m = (1 << k) - 1
        for length, trunc in ((1, 1), (2, 3), (5, 4), (8, 8)):
            for family, a_orders, b_orders, bound in (
                    (0, range(trunc), range(trunc), m * m * length * trunc),
                    (1, (trunc - 1,), (0,), m * m * length)):
                edges[family].add(bound.bit_length() % 8)
                for pa, pb in ((0, 0), (1, 1), (0, 1)):
                    a = make_series([(n, 2 * d + pa, m) for n in a_orders
                                     for d in range(length)], trunc)
                    for sign in (1, -1):
                        b = make_series([(n, 2 * d - pb, sign * m)
                                         for n in b_orders
                                         for d in range(length)],
                                        trunc)
                        top = a * b
                        assert top.coefficient(
                            trunc - 1, 2 * length - 2 + pa - pb) == sign * bound
                        _assert_same_product(a, b)
                        done += 1
    assert edges == (set(range(8)), set(range(8)))
    # a top digit 1 over a negative digit packs to fewer bits than its
    # position: y - 1 packs to 2^w - 1
    for c in (1, -1):
        _assert_same_product(make_series([(0, 2, c), (0, 0, -c)], 1),
                             QYSeries.one(1))
        done += 1
    return done


def _same_quotient(f, g):
    """exact_divide(f, g) equals the dict oracle, or both raise
    NonDivisible; returns whether a quotient came out."""
    try:
        want = dict_exact_divide(f, g)
    except NonDivisible:
        with pytest.raises(NonDivisible):
            exact_divide(f, g)
        return False
    assert exact_divide(f, g) == want
    return True


def packed_quotient_matches_dict(cases=1000, seed=20260826):
    """Seeded quotients f / g against the dict oracle.

    g has a lead layer of 1-3 terms with non-unit coefficients and up to
    10^30 in size, the quotient h starts small and may jump to 10^30
    partway (so the packed width grows mid-division), and one case in
    three adds a monomial to f = g h, which mostly leaves a remainder
    that both paths must reject with NonDivisible.  Returns the number
    of cases run; asserts that both outcomes occurred."""
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(cases):
        t = rng.randrange(1, 13)
        m = rng.randrange(min(t, 3))
        pg, ph = rng.randrange(2), rng.randrange(2)
        mag = rng.choice((9, 10 ** 6, 10 ** 30))
        lead = [(m, 2 * d + pg, rng.choice((-1, 1)) * rng.choice(
                    (rng.randrange(2, 10), rng.randrange(2, mag + 2))))
                for d in rng.sample(range(-4, 5), rng.randrange(1, 4))]
        rest = [(rng.randrange(m + 1, t), 2 * rng.randrange(-6, 7) + pg,
                 rng.randrange(-mag, mag + 1))
                for _ in range(rng.randrange(8) if m + 1 < t else 0)]
        g = make_series(lead + rest, t)
        jump = rng.randrange(t + 1)
        h = make_series([(n, 2 * rng.randrange(-5, 6) + ph,
                          rng.randrange(-3, 4) * (10 ** 30 if n >= jump else 1))
                         for n in (rng.randrange(t) for _ in range(rng.randrange(12)))],
                        t)
        f = (g * h).truncate(rng.randrange(1, t + 1) if rng.randrange(4) == 0 else t)
        if rng.randrange(3) == 0:
            c = rng.choice((1, -1)) * rng.randrange(1, 5)
            n = rng.randrange(f.truncation)
            r2 = 2 * rng.randrange(-6, 7) + (pg + ph) % 2
            f = f + make_series([(n, r2, c)], f.truncation)
        outcomes.add(_same_quotient(f, g))
    assert outcomes == {True, False}
    return cases


def series_ring_axioms(cases=1000, seed=20260818):
    rng = random.Random(seed)
    done = 0
    for _ in range(cases):
        t = rng.randrange(2, 6)
        p = rng.randrange(2)
        x = random_series(rng, t, p)
        y = random_series(rng, t, p)
        z = random_series(rng, t, p)
        w = random_series(rng, t, rng.randrange(2))
        zero = QYSeries.zero(t)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x + zero == x
        assert x - x == zero
        assert x * w == w * x
        assert (x * y) * w == x * (y * w)
        assert x * (y + z) == x * y + x * z
        assert x * QYSeries.one(t) == x
        assert x.scale(3) == x + x + x
        assert x ** 3 == x * x * x
        done += 1
    return done


def exact_divide_round_trips(cases=1000, seed=20260819):
    rng = random.Random(seed)
    done = 0
    attempts = 0
    while done < cases and attempts < 20 * cases:
        attempts += 1
        t = rng.randrange(2, 6)
        f = random_series(rng, t, rng.randrange(2))
        pg = rng.randrange(2)
        g = random_series(rng, t, pg, max_terms=3)
        c = rng.choice((1, -1, 2, -2))
        n = rng.randrange(t)
        g = g + make_series([(n, 2 * rng.randrange(-2, 3) + pg, c)], t)
        if g.is_zero():
            continue
        g_order = min(n for n, _, _ in g.terms())
        q = exact_divide(f * g, g)
        assert q == f.truncate(t - g_order)
        done += 1
    assert done >= cases
    return done


def normal_form_homomorphism(cases=1000, seed=20260820):
    # rewriting must be invisible to the series realization: a raw
    # monomial (fourth exponent unbounded) evaluates to the plain
    # product of generator series, and products of normal forms
    # evaluate multiplicatively with additive index
    rng = random.Random(seed)
    t = 3
    tab = generator_table(t)

    def raw_series(m):
        return tab.b2 ** m[0] * tab.b3 ** m[1] * tab.b4 ** m[2] * tab.b8 ** m[3]

    nonzero = [c for c in range(-5, 6) if c]
    done = 0
    for _ in range(cases):
        m1 = (rng.randrange(3), rng.randrange(3),
              rng.randrange(4), rng.randrange(2))
        m2 = (rng.randrange(3), rng.randrange(3),
              rng.randrange(4), rng.randrange(2))
        c1, c2 = rng.choice(nonzero), rng.choice(nonzero)
        x1 = ring.normal_form({m1: c1})
        x2 = ring.normal_form({m2: c2})
        assert all(mono[2] <= 1 for mono in x1.coeffs)
        s1, i1 = ring.eval_series(x1, t)
        s2, i2 = ring.eval_series(x2, t)
        assert s1 == raw_series(m1).scale(c1)
        assert i1 == ring.monomial_degree(m1) // 2
        s12, i12 = ring.eval_series(x1 * x2, t)
        assert s12 == s1 * s2
        assert i12 == i1 + i2
        done += 1
    return done


def _block_triangular(rng, n):
    """An n x n matrix shaped like the free-sector maps of
    surjectivity_check: block lower triangular, each diagonal block a
    signed permutation of size 1 to 4, sparse entries of mixed size
    below the blocks; its determinant is +-1."""
    mat = [[0] * n for _ in range(n)]
    start = 0
    while start < n:
        size = min(rng.randrange(1, 5), n - start)
        for i, j in enumerate(rng.sample(range(size), size)):
            mat[start + i][start + j] = rng.choice((1, -1))
        for row in mat[start:start + size]:
            for j in range(start):
                if rng.random() < 0.3:
                    row[j] = rng.randrange(-200, 201)
        start += size
    return mat


def determinant_matches_bareiss(cases=1000, seed=20260825):
    # two cases in three are 0x0 to 6x6, sparse to dense, small to wide
    # entries, so most pivots are not units; the third is up to 20x20,
    # block triangular (_block_triangular) and then with its rows
    # shuffled, so that pivot rows move into place.  One case in five
    # has a row that is a multiple of another, so it is singular
    rng = random.Random(seed)
    done = 0
    for k in range(cases):
        if k % 3 == 2:
            n = rng.randrange(1, 21)
            mat = _block_triangular(rng, n)
            assert determinant(mat) == bareiss_determinant(mat) in (1, -1)
            mat = rng.sample(mat, n)
        else:
            n = rng.randrange(7)
            density = rng.random()
            mag = rng.choice((1, 9, 10 ** 6))
            mat = [[rng.randrange(-mag, mag + 1) if rng.random() < density
                    else 0 for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            i, j = rng.sample(range(n), 2)
            c = rng.randrange(-3, 4)
            mat[i] = [c * x for x in mat[j]]
            assert determinant(mat) == 0
        assert determinant(mat) == bareiss_determinant(mat)
        done += 1
    return done


def mat_mul(a, b):
    """The product a @ b of integer matrices given as lists of rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def snf_holds(mat):
    """Assert the postconditions that fix the Smith form of mat uniquely
    and return its diagonal: U*mat*V == D with det U and det V = +-1, D
    diagonal and nonnegative, and d1 | d2 | ... ."""
    m, n = len(mat), len(mat[0])
    u, d, v = smith_normal_form(mat)
    assert mat_mul(mat_mul(u, mat), v) == d
    assert determinant(u) in (1, -1)
    assert determinant(v) in (1, -1)
    diag = [d[i][i] for i in range(min(m, n))]
    assert all(d[i][j] == 0
               for i in range(m) for j in range(n) if i != j)
    assert all(x >= 0 for x in diag)
    for i in range(len(diag) - 1):
        if diag[i + 1]:
            assert diag[i] and diag[i + 1] % diag[i] == 0
    return diag


# diagonal inputs whose invariant factors mix primes across entries
SNF_CHAINS = (
    ([[2, 0], [0, 3]], [1, 6]),
    ([[4, 0], [0, 6]], [2, 12]),
    ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], [1, 30, 30]),
)


def snf_postconditions(cases=1000, seed=20260821):
    # three kinds in turn: small dense matrices with signed entries; the
    # pages' kind, sparse with entries in {0, 1, 2} and up to 30x15 or
    # 15x30; and small dense ones with some rows and columns zeroed
    for mat, diag in SNF_CHAINS:
        assert snf_holds(mat) == diag
    rng = random.Random(seed)
    done = 0
    for k in range(cases):
        if k % 3 == 1:
            m, n = rng.randrange(1, 31), rng.randrange(1, 16)
            if rng.random() < 0.5:
                m, n = n, m
            density = rng.random()
            mat = [[rng.randrange(1, 3) if rng.random() < density else 0
                    for _ in range(n)] for _ in range(m)]
        else:
            m, n = rng.randrange(1, 5), rng.randrange(1, 5)
            mat = [[rng.randrange(-9, 10) for _ in range(n)]
                   for _ in range(m)]
            if k % 3 == 2:
                for i in rng.sample(range(m), rng.randrange(m)):
                    mat[i] = [0] * n
                for j in rng.sample(range(n), rng.randrange(n)):
                    for row in mat:
                        row[j] = 0
        snf_holds(mat)
        done += 1
    return done


def hnf_holds(rows, ncols):
    """Assert the conditions that fix the Hermite form of the rows'
    lattice and return it: pivot columns strictly increase, pivots are
    positive, entries above a pivot lie in [0, pivot), no row is zero,
    and the rows span the same lattice as the input."""
    hnf = hermite_normal_form(rows, ncols)
    pivots = [next(j for j, x in enumerate(h) if x) for h in hnf]
    assert pivots == sorted(set(pivots))
    for i, j in enumerate(pivots):
        assert hnf[i][j] > 0
        assert all(0 <= h[j] < hnf[i][j] for h in hnf[:i])
    assert all(in_row_span(hnf, row) for row in rows)
    if hnf:
        assert None not in solve_column_combination(transpose(rows), hnf)
    return hnf


# small inputs with a known form: a gcd, a sign, a repeated row
HNF_CASES = (
    (([[2, 4], [6, 8]], 2), [[2, 0], [0, 4]]),
    (([[0, 4], [0, 6]], 2), [[0, 2]]),
    (([[-3, 1], [-3, 1], [0, 0]], 2), [[3, -1]]),
)


def hnf_postconditions(cases=1000, seed=20261021):
    # two kinds in turn: small signed matrices, with zero rows, repeated
    # rows and often more rows than columns; and the pages' kind, the
    # kernel rows of [D | 2I] cut to x that preimage_lattice feeds in,
    # for random F2 columns D.  Permuting the rows must not move the form.
    for args, want in HNF_CASES:
        assert hnf_holds(*args) == want
    rng = random.Random(seed)
    done = 0
    for k in range(cases):
        if k % 2:
            n, height = rng.randrange(1, 13), rng.randrange(1, 13)
            cols = [rng.getrandbits(height) for _ in range(n)]
            aug = [[(c >> i) & 1 for c in cols]
                   + [2 * (i == j) for j in range(height)]
                   for i in range(height)]
            rows = [v[:n] for v in kernel_basis(aug, ncols=n + height)]
        else:
            n = rng.randrange(1, 7)
            mag = rng.choice((1, 9, 10 ** 6))
            rows = [[rng.randint(-mag, mag) for _ in range(n)]
                    for _ in range(rng.randrange(1, 10))]
            for i in rng.sample(range(len(rows)), rng.randrange(len(rows))):
                rows[i] = rng.choice(([0] * n, list(rng.choice(rows))))
        hnf = hnf_holds(rows, n)
        rng.shuffle(rows)
        assert hermite_normal_form(rows, n) == hnf
        done += 1
    return done


def _spectral_pages():
    return (spectral.tjf_page(24), spectral.msu_page(32),
            spectral.msu_sub_page(24))


def d3_squared_zero(cases=1000, seed=20260822):
    rng = random.Random(seed)
    pages = _spectral_pages()
    done = 0
    attempts = 0
    while done < cases and attempts < 50 * cases:
        attempts += 1
        page = rng.choice(pages)
        d = rng.randrange(0, page.max_degree + 1)
        s = rng.randrange(0, d + 1) if d else 0
        basis = page.basis(d, s)
        if not basis:
            continue
        x = {}
        for _ in range(rng.randrange(1, 4)):
            x[rng.choice(basis)] = rng.randrange(1, 4)
        assert d3_element(page, d3_element(page, x)) == {}
        done += 1
    assert done >= cases
    return done


def signed_leibniz(cases=1000, seed=20260823):
    rng = random.Random(seed)
    pages = _spectral_pages()
    done = 0
    attempts = 0
    while done < cases and attempts < 50 * cases:
        attempts += 1
        page = rng.choice(pages)
        d1 = rng.randrange(0, page.max_degree // 2 + 1)
        d2 = rng.randrange(0, page.max_degree - d1 + 1)
        b1 = page.basis(d1, rng.randrange(0, 3))
        b2 = page.basis(d2, rng.randrange(0, 3))
        if not b1 or not b2:
            continue
        u, v = {rng.choice(b1): 1}, {rng.choice(b2): 1}
        lhs = d3_element(page, multiply(page, u, v))
        sign = -1 if d1 % 2 else 1
        rhs = {}
        for k, c in multiply(page, d3_element(page, u), v).items():
            rhs[k] = rhs.get(k, 0) + c
        for k, c in multiply(page, u, d3_element(page, v)).items():
            rhs[k] = rhs.get(k, 0) + sign * c
        rhs = normalize(page, [(c, dict(k)) for k, c in rhs.items()])
        assert lhs == rhs
        done += 1
    assert done >= cases
    return done


ALL_SUITES = (
    ("series ring axioms", series_ring_axioms),
    ("exact_divide round trips", exact_divide_round_trips),
    ("normal_form homomorphism", normal_form_homomorphism),
    ("SNF postconditions", snf_postconditions),
    ("d3 composed with d3 is zero", d3_squared_zero),
    ("signed Leibniz", signed_leibniz),
)
