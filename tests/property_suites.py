"""Seeded random property suites.

Shared between the per-module tests and the acceptance gate.  Each
function performs at least `cases` independent checks with a fixed
default seed and returns the number actually run.
"""

import random

import pytest

from jfl import ring, spectral
from jfl.generators import generator_table, stabilizer_power
from jfl.lattice import determinant, smith_normal_form
from jfl.series import NonDivisible, QYSeries, exact_divide, make_series


def random_series(rng, truncation, parity, max_terms=6):
    entries = []
    for _ in range(rng.randrange(max_terms + 1)):
        n = rng.randrange(truncation)
        r2 = 2 * rng.randrange(-4, 5) + parity
        entries.append((n, r2, rng.randrange(-9, 10)))
    return make_series(entries, truncation, parity=parity)


def dict_product(f, g):
    """The product as a double loop over the terms: the oracle for the
    packed q-layer product in QYSeries.__mul__."""
    trunc = min(f.truncation, g.truncation)
    out = {}
    for (n1, r1), c1 in f._terms.items():
        if n1 >= trunc:
            continue
        for (n2, r2), c2 in g._terms.items():
            n = n1 + n2
            if n >= trunc:
                continue
            key = (n, r1 + r2)
            v = out.get(key, 0) + c1 * c2
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return QYSeries(out, trunc, (f.parity + g.parity) % 2)


def _dict_laurent_div(num, den):
    """Laurent division by descending degree over dicts, shifted to
    ordinary polynomials and back; None if it leaves a remainder."""
    min_n, min_d = min(num), min(den)
    R = {e - min_n: c for e, c in num.items()}
    G = {e - min_d: c for e, c in den.items()}
    deg_g = max(G)
    quot = {}
    while R:
        deg_r = max(R)
        c, rem = divmod(R[deg_r], G[deg_g])
        if deg_r < deg_g or rem:
            return None
        quot[deg_r - deg_g + min_n - min_d] = c
        for eg, cg in G.items():
            e = deg_r - deg_g + eg
            v = R.get(e, 0) - c * cg
            if v:
                R[e] = v
            else:
                R.pop(e, None)
    return quot


def dict_exact_divide(f, g):
    """The quotient h with g h = f layer by layer, each residue
    f_(k+m) - sum h_i g_(k+m-i) a dict double loop: the oracle for the
    packed convolution in exact_divide.  Raises NonDivisible where
    exact_divide must."""
    trunc = min(f.truncation, g.truncation)
    f_layers, g_layers = ([{r2: c for (n, r2), c in src._terms.items() if n == k}
                           for k in range(trunc)] for src in (f, g))
    m = min((n for n, _ in g._terms), default=trunc)
    if m >= trunc or any(f_layers[:m]):
        raise NonDivisible("no quotient")
    h_layers = []
    for k in range(trunc - m):
        residue = dict(f_layers[k + m])
        for i, h_i in enumerate(h_layers):
            for e1, c1 in h_i.items():
                for e2, c2 in g_layers[k + m - i].items():
                    v = residue.get(e1 + e2, 0) - c1 * c2
                    if v:
                        residue[e1 + e2] = v
                    else:
                        residue.pop(e1 + e2, None)
        h_k = _dict_laurent_div(residue, g_layers[m]) if residue else {}
        if h_k is None:
            raise NonDivisible("remainder in layer %d" % k)
        h_layers.append(h_k)
    terms = {(k, e): c for k, h_k in enumerate(h_layers) for e, c in h_k.items()}
    return QYSeries(terms, trunc - m, (f.parity - g.parity) % 2)


def _assert_same_product(f, g):
    want = dict_product(f, g)
    for got in (f * g, g * f):
        assert got == want
        assert got.truncation == want.truncation
        assert got.parity == want.parity


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
            operands.append(make_series(entries, t, parity=p))
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
                                     for d in range(length)], trunc, parity=pa)
                    for sign in (1, -1):
                        b = make_series([(n, 2 * d - pb, sign * m)
                                         for n in b_orders
                                         for d in range(length)],
                                        trunc, parity=pb)
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
    got = exact_divide(f, g)
    assert got == want
    assert (got.truncation, got.parity) == (want.truncation, want.parity)
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
        g = make_series(lead + rest, t, parity=pg)
        jump = rng.randrange(t + 1)
        h = make_series([(n, 2 * rng.randrange(-5, 6) + ph,
                          rng.randrange(-3, 4) * (10 ** 30 if n >= jump else 1))
                         for n in (rng.randrange(t) for _ in range(rng.randrange(12)))],
                        t, parity=ph)
        f = (g * h).truncate(rng.randrange(1, t + 1) if rng.randrange(4) == 0 else t)
        if rng.randrange(3) == 0:
            f = f + QYSeries.monomial(rng.choice((1, -1)) * rng.randrange(1, 5),
                                      rng.randrange(f.truncation),
                                      2 * rng.randrange(-6, 7) + (pg + ph) % 2,
                                      f.truncation)
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
        zero = QYSeries.zero(t, p)
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
        pin = QYSeries.monomial(rng.choice((1, -1, 2, -2)),
                                rng.randrange(t),
                                2 * rng.randrange(-2, 3) + pg, t)
        g = g + pin
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
        assert i1 == ring.monomial_index(m1)
        s12, i12 = ring.eval_series(x1 * x2, t)
        assert s12 == s1 * s2
        assert i12 == i1 + i2
        done += 1
    return done


def bareiss_determinant(mat):
    """Bareiss fraction-free determinant of a square integer matrix: the
    oracle for the sparse Euclidean elimination in lattice.determinant."""
    n = len(mat)
    if n == 0:
        return 1
    M = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def determinant_matches_bareiss(cases=1000, seed=20260825):
    # sizes 0 to 6, sparse to dense, small to wide entries, so most
    # pivots are not units; one case in five has a row that is a
    # multiple of another, so it is singular
    rng = random.Random(seed)
    done = 0
    for _ in range(cases):
        n = rng.randrange(7)
        density = rng.random()
        mag = rng.choice((1, 9, 10 ** 6))
        mat = [[rng.randrange(-mag, mag + 1) if rng.random() < density else 0
                for _ in range(n)] for _ in range(n)]
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


def snf_postconditions(cases=1000, seed=20260821):
    rng = random.Random(seed)
    done = 0
    for _ in range(cases):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        mat = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
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
        done += 1
    return done


def normalize(page, terms):
    """Canonical page element from (coeff, {name: exp}) terms: the page
    arithmetic over Z that the F2 d3 columns are tested against.

    Applies square rewrites, kills h1-torsion products with the
    annihilated generators, and reduces h1-sector coefficients mod 2.
    """
    acc = {}
    stack = [(c, dict(m)) for c, m in terms]
    while stack:
        c, m = stack.pop()
        if not c:
            continue
        over = None
        for name, e in m.items():
            if e >= 2 and name in page.spec.rewrite_rules:
                over = name
                break
        if over is not None:
            rule = page.spec.rewrite_rules[over]
            base = dict(m)
            base[over] -= 2
            if base[over] == 0:
                del base[over]
            for rc, rm in rule:
                nm = dict(base)
                for n2, e2 in rm.items():
                    nm[n2] = nm.get(n2, 0) + e2
                stack.append((c * rc, nm))
            continue
        torsion = m.get("h1")
        if torsion:
            if any(m.get(k) for k in page.spec.torsion_killers):
                continue
            c %= 2
            if not c:
                continue
        key = page.key(m)
        acc[key] = acc.get(key, 0) + c
        if torsion:
            acc[key] %= 2
        if acc[key] == 0:
            del acc[key]
    return acc


def d3_monomial(page, key):
    """Signed Leibniz extension of the generator rule to a monomial, over
    Z through normalize: the oracle for BigradedPage.d3_columns."""
    out = []
    prefix_degree = 0
    for name, e in key:
        w = page._degree[name]
        rule = page.spec.d3.get(name)
        if rule:
            # sum of (-1)^(j w) over which copy j < e is differentiated
            inner = e if w % 2 == 0 else e % 2
            sign = (-1) ** prefix_degree
            rest = dict(key)
            rest[name] = e - 1
            for rc, rm in rule:
                m = {k: v for k, v in rest.items() if v}
                for n2, e2 in rm.items():
                    m[n2] = m.get(n2, 0) + e2
                out.append((sign * inner * rc, m))
        prefix_degree += w * e
    return normalize(page, out)


def d3_element(page, x):
    """d3 of the page element x, a {mono_key: coeff} map, with integer
    coefficients: the oracle that the F2 columns of
    BigradedPage.d3_matrix and the surjectivity check are tested
    against."""
    acc = {}
    for key, c in x.items():
        for k2, c2 in d3_monomial(page, key).items():
            acc[k2] = acc.get(k2, 0) + c * c2
            if not acc[k2]:
                del acc[k2]
    return normalize(page, [(c, dict(k)) for k, c in acc.items()])


def multiply(page, x, y):
    """Product of page elements given as {mono_key: coeff} maps, through
    the page's normalize: the page product that the signed-Leibniz suite
    and the surjectivity oracle use."""
    terms = []
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            m = dict(k1)
            for n2, e2 in k2:
                m[n2] = m.get(n2, 0) + e2
            terms.append((c1 * c2, m))
    return normalize(page, terms)


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
