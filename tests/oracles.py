"""The slow paths kept as test oracles, in one module.

Each function is a plainer or older way to compute what a function of
`src/jfl` computes, and its docstring names that function.  The test
modules, `property_suites` and the CI workflow import the oracles from
here; none of them imports from a test module.
"""

from functools import lru_cache

from jfl import generators, ring, spectral
from jfl.lattice import (FPAbelianGroup, hermite_normal_form,
                         identity_matrix, invariant_factors, kernel_basis,
                         snf_diagonal, solve_column_combination, transpose)
from jfl.ring import IMAGE_GENERATORS, JFElement, degree_basis, eval_series
from jfl.series import NonDivisible, QYSeries, exact_divide, make_series
from jfl.spectral import NotAComplex, preimage_lattice, tjf_page


# -- series ------------------------------------------------------------

def dict_product(f, g):
    """The product as a double loop over the terms: the oracle for the
    packed q-layer product in series.QYSeries.__mul__."""
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
    return QYSeries(out, trunc)


def dict_laurent_div(num, den):
    """Laurent division by descending degree over dicts, shifted to
    ordinary polynomials and back; None if it leaves a remainder.  The
    per-layer division of dict_exact_divide, so of series.exact_divide."""
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
    packed convolution in series.exact_divide.  Raises NonDivisible
    where exact_divide must."""
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
        h_k = dict_laurent_div(residue, g_layers[m]) if residue else {}
        if h_k is None:
            raise NonDivisible("remainder in layer %d" % k)
        h_layers.append(h_k)
    terms = {(k, e): c for k, h_k in enumerate(h_layers) for e, c in h_k.items()}
    return QYSeries(terms, trunc - m)


# -- generators --------------------------------------------------------

def divisor_power_sum(n, k):
    """sigma_k(n) by trial division up to sqrt(n): the oracle for the
    divisor sieve in generators.eisenstein_c4 and eisenstein_c6."""
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** k
            e = n // d
            if e != d:
                total += e ** k
        d += 1
    return total


def q_product(N, factors):
    """prod (1 + s q^n y^(r2/2)) over the (n, r2, s) factors, to q^N: the
    product formulas that the lacunary sums of generators._eta_cubed,
    _theta_block and _xi_square_parts replaced."""
    acc = QYSeries.one(N)
    for n, r2, s in factors:
        acc = acc * make_series([(0, 0, 1), (n, r2, s)], N)
    return acc


def theta_block_oracle(k, N):
    """(y^{k/2} - y^{-k/2}) prod (1-q^n)(1-q^n y^k)(1-q^n y^{-k}): the
    oracle for generators._theta_block."""
    return make_series([(0, k, 1), (0, -k, -1)], N) * q_product(
        N, [(n, r2, -1) for n in range(1, N) for r2 in (0, 2 * k, -2 * k)])


def xi_square_oracle(M, orders, sign, front):
    """front * (prod (1 + sign Q^j y^{+-1}) / prod (1 + sign Q^j)^2)^2:
    one part of generators._xi_square_parts as a product formula."""
    num = q_product(M, [(j, r2, sign) for j in orders for r2 in (2, -2)])
    den = q_product(M, [(j, 0, sign) for j in orders])
    return front * exact_divide(num * num, den ** 4)


def xi_square_parts_oracle(N):
    """(E, O, C) on the doubled grid (Q^2 = q), the three-part build that
    generators._xi_square_parts replaced: E and O the even and odd
    Q-orders of A = 4 xi_00^2, so B = A(-Q) = E - O, and C = 4 xi_10^2
    from theta_10 on the doubled grid too."""
    M = 2 * N
    A = generators._xi_square(generators._theta_sum(M, 0, generators._one,
                                                    doubled=True))
    halves = ({}, {})
    for (n, r2), c in A._terms.items():
        halves[n % 2][(n, r2)] = c
    return (QYSeries(halves[0], M), QYSeries(halves[1], M),
            generators._xi_square(generators._theta_sum(M, 1, generators._one,
                                                        doubled=True)))


def fold_doubled_q(f):
    """Map Q^(2n) -> q^n after checking that no odd Q-order is left."""
    if f.truncation % 2 or any(n % 2 for n, _ in f._terms):
        raise ValueError("not a series in Q^2")
    return QYSeries({(n // 2, r2): c for (n, r2), c in f._terms.items()},
                    f.truncation // 2)


def b2_b4_oracle(N):
    """(b2, b4) to q^N from xi_square_parts_oracle, as generators.gen_b2 and
    gen_b4 built them: b2 = A + B + C = 2E + C, and b4 = (AB + BC + CA)/8
    = (E^2 - O^2 + 2EC)/8, three series products, folded."""
    E, O, C = xi_square_parts_oracle(N)
    return (fold_doubled_q(E.scale(2) + C),
            fold_doubled_q((E * E - O * O + (E * C).scale(2)).divide_exact(8)))


# -- lattice -----------------------------------------------------------

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


# -- ring --------------------------------------------------------------

def from_coords(vec, d):
    """The degree-d element with coordinates vec in degree_basis(d): the
    inverse of ring.element_coords."""
    return JFElement({m: c for m, c in zip(degree_basis(d), vec) if c})


def normal_form_oracle(poly):
    """poly, a map (b2, b3, b4, b8) exponents -> coefficient, reduced by
    rewriting b4^2 -> b2 b3^2 - 4 b8 one square at a time on a stack, so
    b4^(2k) fans out into 2^k leaves: the oracle for the binomial
    expansion in ring._accumulate_reduced, behind ring.normal_form."""
    acc = {}
    stack = list(poly.items())
    while stack:
        (a, b, e, g), c = stack.pop()
        if e <= 1:
            v = acc.get((a, b, e, g), 0) + c
            if v:
                acc[(a, b, e, g)] = v
            else:
                acc.pop((a, b, e, g), None)
        else:
            stack.append(((a + 1, b + 2, e - 2, g), c))
            stack.append(((a, b, e - 2, g + 1), -4 * c))
    return JFElement(acc)


@lru_cache(maxsize=None)
def image_lattice_oracle(d):
    """HNF rows spanning the degree-d piece of the subring generated by
    the seven image generators, in degree_basis(d) coordinates: the HNF
    of all generator products, the oracle for the certified diagonal of
    ring.image_basis."""
    if d == 0:
        return ([1],)
    basis = degree_basis(d)
    if not basis:
        return ()
    index = {m: i for i, m in enumerate(basis)}
    rows = []
    for gen in IMAGE_GENERATORS:
        dg = gen.degree()
        if dg > d:
            continue
        for sub_row in image_lattice_oracle(d - dg):
            elem = gen * from_coords(sub_row, d - dg)
            vec = [0] * len(basis)
            for m, c in elem.coeffs.items():
                vec[index[m]] = c
            rows.append(vec)
    return tuple(tuple(r) for r in hermite_normal_form(rows, len(basis)))


# -- the ring as weak Jacobi forms -------------------------------------

def modular_form_dimension(k):
    """dim M_k of the level-one modular forms of weight k."""
    if k < 0 or k % 2 or k == 2:
        return 0
    return k // 12 + (0 if k % 12 == 2 else 1)


def weak_jacobi_count(d):
    """The Eichler-Zagier dimension of the weight-0 weak Jacobi forms of
    index d/4: sum of dim M_2j over j <= d/4 when 4 | d, and the count at
    d - 6 when d = 2 mod 4, since a form of half-integral index is
    phi_(0,3/2), of degree 6, times one of integral index.  The oracle
    for len(ring.degree_basis(d))."""
    if d < 0 or d % 2:
        return 0
    if d % 4:
        return weak_jacobi_count(d - 6)
    return sum(modular_form_dimension(2 * j) for j in range(d // 4 + 1))


def jacobi_bound(d):
    """floor(m/6) + 1 q-orders for index m = d/4: a weight-0 weak form of
    index m that vanishes to that order is 0 (Eichler-Zagier, section 9)."""
    return d // 24 + 1


def weak_jacobi_smith_form(d, truncation):
    """The Smith diagonal of the coefficient matrix of the q-expansions
    (ring.eval_series) of degree_basis(d) to q^truncation, one row per
    monomial.  [1] * len(degree_basis(d)) says the expansions are
    independent and span a saturated lattice: an integral form in their
    rational span is an integral combination of them."""
    rows = [eval_series({m: 1}, truncation)[0]._terms for m in degree_basis(d)]
    columns = sorted(set().union(*rows))
    return snf_diagonal([[row.get(c, 0) for c in columns] for row in rows])


# -- page arithmetic over Z --------------------------------------------

def normalize(page, terms):
    """Canonical page element from (coeff, {name: exp}) terms: the page
    arithmetic over Z that the F2 columns of
    spectral.BigradedPage.d3_matrix are tested against.

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
    Z through normalize: the oracle for spectral.BigradedPage.d3_matrix."""
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
    spectral.BigradedPage.d3_matrix and spectral.surjectivity_check are
    tested against."""
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
    and surjectivity_check_oracle use in place of the ring products of
    spectral.surjectivity_check."""
    terms = []
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            m = dict(k1)
            for n2, e2 in k2:
                m[n2] = m.get(n2, 0) + e2
            terms.append((c1 * c2, m))
    return normalize(page, terms)


# -- page bases and homology -------------------------------------------

def enumerate_oracle(page, names, d):
    """The exponent dicts of degree d over the generators names, by the
    recursion that the memoized spectral.BigradedPage._enumerate
    replaced."""
    if d == 0:
        return [{}]
    if d < 0 or not names:
        return []
    name, rest = names[0], names[1:]
    w = page._degree[name]
    cap = 1 if name in page.spec.rewrite_rules else d // w
    out = []
    for e in range(min(cap, d // w) + 1):
        for tail in enumerate_oracle(page, rest, d - e * w):
            if e:
                tail = dict(tail)
                tail[name] = e
            out.append(tail)
    return out


def basis_oracle(page, d, s):
    """spectral.BigradedPage.basis(d, s) from enumerate_oracle, sorted
    into the basis order."""
    if s == 0:
        exps = enumerate_oracle(page, page.free_names, d)
    else:
        exps = [dict(e, h1=s) for e in
                enumerate_oracle(page, page.survivor_names, d - s)]
    names = ["h1"] + [g.name for g in page.spec.generators]
    # basis order: exponents descending, generator by generator
    exps.sort(key=lambda x: [-x.get(n, 0) for n in names])
    return tuple(tuple((n, x[n]) for n in names if x.get(n)) for x in exps)


def homology_at_oracle(page, d, s):
    """spectral.homology_at before the page kept its kernel lattices: K
    and the rows 2e_i built afresh at every bidegree, and every relation
    solved in K coordinates by one Smith form.  The incoming relations
    are their definition, d3 from (d + 1, s - 3): at s = 3 every column
    of the dense free-sector matrix."""
    if s == 0:
        return FPAbelianGroup(page.free_count(d))
    m = len(page.basis(d, s))
    if m == 0:
        return FPAbelianGroup(0)
    d_out = page.d3_matrix(d, s)
    relations = [[2 if i == j else 0 for j in range(m)] for i in range(m)]
    if s >= 3:
        incoming = dict.fromkeys(page.d3_matrix(d + 1, s - 3))
        incoming.pop(0, None)
        if any(spectral._mod2_product(d_out, incoming)):
            raise NotAComplex("d3 o d3 is nonzero from (%d, %d)"
                              % (d + 1, s - 3))
        relations += [[(col >> i) & 1 for i in range(m)] for col in incoming]
    kbasis = preimage_lattice(d_out)
    rows = solve_column_combination(transpose(kbasis), relations)
    if any(y is None for y in rows):
        raise NotAComplex("image vector falls outside the kernel lattice")
    return FPAbelianGroup.from_presentation(len(kbasis), rows)


def homotopy_groups_oracle(page, max_degree):
    """spectral.homotopy_groups before it shared torsion sectors and
    kernel lattices and counted its Z/2s: homology_at_oracle summed at
    every bidegree, the torsion merged by invariant_factors."""
    out = {}
    for n in range(max_degree + 1):
        rank, torsion = 0, []
        for s in range(n + 1):
            h = homology_at_oracle(page, n, s)
            rank += h.rank
            torsion.extend(h.torsion)
        out[n] = FPAbelianGroup(rank, invariant_factors(torsion))
    return out


def homotopy_groups_spec_oracle(page, max_degree):
    """spectral.homotopy_groups read from the page's spec alone, with no
    code that homotopy_groups runs: bases from basis_oracle, d3 columns
    from d3_monomial mod 2, their F2 product by its own loop, and the
    kernel lattice {x : d3 x = 0 mod 2} as the kernel of [d3 | 2I]
    (lattice.kernel_basis), cut to x and put in Hermite form.  No
    BigradedPage.basis, d3_matrix or free_count and no spectral helper,
    so a wrong cached basis, d3 matrix or knapsack shows as a difference.
    H(n, s) at every bidegree, nothing shared across sectors."""
    bases, columns = {}, {}

    def basis(d, s):
        if (d, s) not in bases:
            bases[d, s] = basis_oracle(page, d, s)
        return bases[d, s]

    def d3(d, s):
        # bit i of a column is the coefficient of target monomial i mod 2
        if (d, s) not in columns:
            index = {m: i for i, m in enumerate(basis(d - 1, s + 3))}
            columns[d, s] = [sum(1 << index[k] for k, c in
                                 d3_monomial(page, key).items() if c % 2)
                             for key in basis(d, s)]
        return columns[d, s]

    def homology(d, s):
        m = len(basis(d, s))
        if s == 0 or m == 0:
            return FPAbelianGroup(m)
        d_out = d3(d, s)
        relations = [[2 if i == j else 0 for j in range(m)] for i in range(m)]
        for col in d3(d + 1, s - 3) if s >= 3 else ():
            image = 0
            for i in range(m):
                if col >> i & 1:
                    image ^= d_out[i]
            if image:
                raise NotAComplex("d3 o d3 is nonzero from (%d, %d)"
                                  % (d + 1, s - 3))
            relations.append([col >> i & 1 for i in range(m)])
        rows = max(d_out).bit_length()
        if rows:
            augmented = [[c >> i & 1 for c in d_out]
                         + [2 if i == j else 0 for j in range(rows)]
                         for i in range(rows)]
            kbasis = hermite_normal_form(
                [v[:m] for v in kernel_basis(augmented, ncols=m + rows)], m)
        else:
            kbasis = identity_matrix(m)
        coords = solve_column_combination(transpose(kbasis), relations)
        if any(y is None for y in coords):
            raise NotAComplex("image vector falls outside the kernel lattice")
        return FPAbelianGroup.from_presentation(m, coords)

    out = {}
    for n in range(max_degree + 1):
        groups = [homology(n, s) for s in range(n + 1)]
        out[n] = FPAbelianGroup(sum(h.rank for h in groups), invariant_factors(
            [t for h in groups for t in h.torsion]))
    return out


def spec_torsion_count(spec):
    """The number of Z/2 summands of homotopy in each degree n through
    spec.max_degree, read from the spec alone: even(n - 1) + even(n - 2),
    where even(k) counts the h1-survivor monomials of degree k with an
    even exponent of g0, the one generator with a d3 rule.  Mod 2, d3 is
    h1^3 times the derivative in g0, which pairs the odd-g0 survivors
    with the even ones four degrees lower, so H(n, s) is (Z/2)^even(n - s)
    for s = 1, 2 and 0 for s >= 3.  even is one knapsack over the
    survivors with g0 replaced by g0^2; the count holds on pages where
    d3 g0 = h1^3 is the only rule and no survivor is capped."""
    g0, = spec.d3
    killed = spec.torsion_killers
    if spec.d3[g0] != ((1, {"h1": 3}),) or any(
            g.name in spec.rewrite_rules for g in spec.generators
            if g.name not in killed):
        raise ValueError("the page is not of the counted shape")
    even = [1] + [0] * spec.max_degree
    for g in spec.generators:
        if g.name not in killed:
            w = 2 * g.degree if g.name == g0 else g.degree
            for n in range(w, len(even)):
                even[n] += even[n - w]
    return [sum(even[k] for k in (n - 1, n - 2) if k >= 0)
            for n in range(len(even))]


def spec_count(page):
    """spectral.homotopy_groups(page) as counts: {n: (rank, number of
    Z/2)}, the rank the free count Z^free_count(n) of filtration 0 and
    the torsion spec_torsion_count.  No basis, d3 column or lattice."""
    return {n: (page.free_count(n), z2)
            for n, z2 in enumerate(spec_torsion_count(page.spec))}


# -- surjectivity ------------------------------------------------------

def bidegree_failure(sub, target, phi, d, s):
    """The per-monomial check that spectral.surjectivity_check replaced:
    why phi_N fails on (d, s), where both bases share a nonzero size, or
    None.  The matrix over target.basis(d, s) needs determinant +-1
    (free) or odd (torsion), and d3 phi(m) = phi(d3 m) for each m."""
    src = sub.basis(d, s)
    index = {m: i for i, m in enumerate(target.basis(d, s))}
    images = [phi({m: 1}) for m in src]
    matrix = [[0] * len(src) for _ in index]
    for j, image in enumerate(images):
        for key, c in image.items():
            matrix[index[key]][j] = c
    det = bareiss_determinant(matrix)
    if s == 0 and det not in (1, -1):
        return "free-sector determinant %d" % det
    if s and det % 2 == 0:
        return "torsion-sector map not bijective mod 2"
    if any(d3_element(target, image) != phi(d3_monomial(sub, m))
           for m, image in zip(src, images)):
        return "differential does not commute"
    return None


def page_map(target, images):
    """phi_N into target-page elements through page arithmetic,
    independent of the ring products (spectral._ring_images) that
    spectral.surjectivity_check uses: a monomial goes to the target
    page's product of its factors' images, and its one normalize serves
    every sector.  A free monomial's image is built once, from the one
    with one factor fewer; h1^s m goes to h1^s times the image of m."""
    page_key = spectral._page_key()
    gens = {name: {page_key(m): c for m, c in x.coeffs.items()}
            for name, x in images.items()}
    free = {(): {(): 1}}

    def free_image(key):
        if key not in free:
            name, e = key[-1]
            rest = key[:-1] + (((name, e - 1),) if e > 1 else ())
            free[key] = multiply(target, free_image(rest), gens[name])
        return free[key]

    def phi(x):
        terms = []
        for key, c in x.items():
            s = key[0][1] if key and key[0][0] == "h1" else 0
            terms.extend((c * c2, dict(k, h1=s))
                         for k, c2 in free_image(key[1:] if s else key).items())
        return normalize(target, terms)

    return phi


def surjectivity_check_oracle(n_param, max_degree, page_map=page_map):
    """spectral.surjectivity_check as it was: every bidegree on its own,
    through bidegree_failure, with phi_N from page_map."""
    sub = spectral.msu_sub_page(max_degree)
    target = tjf_page(max_degree)
    phi = page_map(target, spectral._substitution_images(n_param))
    rules = [(2 * g.degree, g.name, sub.spec.rewrite_rules[g.name])
             for g in sub.spec.generators if g.name in sub.spec.rewrite_rules]
    checked, failure = 0, None
    for d, s in ((d, s) for d in range(max_degree + 1) for s in range(d + 1)):
        src, dst = sub.basis(d, s), target.basis(d, s)
        broken = [name for rd, name, rule in rules if (rd, 0) == (d, s)
                  and phi({((name, 2),): 1})
                  != phi({sub.key(m): c for c, m in rule})]
        if broken:
            reason = "substitution breaks the rewrite rule of " + ", ".join(broken)
        elif len(src) != len(dst):
            reason = "basis sizes %d vs %d" % (len(src), len(dst))
        elif not src:
            continue
        else:
            checked += 1
            reason = bidegree_failure(sub, target, phi, d, s)
        if reason:
            failure = {"degree": d, "filtration": s, "reason": reason}
            break
    return {"status": "mismatch" if failure else "ok",
            "n_param": n_param,
            "max_degree": max_degree,
            "bidegrees_checked": checked,
            "first_failure": failure}


def crooked_images(n_param):
    """A wrong substitution (B4 to -2 b4, C8 to -b8) in place of
    spectral._substitution_images: phi_0 fails at (8, 0), so
    spectral.surjectivity_check and its oracle must report a mismatch."""
    return {"B2": ring.B2, "B3": ring.B3,
            "B4": ring.B4.scale(-2), "C8": -ring.B8}


# -- the classical msu groups ------------------------------------------

_PARTITIONS = [1]


def partition_count(k):
    """p(k) by Euler's pentagonal number theorem; p(k) = 0 for k < 0.
    p(n) is the sum over j >= 1 of (-1)^(j + 1) (p(n - j(3j - 1)/2) +
    p(n - j(3j + 1)/2)), about 2 sqrt(2n/3) terms.  The counts behind
    msu_group.  One table serves every call and grows to k on demand."""
    if k < 0:
        return 0
    p = _PARTITIONS
    for n in range(len(p), k + 1):
        total, j, pent = 0, 1, 1
        while pent <= n:
            term = p[n - pent] + (p[n - pent - j] if pent + j <= n else 0)
            total += term if j % 2 else -term
            j += 1
            pent = j * (3 * j - 1) // 2
        p.append(total)
    return p[k]


def msu_group(n):
    """pi_n MSU as (rank, number of Z/2 summands), by the classical closed
    form (Conner-Floyd 1966; Stong 1968, ch. X): rank p(m) - p(m - 1), the
    partitions of m without ones, in degree 2m, and (Z/2)^p(k) in degrees
    8k + 1 and 8k + 2, no torsion elsewhere.  The oracle for
    spectral.homotopy_groups(msu_page(D)) and msu_page(D).free_count."""
    rank = 0 if n % 2 else partition_count(n // 2) - partition_count(n // 2 - 1)
    return rank, partition_count(n // 8) if n % 8 in (1, 2) else 0
