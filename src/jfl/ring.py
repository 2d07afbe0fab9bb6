"""The graded ring Z[b2,b3,b4,b8]/(4b8 + b4^2 - b2b3^2).

Elements are kept in a normal form where the relation has been used to
eliminate every square of b4: monomials are (alpha, beta, epsilon,
gamma) for b2^alpha b3^beta b4^epsilon b8^gamma with epsilon <= 1.
These monomials are a free Z-basis, so equality is literal dictionary
equality.  Degrees: |b2| = 4, |b3| = 6, |b4| = 8, |b8| = 16.

The second half of the module holds the image lattice: the degree-d
piece of the subring generated by 2b2, b3, b4, b2^2, b2b3, b2b4, b8.
It is diagonal in the monomial basis, 2 at each b2^(2m+1) b8^n and 1
elsewhere, and each degree certifies that diagonal by induction from
the lower ones.  Membership tests and the cokernel, a Z/2 for each
b2^(2m+1) b8^n, read off the diagonal.

The series and lattice modules are imported by the functions that use
them, so ring arithmetic and the certificate load neither.
"""

from functools import lru_cache
from math import comb
from operator import index

GENERATOR_NAMES = ("b2", "b3", "b4", "b8")


class Inhomogeneous(ValueError):
    """Raised when an operation needs a single-degree element."""


def monomial_degree(mono):
    a, b, e, g = mono
    return 4 * a + 6 * b + 8 * e + 16 * g


class JFElement:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        # internal: coeffs must already be in normal form with no zeros
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("JFElement is immutable")

    def is_zero(self):
        return not self.coeffs

    def items(self):
        return sorted(self.coeffs.items())

    def degrees(self):
        return sorted({monomial_degree(m) for m in self.coeffs})

    def degree(self):
        ds = self.degrees()
        if not ds:
            return 0
        if len(ds) > 1:
            raise Inhomogeneous("element mixes degrees %s" % (ds,))
        return ds[0]

    def __eq__(self, other):
        if not isinstance(other, JFElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __neg__(self):
        return JFElement({m: -c for m, c in self.coeffs.items()})

    def __add__(self, other):
        if not isinstance(other, JFElement):
            return NotImplemented
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            _accumulate_reduced(out, m, c)
        return JFElement(out)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        try:
            k = index(k)
        except TypeError:
            raise ValueError("factor %r is not an integer" % (k,)) from None
        if k == 0:
            return JFElement({})
        return JFElement({m: k * c for m, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, JFElement):
            return NotImplemented
        acc = {}
        for (a1, b1, e1, g1), c1 in self.coeffs.items():
            for (a2, b2, e2, g2), c2 in other.coeffs.items():
                _accumulate_reduced(acc, (a1 + a2, b1 + b2, e1 + e2, g1 + g2),
                                    c1 * c2)
        return JFElement(acc)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __repr__(self):
        return "JFElement(%s)" % render_element_text(self)


def _accumulate_reduced(acc, mono, coeff):
    # b4^(2k+r) = (b2 b3^2 - 4 b8)^k b4^r, expanded by the binomial theorem
    a, b, e, g = mono
    if e > 1:
        k, r = divmod(e, 2)
        for j in range(k + 1):
            _accumulate_reduced(acc, (a + k - j, b + 2 * (k - j), r, g + j),
                                comb(k, j) * (-4) ** j * coeff)
        return
    v = acc.get(mono, 0) + coeff
    if v:
        acc[mono] = v
    else:
        acc.pop(mono, None)


def normal_form(p):
    """Normalize a polynomial in b2, b3, b4, b8 (b4-exponents unrestricted).

    Accepts a JFElement or a map monomial -> coeff, where a monomial is
    a 4-tuple of nonnegative exponents (b2, b3, b4, b8); exponents and
    coefficients must be ints (ValueError otherwise).
    """
    if isinstance(p, JFElement):
        return p
    acc = {}
    for mono, coeff in p.items():
        try:
            a, b, e, g, coeff = map(index, (*mono, coeff))
        except TypeError:
            raise ValueError("%r: %r is not an integer term" % (mono, coeff)) from None
        if min(a, b, e, g) < 0:
            raise ValueError("negative exponent in %r" % (mono,))
        _accumulate_reduced(acc, (a, b, e, g), coeff)
    return JFElement(acc)


ONE = JFElement({(0, 0, 0, 0): 1})
B2 = JFElement({(1, 0, 0, 0): 1})
B3 = JFElement({(0, 1, 0, 0): 1})
B4 = JFElement({(0, 0, 1, 0): 1})
B8 = JFElement({(0, 0, 0, 1): 1})


@lru_cache(maxsize=None)
def degree_basis(d):
    """Normal-form monomials of degree d, descending lexicographic."""
    if d < 0 or d % 2:
        return ()
    out = []
    for g in range(d // 16 + 1):
        for e in (0, 1):
            rest = d - 16 * g - 8 * e
            if rest < 0:
                continue
            for b in range(rest // 6 + 1):
                r = rest - 6 * b
                if r % 4 == 0:
                    out.append((r // 4, b, e, g))
    out.sort(reverse=True)
    return tuple(out)


def element_coords(x, d):
    """Coordinates of a degree-d element in degree_basis(d)."""
    basis = degree_basis(d)
    index = {m: i for i, m in enumerate(basis)}
    vec = [0] * len(basis)
    for m, c in x.coeffs.items():
        if monomial_degree(m) != d:
            raise Inhomogeneous("monomial %r is not of degree %d" % (m, d))
        vec[index[m]] = c
    return vec


# -- evaluation to series ---------------------------------------------

def eval_series(x, truncation):
    """Realize an element as a q-expansion.

    Returns (series, index) where index is degree / 2, the index
    subscript of b2, b3, b4, b8 being 2, 3, 4, 8.  A homogeneous element
    needs no padding; mixed-degree input is lifted to the maximal index
    with the calibrated stabilizer powers.
    """
    from .generators import generator_table, stabilizer_power
    from .series import QYSeries
    x = normal_form(x)
    t = generator_table(truncation)
    if x.is_zero():
        return QYSeries.zero(truncation), 0
    indices = {m: monomial_degree(m) // 2 for m in x.coeffs}
    top = max(indices.values())
    acc = QYSeries.zero(truncation)
    for m, c in x.items():
        a, b, e, g = m
        s = t.b2 ** a * t.b3 ** b * t.b4 ** e * t.b8 ** g
        gap = top - indices[m]
        if gap:
            s = s * stabilizer_power(t.a, gap)
        acc = acc + s.scale(c)
    return acc, top


# -- the image lattice and its cokernel --------------------------------

IMAGE_GENERATORS = (
    B2.scale(2),
    B3,
    B4,
    B2 * B2,
    B2 * B3,
    B2 * B4,
    B8,
)


@lru_cache(maxsize=None)
def _image_lattice(d):
    """Diagonal of the HNF basis of the image lattice in degree d, in
    degree_basis(d) coordinates: 2 at each b2^(2m+1) b8^n, 1 elsewhere.

    Certified by induction on d.  Each generator times each row of a
    lower degree must lie in this lattice, that is, be even at the
    doubled monomials; and each row here must be, up to sign, one of
    those products (or the unit, in degree 0).  Either failure raises
    ArithmeticError naming the degree.  Generators and rows are single
    monomials, so the certificate works on (monomial, coefficient)
    pairs: a product is reduced into a small dict, and only the
    single-term products, kept as (monomial, |coefficient|), can match
    a row.
    """
    basis = degree_basis(d)
    doubled = set(cokernel_representatives(d))
    products = {((0, 0, 0, 0), 1)}
    for gen in IMAGE_GENERATORS:
        ((a1, b1, e1, g1), c1), = gen.coeffs.items()
        low = d - monomial_degree((a1, b1, e1, g1))
        if low < 0:
            continue
        for (a2, b2, e2, g2), c2 in zip(degree_basis(low), _image_lattice(low)):
            p = {}
            _accumulate_reduced(p, (a1 + a2, b1 + b2, e1 + e2, g1 + g2),
                                c1 * c2)
            if any(v % 2 for k, v in p.items() if k in doubled):
                raise ArithmeticError(
                    "image lattice fails in degree %d: %s is odd at a "
                    "b2^(2m+1) b8^n" % (d, render_element_text(JFElement(p))))
            if len(p) == 1:
                (m, c), = p.items()
                products.add((m, abs(c)))
    diag = tuple(2 if m in doubled else 1 for m in basis)
    for m, c in zip(basis, diag):
        if (m, c) not in products:
            raise ArithmeticError(
                "image lattice fails in degree %d: %s is no generator times "
                "a lower row" % (d, render_element_text(JFElement({m: c}))))
    return diag


def image_basis(d):
    """Lattice basis (HNF rows) of the image in degree d: the rows of
    the certified diagonal."""
    diag = _image_lattice(d)
    return [[c if i == j else 0 for j in range(len(diag))]
            for i, c in enumerate(diag)]


def in_image(x):
    """Is the element in the subring generated by the seven generators?"""
    from .lattice import in_row_span
    x = normal_form(x)
    if x.is_zero():
        return True
    d = x.degree()  # raises Inhomogeneous on mixed degrees
    return in_row_span(image_basis(d), element_coords(x, d))


def cokernel(d):
    """Z^basis(d) modulo the image lattice: a Z/2 for each 2 on the
    certified diagonal."""
    from .lattice import FPAbelianGroup
    return FPAbelianGroup(0, (2,) * _image_lattice(d).count(2))


def cokernel_representatives(d):
    """The monomials b2^(2m+1) b8^n of degree d, descending lex."""
    return [m for m in degree_basis(d) if m[0] % 2 and m[1] == m[2] == 0]


def expected_torsion_rank(d):
    """The number of b2^(2m+1) b8^n in degree d, in closed form: 8m + 4 +
    16n = d has (d - 4) // 16 + 1 solutions when d = 4 mod 8, none else."""
    return (d - 4) // 16 + 1 if d > 0 and d % 8 == 4 else 0


# -- rendering ---------------------------------------------------------

def _monomial_factors(mono):
    out = []
    for name, e in zip(GENERATOR_NAMES, mono):
        if e == 1:
            out.append(name)
        elif e > 1:
            out.append("%s^%d" % (name, e))
    return out


def render_element_text(x):
    """Canonical text form, monomials in ascending lexicographic order."""
    from .series import render_signed_sum
    return render_signed_sum((_monomial_factors(m), c) for m, c in x.items())


def render_element_json(x):
    return [{"a": m[0], "b": m[1], "e": m[2], "g": m[3], "c": str(c)}
            for m, c in x.items()]
