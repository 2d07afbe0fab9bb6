"""q-expansions of the five ring generators and the classical forms.

Every theta series here is a lacunary sum.  By the Jacobi triple
product each product of N binomial factors that defines a theta
function equals a sum over n in Z with O(sqrt N) terms; `_theta_sum`
builds them all, eta^3 included.  a is a theta block over eta^3, b3 and
b8 are quotients of theta blocks, and b2 and b4 come from two normalized
theta squares: A = 4 xi_00^2, the one series on a doubled q-grid
(Q^2 = q), and C = 4 xi_10^2, built on the q grid since theta_10 has
only even Q-orders.  The third square, B = 4 xi_01^2, is never built:
theta_01(Q) = theta_00(-Q) makes A + B twice the even Q-orders of A, and
the Landen identity theta_00(z|tau) theta_01(z|tau) = theta_01(2z|2tau)
theta_01(0|2tau) makes AB = 4 A(Q -> -q, y -> y^2), a relabelling of A's
terms.  So b2 = (A + B) + C, and b4 = (AB + (A + B) C)/8 takes one
series product.

`generator_table(T)` caches one GeneratorTable per truncation, and the
table builds each generator on first access, found by its public
builder's name (`gen_a` ... `gen_b8`): `expand --gen a` builds a alone.  b2
and b4 of one truncation share the theta squares through one small
cache on `_xi_square_parts`.  The table also keeps the generator
squares and b2 b3^2, which the identity checks share.

Sign calibration: the index-raising padding used to compare a weight-k
form against ring elements is stabilizer_power(a, k) = (-1)^(k//2) a^k,
not a^k itself.  The three modular embedding identities force this: the
weight-6 identity fails by a global sign for either choice of sign of
a (a only enters through even powers there), so the padding class is
calibrated to square to MINUS a^2.  All identities below are certified
with this convention; A_SQUARE_SIGN and CALIBRATION record it for
callers of the library, and no command prints them.
"""

from functools import cached_property, lru_cache
from math import isqrt

from .series import (QYSeries, SeriesError, exact_divide, make_series)

A_SQUARE_SIGN = -1

CALIBRATION = {"a_branch": "+", "a_square_sign": A_SQUARE_SIGN}


def _one(n):
    return 1


def _alternating(n):
    return -1 if n % 2 else 1


def _theta_sum(truncation, a, coeff=_alternating, k=1, doubled=False):
    """Sum over n in Z of coeff(n) q^(n(n+a)/2) y^(k(2n+a)/2) below the
    truncation.  On the doubled grid (Q^2 = q) the order is n(n+a) in
    Q; otherwise a must be 1."""
    div = 1 if doubled else 2
    bound = isqrt(2 * truncation) + 1
    return make_series(((n * (n + a) // div, k * (2 * n + a), coeff(n))
                        for n in range(-bound, bound + 1)
                        if n * (n + a) // div < truncation), truncation)


def _theta_block(k, truncation):
    # (y^{k/2} - y^{-k/2}) prod (1-q^n)(1-q^n y^k)(1-q^n y^{-k})
    return _theta_sum(truncation, 1, k=k)


def _eta_cubed(truncation):
    # prod (1-q^n)^3 = sum_{n>=0} (-1)^n (2n+1) q^{n(n+1)/2}
    return _theta_sum(truncation, 1, lambda n: max(2 * n + 1, 0) * _alternating(n),
                      k=0)


def gen_a(truncation):
    """(y^{1/2} - y^{-1/2}) prod (1-q^n y)(1-q^n y^{-1}) (1-q^n)^{-2}."""
    return exact_divide(_theta_block(1, truncation), _eta_cubed(truncation))


def theta_quotient(k, truncation):
    """The block quotient generators: k=2 gives b3, k=3 gives b8."""
    if k not in (2, 3):
        raise ValueError("theta_quotient is defined for k in {2, 3}")
    try:
        return exact_divide(_theta_block(k, truncation), _theta_block(1, truncation))
    except SeriesError as exc:  # must divide exactly; anything else is a bug
        raise SeriesError("internal: theta block quotient failed: %s" % exc)


def gen_b3(truncation):
    return theta_quotient(2, truncation)


def gen_b8(truncation):
    return theta_quotient(3, truncation)


def _xi_square(theta):
    """4 xi^2 for xi = theta(z)/theta(0); theta(0) is theta at y = 1."""
    theta0 = make_series(((n, 0, c) for n, _, c in theta.terms()),
                         theta.truncation)
    return exact_divide((theta * theta).scale(4), theta0 * theta0)


@lru_cache(maxsize=2)
def _xi_square_parts(truncation):
    """(A + B, AB, C) on the q grid, for A, B, C = 4 xi_00^2, 4 xi_01^2,
    4 xi_10^2.  A comes from theta_00 = sum Q^(n^2) y^n on the doubled
    grid; B = A(-Q), so A + B is twice A's even Q-orders, and by the
    Landen identity the term (n, 2 r2) of AB is 4 (-1)^n times A's term
    (n, r2).  C comes from theta_10 = sum q^(n(n+1)/2) y^((2n+1)/2).
    Cached, so that b2 and b4 of one truncation share them."""
    A = _xi_square(_theta_sum(2 * truncation, 0, _one, doubled=True))
    return (QYSeries({(n // 2, r2): 2 * c for (n, r2), c in A._terms.items()
                      if n % 2 == 0}, truncation),
            QYSeries({(n, 2 * r2): -4 * c if n % 2 else 4 * c
                      for (n, r2), c in A._terms.items() if n < truncation},
                     truncation),
            _xi_square(_theta_sum(truncation, 1, _one)))


def gen_b2(truncation):
    """The weight-0 generator of degree 4, of Jacobi index 1 in y, q^0
    part y + 10 + y^{-1}: A + B + C."""
    A_plus_B, _, C = _xi_square_parts(truncation)
    return A_plus_B + C


def gen_b4(truncation):
    """The weight-0 generator of degree 8, of Jacobi index 2 in y, q^0
    part y + 4 + y^{-1}.

    The elementary symmetric combination (AB + BC + CA)/8 of the three
    normalized theta squares, with A, B, C as above, written as
    (AB + (A + B) C)/8: an exact division, and one series product.
    """
    A_plus_B, AB, C = _xi_square_parts(truncation)
    return (AB + A_plus_B * C).divide_exact(8)


class GeneratorTable:
    """The five generators to one truncation, each built on first access.

    Equality and hash follow the truncation alone, which determines
    every series.  The table finds a generator by its builder's name:
    `table.b2` calls the module global gen_b2 once and keeps the result;
    a name with no gen_* builder raises AttributeError.  The identity
    checks share the squares of the generators (`square`) and b2 b3^2
    (`b2_b3_square`).
    """

    def __init__(self, truncation):
        self.__dict__.update(truncation=truncation, _squares={})

    def __getattr__(self, name):
        build = globals().get("gen_" + name)
        if build is None:
            raise AttributeError("GeneratorTable has no generator %r" % name)
        value = self.__dict__[name] = build(self.truncation)
        return value

    def __setattr__(self, name, value):
        raise AttributeError("GeneratorTable is immutable")

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self.truncation == other.truncation if same else NotImplemented

    def __hash__(self):
        return hash((self.truncation,))

    def __repr__(self):
        return "GeneratorTable(truncation=%r)" % (self.truncation,)

    @cached_property
    def b2_b3_square(self):
        """b2 b3^2, in the relation and the delta identity."""
        return self.b2 * self.square("b3")

    def square(self, name):
        """The square of generator `name`, built once per table."""
        if name not in self._squares:
            s = getattr(self, name)
            self._squares[name] = s * s
        return self._squares[name]


generator_table = lru_cache(maxsize=16)(GeneratorTable)


def _calibrated(power, k):
    """The padding class of a^k, given a^k: its sign is (-1)^(k//2)."""
    return -power if (k // 2) % 2 else power


def stabilizer_power(a, k):
    """The index-raising padding a^k with the calibrated sign (-1)^(k//2)."""
    return _calibrated(a ** k, k)


# -- classical one-variable forms -------------------------------------

def _eisenstein(truncation, k, factor):
    """1 + factor sum sigma_(k-1)(n) q^n, sigma from one divisor sieve."""
    sigma = [0] * truncation
    for d in range(1, truncation):
        for n in range(d, truncation, d):
            sigma[n] += d ** (k - 1)
    return make_series([(0, 0, 1)] + [(n, 0, factor * sigma[n])
                                      for n in range(1, truncation)], truncation)


def eisenstein_c4(truncation):
    """1 + 240 sum sigma_3(n) q^n."""
    return _eisenstein(truncation, 4, 240)


def eisenstein_c6(truncation):
    """1 - 504 sum sigma_5(n) q^n."""
    return _eisenstein(truncation, 6, -504)


def discriminant(truncation):
    """q prod (1-q^n)^24 = q (eta^3)^8."""
    return (_eta_cubed(truncation) ** 8).shift_q(1).truncate(truncation)


def verify_discriminant_identity(truncation):
    """c4^3 - c6^2 - 1728*Delta vanishes, certifying all three expansions."""
    c4 = eisenstein_c4(truncation)
    c6 = eisenstein_c6(truncation)
    delta = discriminant(truncation)
    return (c4 ** 3 - c6 ** 2 - delta.scale(1728)).is_zero()


# -- certified identities ---------------------------------------------

def verify_relation(truncation):
    """4 b8 + b4^2 - b2 b3^2 vanishes to the given truncation."""
    t = generator_table(truncation)
    return (t.b8.scale(4) + t.square("b4") - t.b2_b3_square).is_zero()


def mf_embedding_report(truncation):
    """Per-identity results for the weight 4, 6, 12 embedding rows.

    Each power of a is built once: a^6 = a^4 a^2 and a^12 = a^6 a^6.
    The right-hand sides are grouped to need few products:
      c6     b2 (36 b4 - b2^2) - 216 b3^2
      delta  -b2^2 b8 - 27 (b3^2)^2 + b4 (9 b2 b3^2 - 8 b4^2)"""
    t = generator_table(truncation)
    b2, b4 = t.b2, t.b4
    b2_2, b3_2 = t.square("b2"), t.square("b3")
    a2 = t.a * t.a
    a4 = a2 * a2
    report = {"c4": eisenstein_c4(truncation) * _calibrated(a4, 4)
              == b2_2 - b4.scale(24)}
    a6 = a4 * a2
    report["c6"] = (eisenstein_c6(truncation) * _calibrated(a6, 6)
                    == b2 * (b4.scale(36) - b2_2) - b3_2.scale(216))
    report["delta"] = (discriminant(truncation) * _calibrated(a6 * a6, 12)
                       == -(b2_2 * t.b8) - (b3_2 * b3_2).scale(27)
                       + b4 * (t.b2_b3_square.scale(9) - t.square("b4").scale(8)))
    report["mf_relation"] = verify_discriminant_identity(truncation)
    return report


def verify_mf_embedding(truncation):
    return all(mf_embedding_report(truncation).values())
