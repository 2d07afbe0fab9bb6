"""q-expansions of the five ring generators and the classical forms.

The five generators a, b2, b3, b4, b8 are built from triple-product
theta expansions.  b3 and b8 are quotients of theta blocks, b2 and b4
come from squares of normalized theta constants; the latter live on a
doubled q-grid (Q^2 = q) internally and are folded back once the odd
half-orders cancel.

Sign calibration: the index-raising padding used to compare a weight-k
form against ring elements is stabilizer_power(a, k) = (-1)^(k//2) a^k,
not a^k itself.  The three modular embedding identities force this: the
weight-6 identity fails by a global sign for either choice of sign of
a (a only enters through even powers there), so the padding class is
calibrated to square to MINUS a^2.  All identities below are certified
with this convention; A_SQUARE_SIGN records it for reports.
"""

from dataclasses import dataclass
from functools import lru_cache

from .series import (QYSeries, SeriesError, exact_divide, make_series)

A_SQUARE_SIGN = -1

CALIBRATION = {"a_branch": "+", "a_square_sign": A_SQUARE_SIGN}


def _product(truncation, factors):
    acc = QYSeries.one(truncation)
    for terms in factors:
        acc = acc * make_series(terms, truncation)
    return acc


def _euler(truncation):
    # prod_{n>=1} (1 - q^n)
    return _product(truncation,
                    ([(0, 0, 1), (n, 0, -1)] for n in range(1, truncation)))


def gen_a(truncation):
    """(y^{1/2} - y^{-1/2}) prod (1-q^n y)(1-q^n y^{-1}) (1-q^n)^{-2}."""
    num = make_series([(0, 1, 1), (0, -1, -1)], truncation)
    num = num * _product(truncation,
                         ([(0, 0, 1), (n, 2, -1)] for n in range(1, truncation)))
    num = num * _product(truncation,
                         ([(0, 0, 1), (n, -2, -1)] for n in range(1, truncation)))
    den = _euler(truncation) ** 2
    return exact_divide(num, den)


def _theta_block(k, truncation):
    # (y^{k/2} - y^{-k/2}) prod (1-q^n)(1-q^n y^k)(1-q^n y^{-k})
    acc = make_series([(0, k, 1), (0, -k, -1)], truncation)
    acc = acc * _euler(truncation)
    acc = acc * _product(truncation,
                         ([(0, 0, 1), (n, 2 * k, -1)] for n in range(1, truncation)))
    acc = acc * _product(truncation,
                         ([(0, 0, 1), (n, -2 * k, -1)] for n in range(1, truncation)))
    return acc


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


def _fold_doubled_q(f):
    """Map Q^(2n) -> q^n after checking all odd half-orders cancelled."""
    if f.truncation % 2:
        raise SeriesError("internal: doubled grid must have even truncation")
    terms = {}
    for (n, r2), c in f._terms.items():
        if n % 2:
            raise SeriesError("internal: odd half-order q-term survived folding")
        terms[(n // 2, r2)] = c
    return QYSeries(terms, f.truncation // 2, f.parity)


def _stretch_to_doubled_q(f):
    # q^n -> Q^(2n)
    return QYSeries({(2 * n, r2): c for (n, r2), c in f._terms.items()},
                    2 * f.truncation, f.parity)


def _scale_exact_div(f, k):
    terms = {}
    for key, c in f._terms.items():
        q, r = divmod(c, k)
        if r:
            raise SeriesError("internal: coefficient %d not divisible by %d" % (c, k))
        terms[key] = q
    return QYSeries(terms, f.truncation, f.parity)


def _xi_square_parts(truncation):
    """(A, B, C) with A = 4 xi_00^2, B = 4 xi_01^2 on the doubled grid
    and C = 4 xi_10^2 on the plain grid.

    xi_ab is the theta constant quotient theta_ab(z)/theta_ab(0); the
    normalizations make all three into integer series.
    """
    M = 2 * truncation

    def doubled(sign):
        num = _product(M, ([(0, 0, 1), (j, 2, sign)]
                           for j in range(1, M, 2)))
        num = num * _product(M, ([(0, 0, 1), (j, -2, sign)]
                                 for j in range(1, M, 2)))
        den = _product(M, ([(0, 0, 1), (j, 0, sign)]
                           for j in range(1, M, 2)))
        return exact_divide(num * num, den ** 4).scale(4)

    A = doubled(1)
    B = doubled(-1)

    num = _product(truncation, ([(0, 0, 1), (n, 2, 1)]
                                for n in range(1, truncation)))
    num = num * _product(truncation, ([(0, 0, 1), (n, -2, 1)]
                                      for n in range(1, truncation)))
    den = _product(truncation, ([(0, 0, 1), (n, 0, 1)]
                                for n in range(1, truncation)))
    C = make_series([(0, 2, 1), (0, 0, 2), (0, -2, 1)], truncation)
    C = C * exact_divide(num * num, den ** 4)
    return A, B, C


def _b2_from_parts(A, B, C):
    return _fold_doubled_q(A + B) + C


def _b4_from_parts(A, B, C):
    CQ = _stretch_to_doubled_q(C)
    S = A * B + (A + B) * CQ
    return _fold_doubled_q(_scale_exact_div(S, 8))


def gen_b2(truncation):
    """The index-2 weight-0 generator, q^0 part y + 10 + y^{-1}."""
    return _b2_from_parts(*_xi_square_parts(truncation))


def gen_b4(truncation):
    """The index-4 weight-0 generator, q^0 part y + 4 + y^{-1}.

    Built from the elementary symmetric combination of the three
    normalized theta-constant squares: with A, B, C as above this is
    (AB + BC + CA)/8, whose coefficients are all even.
    """
    return _b4_from_parts(*_xi_square_parts(truncation))


@dataclass(frozen=True)
class GeneratorTable:
    truncation: int
    a: QYSeries
    b2: QYSeries
    b3: QYSeries
    b4: QYSeries
    b8: QYSeries

    def series_of(self, name):
        return getattr(self, name)


@lru_cache(maxsize=16)
def generator_table(truncation):
    # b2 and b4 share the theta-constant squares: build them once
    parts = _xi_square_parts(truncation)
    return GeneratorTable(
        truncation=truncation,
        a=gen_a(truncation),
        b2=_b2_from_parts(*parts),
        b3=gen_b3(truncation),
        b4=_b4_from_parts(*parts),
        b8=gen_b8(truncation),
    )


def stabilizer_power(a, k):
    """The index-raising padding a^k with the calibrated sign (-1)^(k//2)."""
    s = a ** k
    return -s if (k // 2) % 2 else s


# -- classical one-variable forms -------------------------------------

def _divisor_power_sum(n, k):
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


def eisenstein_c4(truncation):
    """1 + 240 sum sigma_3(n) q^n."""
    entries = [(0, 0, 1)]
    entries += [(n, 0, 240 * _divisor_power_sum(n, 3)) for n in range(1, truncation)]
    return make_series(entries, truncation)


def eisenstein_c6(truncation):
    """1 - 504 sum sigma_5(n) q^n."""
    entries = [(0, 0, 1)]
    entries += [(n, 0, -504 * _divisor_power_sum(n, 5)) for n in range(1, truncation)]
    return make_series(entries, truncation)


def discriminant(truncation):
    """q prod (1-q^n)^24."""
    return (_euler(truncation) ** 24).shift_q(1).truncate(truncation)


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
    return (t.b8.scale(4) + t.b4 ** 2 - t.b2 * t.b3 ** 2).is_zero()


def mf_embedding_report(truncation):
    """Per-identity results for the weight 4, 6, 12 embedding rows."""
    t = generator_table(truncation)
    b2, b3, b4, b8 = t.b2, t.b3, t.b4, t.b8
    rows = {
        "c4": (eisenstein_c4(truncation) * stabilizer_power(t.a, 4),
               b2 ** 2 - b4.scale(24)),
        "c6": (eisenstein_c6(truncation) * stabilizer_power(t.a, 6),
               -(b2 ** 3) + (b2 * b4).scale(36) - (b3 ** 2).scale(216)),
        "delta": (discriminant(truncation) * stabilizer_power(t.a, 12),
                  -(b2 ** 2 * b8) - (b4 ** 3).scale(8)
                  - (b3 ** 4).scale(27) + (b2 * b3 ** 2 * b4).scale(9)),
    }
    report = {name: lhs == rhs for name, (lhs, rhs) in rows.items()}
    report["mf_relation"] = verify_discriminant_identity(truncation)
    return report


def verify_mf_embedding(truncation):
    return all(mf_embedding_report(truncation).values())
