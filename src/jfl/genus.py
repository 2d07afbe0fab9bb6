"""Elliptic genus of low-dimensional SU-manifolds from Chern numbers.

Chern data is a bag of Chern monomial values indexed by partitions of
the complex dimension; the SU condition forces every partition with a
1-part to vanish.  The genus lands in the quotient ring as an exact
integer combination; a non-integral coefficient is an error, since it
certifies the data is not realizable by a closed SU-manifold.

Closed formulas are hard-coded through complex dimension 4.
"""

import operator
from fractions import Fraction

from .ring import normal_form

__all__ = [
    "UnsupportedDim", "NonIntegralGenus", "ChernData",
    "partitions_without_ones", "chern_data", "product_chern_data",
    "milnor_s", "euler_characteristic",
    "genus_deg4", "genus_deg6", "genus_deg8", "elliptic_genus",
    "generator_genus_table",
    "chern_to_json",
]


class UnsupportedDim(ValueError):
    """Complex dimension outside the tabulated range {2, 3, 4}."""


class NonIntegralGenus(ValueError):
    """A genus coefficient came out non-integral; carries the value."""

    def __init__(self, value, where):
        super().__init__("non-integral coefficient %s at %s" % (value, where))
        self.value = value
        self.where = where


def _partitions(total, max_part):
    if total == 0:
        return [()]
    out = []
    for p in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - p, p):
            out.append((p,) + rest)
    return out


def partitions_without_ones(d):
    """Partitions of d with every part >= 2, descending parts."""
    return tuple(p for p in _partitions(d, d) if not p or p[-1] >= 2)


class ChernData:
    """Chern numbers of a stably SU manifold of complex dimension d.

    numbers maps partitions (descending tuples summing to d) to the
    value of the corresponding Chern monomial on the fundamental class.
    Partitions containing a 1 must map to 0; a missing 1-free partition
    is filled in with 0.  Every value must be an int (ValueError
    otherwise: no value is rounded).  Values are immutable and, holding
    a dict, unhashable.
    """

    __hash__ = None

    def __init__(self, complex_dim, numbers=None):
        d = complex_dim
        if d < 1:
            raise ValueError("complex dimension must be positive")
        clean = {}
        for part, v in (numbers or {}).items():
            part = tuple(sorted(part, reverse=True))
            if sum(part) != d or any(p < 1 for p in part):
                raise ValueError("%r is not a partition of %d" % (part, d))
            if 1 in part and v != 0:
                raise ValueError(
                    "partition %r involves c1, which vanishes stably" % (part,))
            try:
                clean[part] = operator.index(v)
            except TypeError:
                raise ValueError("the Chern number at %r is %r, not an "
                                 "integer" % (part, v)) from None
        for part in partitions_without_ones(d):
            clean.setdefault(part, 0)
        self.__dict__.update(complex_dim=d, numbers=clean)

    def __setattr__(self, name, value):
        raise AttributeError("ChernData is immutable")

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return vars(self) == vars(other) if same else NotImplemented

    def __repr__(self):
        return "ChernData(complex_dim=%r, numbers=%r)" % (self.complex_dim,
                                                          self.numbers)

    def number(self, *parts):
        return self.numbers.get(tuple(sorted(parts, reverse=True)), 0)


def chern_data(dim, /, **values):
    """Convenience constructor; keys like c2, c3, c4, c2sq."""
    names = {"c2": (2,), "c3": (3,), "c4": (4,), "c2sq": (2, 2)}
    numbers = {}
    for k, v in values.items():
        if k not in names:
            raise ValueError("unknown Chern number name %r" % k)
        if sum(names[k]) != dim:
            raise ValueError("%s is not a Chern number in complex dimension %d"
                             % (k, dim))
        numbers[names[k]] = v
    return ChernData(dim, numbers)


def product_chern_data(x, y):
    """Chern data of a product of two complex surfaces.

    Whitney: c2 of the product is c2(X) + c2(Y), so the square
    contributes the cross term twice and c4 is the plain product.
    """
    if x.complex_dim != 2 or y.complex_dim != 2:
        raise UnsupportedDim("product data is tabulated for surface factors")
    a, b = x.number(2), y.number(2)
    return ChernData(4, {(2, 2): 2 * a * b, (4,): a * b})


def milnor_s(data):
    """Power-sum characteristic number, Newton identities at c1 = 0."""
    d = data.complex_dim
    if d == 2:
        return -2 * data.number(2)
    if d == 3:
        return 3 * data.number(3)
    if d == 4:
        return 2 * data.number(2, 2) - 4 * data.number(4)
    raise UnsupportedDim("Milnor number tabulated for dimensions 2..4 only")


def euler_characteristic(data):
    """Top Chern number."""
    return data.number(data.complex_dim)


def _integral_element(coeffs):
    out = {}
    for mono, c in coeffs.items():
        if c == 0:
            continue
        if c.denominator != 1:
            raise NonIntegralGenus(c, mono)
        out[mono] = int(c)
    return normal_form(out)


def genus_deg4(data):
    if data.complex_dim != 2:
        raise UnsupportedDim("degree-4 genus needs complex dimension 2")
    return _integral_element({(1, 0, 0, 0): Fraction(data.number(2), 12)})


def genus_deg6(data):
    if data.complex_dim != 3:
        raise UnsupportedDim("degree-6 genus needs complex dimension 3")
    return _integral_element({(0, 1, 0, 0): Fraction(data.number(3), 2)})


def genus_deg8(data):
    if data.complex_dim != 4:
        raise UnsupportedDim("degree-8 genus needs complex dimension 4")
    s4 = milnor_s(data)
    return _integral_element({
        (0, 0, 1, 0): -Fraction(s4, 20),
        (2, 0, 0, 0): Fraction(data.number(2, 2), 240)
                      - Fraction(data.number(4), 720),
    })


def elliptic_genus(data):
    d = data.complex_dim
    if d == 2:
        return genus_deg4(data)
    if d == 3:
        return genus_deg6(data)
    if d == 4:
        return genus_deg8(data)
    raise UnsupportedDim("genus formulas are tabulated for dimensions 2..4")


def generator_genus_table(n_param):
    """Genus values on the minimal generator classes through degree 16.

    Computed multiplicatively from the comparison substitution phi_N
    of the surjectivity check, carrying b2 as a bookkeeping image for
    the half class; every entry lands in the index-congruence image
    lattice for any integer choice of the undetermined parameter.
    """
    from .spectral import _substitution_images
    images = _substitution_images(n_param)
    b2, b3, base_b4 = images["B2"], images["B3"], images["B4"]
    return {
        "[2B2]": b2.scale(2),
        "[B3]": b3,
        "[B2^2]": b2 * b2,
        "[B4]": base_b4,
        "[B2B3]": b2 * b3,
        "[2B2^3]": (b2 ** 3).scale(2),
        "[B3^2]": b3 * b3,
        "[B2B4]": b2 * base_b4,
        "[B2^2B3]": b2 * b2 * b3,
        "[B3B4]": b3 * base_b4,
        "[B2^4]": b2 ** 4,
        "[B2^2B4]": b2 * b2 * base_b4,
        "[B2B3^2]": b2 * b3 * b3,
        "[C8]": images["C8"],
    }


def chern_to_json(data):
    return {"dim": data.complex_dim,
            "numbers": {",".join(str(p) for p in part): v
                        for part, v in sorted(data.numbers.items(),
                                              reverse=True)}}
