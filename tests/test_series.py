import pytest

from jfl.series import (BadExponent, MixedParity, NonDivisible, QYSeries,
                        SeriesError, exact_divide, make_series,
                        render_json_dict, render_text)
from jfl import series
from oracles import dict_exact_divide
from property_suites import (exact_divide_round_trips,
                             packed_product_matches_dict,
                             packed_quotient_matches_dict, packed_width_edges,
                             series_ring_axioms)


def test_make_series_accumulates_duplicates():
    f = make_series([(0, 2, 1), (0, 2, 3), (1, 0, -4)], truncation=3)
    assert f.coefficient(0, 2) == 4
    assert f.coefficient(1, 0) == -4
    assert f.coefficient(2, 0) == 0
    assert f.parity == 0


def test_make_series_infers_odd_parity():
    f = make_series([(0, 1, 1), (1, -3, 2)], truncation=2)
    assert f.parity == 1


def test_make_series_rejects_mixed_parity():
    with pytest.raises(MixedParity, match="r2 = 1 breaks declared parity 0"):
        make_series([(0, 0, 1), (0, 1, 1)], truncation=2)


@pytest.mark.parametrize("entry", [(0, 0, 0.5), (0, 2.0, 1), (0.0, 0, 1),
                                   (0, 0, "1"), (0, None, 1)])
def test_make_series_refuses_non_integers(entry):
    with pytest.raises(ValueError, match="is not three integers"):
        make_series([entry], 1)


def test_make_series_exponent_validation():
    with pytest.raises(BadExponent):
        make_series([(3, 0, 1)], truncation=3)   # n == truncation is out
    with pytest.raises(BadExponent):
        make_series([(-1, 0, 1)], truncation=3)
    with pytest.raises(BadExponent):
        make_series([], truncation=0)


_F = make_series([(0, 0, 1), (1, 2, 3)], 3)


@pytest.mark.parametrize("build, error", [
    (lambda: _F.truncate(-2), BadExponent),
    (lambda: _F.truncate(0), BadExponent),
    (lambda: _F.truncate(2.0), SeriesError),
    (lambda: make_series([(0, 0, 1)], 2.5), SeriesError),
    (lambda: QYSeries.zero(-1), BadExponent),
    (lambda: QYSeries.one(0), BadExponent),
    (lambda: QYSeries.one(2.5), SeriesError),
    (lambda: _F.scale(0.5), SeriesError),
    (lambda: make_series([(0, 0, 2), (1, 2, 4)], 3).divide_exact(2.0),
     SeriesError),
    (lambda: _F.shift_q(1.5), SeriesError),
], ids=["truncate-negative", "truncate-zero", "truncate-float",
        "make-float-truncation", "zero-negative", "one-zero", "one-float",
        "scale-float", "divide-float", "shift-float"])
def test_numbers_are_read_as_ints(build, error):
    # a truncation below 1 or a non-integral truncation, factor, divisor
    # or shift would give a series no q-order fits or a non-int coefficient
    with pytest.raises(error):
        build()


def test_zero_entries_dropped():
    f = make_series([(0, 0, 5), (0, 0, -5)], truncation=2)
    assert f.is_zero()
    assert not f
    assert f == QYSeries.zero(2)


def test_truncate_shrinks_only():
    f = make_series([(0, 0, 1), (2, 0, 7)], truncation=3)
    g = f.truncate(2)
    assert g.truncation == 2
    assert g.coefficient(0, 0) == 1
    with pytest.raises(BadExponent):
        g.truncate(3)


def test_shift_q():
    f = make_series([(0, 2, 1)], truncation=3)
    g = f.shift_q(2)
    assert g.coefficient(2, 2) == 1
    assert g.coefficient(0, 2) == 0
    with pytest.raises(BadExponent):
        f.shift_q(-1)


def test_specialize_z0():
    # y + 4 + y^-1 at q^0, plus an off-layer term
    f = make_series([(0, 2, 1), (0, 0, 4), (0, -2, 1), (1, 0, 9)], truncation=2)
    z = f.specialize_z0()
    assert z == [6, 9]


def test_mixed_parity_arithmetic_rejected():
    even = make_series([(0, 0, 1)], truncation=2)
    odd = make_series([(0, 1, 1)], truncation=2)
    with pytest.raises(MixedParity):
        even + odd


def test_zero_is_parity_wild():
    odd = make_series([(0, 1, 1)], truncation=2)
    even = make_series([(0, 0, 1)], truncation=2)
    zero = QYSeries.zero(2)
    assert zero.parity == 0
    assert odd - odd == even - even == zero
    assert len({odd - odd, even - even, zero}) == 1
    for f in (odd, even):
        assert zero + f == f + zero == f


def test_equality_needs_matching_truncation():
    assert QYSeries.one(3) != QYSeries.one(4)
    assert QYSeries.zero(3) != QYSeries.zero(4)
    f = make_series([(0, 0, 2)], truncation=3)
    assert f == make_series([(0, 0, 2)], truncation=3)
    assert f != make_series([(0, 0, 2)], truncation=4)


def test_sum_truncates_to_the_smaller_precision():
    f = make_series([(0, 0, 1), (1, 2, 3), (2, 0, 5)], truncation=3)
    g = make_series([(0, 0, -1), (1, 2, 4), (3, 0, 7)], truncation=4)
    # q^0 cancels and is not stored; g's q^3 term is beyond f's precision
    for total in (f + g, g + f):
        assert total.truncation == 3
        assert total.terms() == [(1, 2, 7), (2, 0, 5)]
    for x in (f, g):
        assert (x + (-x)).is_zero() and x - x == QYSeries.zero(x.truncation)


def test_multiplication_parity_and_truncation():
    odd = make_series([(0, 1, 1), (1, -1, 2)], truncation=3)
    sq = odd * odd
    assert sq.parity == 0
    assert sq.truncation == 3
    assert sq.coefficient(0, 2) == 1
    assert sq.coefficient(1, 0) == 4
    assert sq.coefficient(2, -2) == 4


def test_pow_matches_repeated_mul():
    f = make_series([(0, 0, 1), (1, 2, -2)], truncation=4)
    assert f ** 3 == f * f * f
    assert f ** 0 == QYSeries.one(4)
    assert f ** 1 == f
    assert f ** 6 == (f * f * f) * (f * f * f)
    odd = make_series([(0, 1, 3)], truncation=4)
    assert (odd - odd) ** 3 == QYSeries.zero(4)
    assert ((odd - odd) ** 3).parity == 0
    with pytest.raises(ValueError):
        f ** -1


def test_divide_exact_by_an_int():
    f = make_series([(0, 1, 8), (2, -1, -24)], truncation=3)
    g = f.divide_exact(-8)
    assert g == make_series([(0, 1, -1), (2, -1, 3)], truncation=3)
    assert (g.truncation, g.parity) == (3, 1)
    with pytest.raises(NonDivisible):
        f.divide_exact(16)
    with pytest.raises(NonDivisible):
        f.divide_exact(0)


def test_series_is_immutable():
    f = make_series([(0, 0, 1)], truncation=2)
    with pytest.raises(AttributeError):
        f.truncation = 5


def test_exact_divide_monomials():
    #  (q y) / y = q
    f = make_series([(1, 2, 6)], truncation=3)
    g = make_series([(0, 2, 2)], truncation=3)
    q = exact_divide(f, g)
    assert q.coefficient(1, 0) == 3
    assert q.truncation == 3


def test_exact_divide_half_integer_quotient():
    # (y - y^-1) / (y^(1/2) - y^(-1/2)) = y^(1/2) + y^(-1/2)
    f = make_series([(0, 2, 1), (0, -2, -1)], truncation=2)
    g = make_series([(0, 1, 1), (0, -1, -1)], truncation=2)
    q = exact_divide(f, g)
    assert q.parity == 1
    assert q.coefficient(0, 1) == 1
    assert q.coefficient(0, -1) == 1


def test_exact_divide_failure():
    # y + 1 is not divisible by y^(1/2) - y^(-1/2)
    f = make_series([(0, 2, 1), (0, 0, 1)], truncation=2)
    g = make_series([(0, 1, 1), (0, -1, -1)], truncation=2)
    with pytest.raises(NonDivisible):
        exact_divide(f, g)
    with pytest.raises(NonDivisible):
        exact_divide(f, QYSeries.zero(2))


def test_render_text_pins():
    f = make_series([(0, -2, 1), (0, 0, 4), (0, 2, 1), (1, 0, -24)], truncation=2)
    assert render_text(f) == "y^-1 + 4 + y - 24*q"
    assert render_text(QYSeries.zero(2)) == "0"
    half = make_series([(0, 1, 1), (0, -1, -1)], truncation=1)
    assert render_text(half) == "-y^(-1/2) + y^(1/2)"


def test_json_round_trip():
    # every term, sorted, with its coefficient as a string
    f = make_series([(1, 4, -7), (0, 2, 1), (0, -2, 1)], truncation=3)
    assert render_json_dict(f) == {
        "truncation": 3, "parity": 0,
        "terms": [{"q": 0, "y2": -2, "c": "1"}, {"q": 0, "y2": 2, "c": "1"},
                  {"q": 1, "y2": 4, "c": "-7"}]}
    big = make_series([(0, 1, -10 ** 30), (2, -3, 5)], truncation=4)
    assert render_json_dict(big) == {
        "truncation": 4, "parity": 1,
        "terms": [{"q": 0, "y2": 1, "c": str(-10 ** 30)},
                  {"q": 2, "y2": -3, "c": "5"}]}
    # the zero series has no odd term, so it reports parity 0
    for zero in (QYSeries.zero(4), big - big, f.truncate(2).scale(0)):
        assert render_json_dict(zero) == {"truncation": zero.truncation,
                                          "parity": 0, "terms": []}


# seeds apart from the acceptance gate's, which runs both suites on
# their defaults
def test_ring_axiom_suite():
    assert series_ring_axioms(1000, seed=20261101) >= 1000


def test_exact_divide_suite():
    assert exact_divide_round_trips(1000, seed=20261102) >= 1000


def test_packed_product_matches_dict_product():
    assert packed_product_matches_dict(1000) >= 1000


def test_packed_product_at_the_digit_width_edge():
    assert packed_width_edges() >= 1920


def test_packed_quotient_matches_dict_quotient():
    assert packed_quotient_matches_dict(1000) >= 1000


def test_quotient_width_grows_partway(monkeypatch):
    # small quotient layers first, then 10^30: the packed width must grow
    # after the first layers and the convolutions stay exact
    sizes = []
    pack = series._pack

    def recording_pack(layer, size):
        sizes.append(size)
        return pack(layer, size)

    monkeypatch.setattr(series, "_pack", recording_pack)
    g = make_series([(0, 1, 3), (0, -1, -2), (1, 3, 7), (2, -1, 5)], 6)
    h = make_series([(0, 0, 1), (1, 2, -1), (2, 0, 2),
                     (3, 2, 10 ** 30), (4, -2, -(10 ** 30)), (5, 0, 3)], 6)
    f = g * h
    sizes.clear()
    assert exact_divide(f, g) == h == dict_exact_divide(f, g)
    assert len(set(sizes)) >= 2 and max(sizes) > 2 * min(sizes)
