from fractions import Fraction

import pytest

from jfl.genus import (ChernData, NonIntegralGenus, UnsupportedDim,
                       chern_data, chern_to_json,
                       elliptic_genus, euler_characteristic,
                       generator_genus_table, genus_deg4, genus_deg6,
                       genus_deg8, milnor_s, partitions_without_ones,
                       product_chern_data)
from jfl.ring import (B2, B3, eval_series, in_image, normal_form,
                      render_element_text)


def test_partitions_without_ones():
    assert partitions_without_ones(4) == ((4,), (2, 2))
    assert partitions_without_ones(2) == ((2,),)
    assert partitions_without_ones(3) == ((3,),)
    assert partitions_without_ones(0) == ((),)


class TestChernData:
    def test_autofill_and_lookup(self):
        d = chern_data(4, c4=10)
        assert d.number(4) == 10
        assert d.number(2, 2) == 0
        assert d.number(2, 2, 2) == 0  # absent partitions read as zero

    def test_c1_partitions_must_vanish(self):
        ChernData(2, {(1, 1): 0})  # explicit zero is fine
        with pytest.raises(ValueError):
            ChernData(2, {(1, 1): 5})

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            ChernData(2, {(3,): 1})
        with pytest.raises(ValueError):
            ChernData(0, {})
        with pytest.raises(ValueError):
            chern_data(2, c5=1)

    @pytest.mark.parametrize("value", [24.9, 24.0, Fraction(24), "24", None])
    def test_values_must_be_ints(self, value):
        # nothing is truncated: c2 = 24.9 must not read as the K3's 24
        with pytest.raises(ValueError, match="not an integer"):
            chern_data(2, c2=value)
        with pytest.raises(ValueError, match="not an integer"):
            ChernData(4, {(2, 2): value})

    def test_parts_are_sorted(self):
        d = ChernData(4, {(2, 2): 7})
        assert d.numbers[(2, 2)] == 7
        assert d.number(2, 2) == 7


def test_milnor_s_values():
    assert milnor_s(chern_data(2, c2=24)) == -48
    assert milnor_s(chern_data(3, c3=-2580)) == -7740
    assert milnor_s(chern_data(4, c2sq=1350, c4=2610)) == -7740
    assert milnor_s(product_chern_data(chern_data(2, c2=24),
                                       chern_data(2, c2=24))) == 0
    with pytest.raises(UnsupportedDim):
        milnor_s(ChernData(5))


def test_genus_deg4_k3():
    g = genus_deg4(chern_data(2, c2=24))
    assert g == B2.scale(2)
    assert render_element_text(g) == "2*b2"


def test_genus_deg6_quintic_solid():
    g = genus_deg6(chern_data(3, c3=-200))
    assert g == B3.scale(-100)


def test_genus_deg8_sextic():
    g = genus_deg8(chern_data(4, c2sq=1350, c4=2610))
    assert render_element_text(g) == "387*b4 + 2*b2^2"


def test_genus_deg8_flop_invisible():
    # s4 = 2*c2sq - 4*c4 = 0 leaves only the b2^2 part
    g = genus_deg8(chern_data(4, c2sq=1440, c4=720))
    assert render_element_text(g) == "5*b2^2"
    z = genus_deg8(chern_data(4, c2sq=0, c4=0))
    assert z.is_zero()


def test_genus_of_product_of_k3s():
    k3 = chern_data(2, c2=24)
    g = genus_deg8(product_chern_data(k3, k3))
    assert g == genus_deg4(k3) * genus_deg4(k3)
    assert render_element_text(g) == "4*b2^2"


def test_genus_product_consistency_generic():
    for a, b in ((24, -36), (12, 12), (0, 24)):
        x, y = chern_data(2, c2=a), chern_data(2, c2=b)
        assert genus_deg8(product_chern_data(x, y)) == \
            genus_deg4(x) * genus_deg4(y)


def test_non_integral_genus_carries_value():
    with pytest.raises(NonIntegralGenus) as info:
        genus_deg4(chern_data(2, c2=25))
    assert info.value.value == Fraction(25, 12)
    with pytest.raises(NonIntegralGenus):
        genus_deg6(chern_data(3, c3=-3))


def test_elliptic_genus_dispatch():
    assert elliptic_genus(chern_data(2, c2=24)) == B2.scale(2)
    assert elliptic_genus(chern_data(3, c3=-200)) == B3.scale(-100)
    assert elliptic_genus(chern_data(4, c2sq=1440, c4=720)) == \
        genus_deg8(chern_data(4, c2sq=1440, c4=720))
    with pytest.raises(UnsupportedDim):
        elliptic_genus(ChernData(5))


def test_euler_characteristic_matches_z0_specialization():
    # the q^0 y-sum of the genus realization recovers the top Chern number
    cases = [
        chern_data(2, c2=24),
        chern_data(3, c3=-200),
        chern_data(4, c2sq=1350, c4=2610),
    ]
    for data in cases:
        series, _idx = eval_series(elliptic_genus(data), 2)
        assert series.specialize_z0()[0] == euler_characteristic(data)


def test_generator_genus_table_shape():
    table = generator_genus_table(1)
    assert set(table) == {
        "[2B2]", "[B3]", "[B2^2]", "[B4]", "[B2B3]", "[2B2^3]", "[B3^2]",
        "[B2B4]", "[B2^2B3]", "[B3B4]", "[B2^4]", "[B2^2B4]", "[B2B3^2]",
        "[C8]",
    }
    assert table["[2B2]"] == B2.scale(2)
    assert table["[B4]"] == normal_form({(0, 0, 1, 0): -1, (2, 0, 0, 0): 2})
    # phi_1(C8) = (b2 b3^2 - phi_1(B4)^2) / 4 = b8 + b2^2 b4 - b2^4
    assert table["[C8]"] == normal_form({(0, 0, 0, 1): 1, (2, 0, 1, 0): 1,
                                         (4, 0, 0, 0): -1})


def test_generator_genus_table_lands_in_image():
    for n in (-1, 0, 1, 2):
        for key, val in generator_genus_table(n).items():
            assert in_image(val), "%s at parameter %d" % (key, n)


def test_b2b4_entry_sign_ambiguity_is_harmless():
    # both sign conventions for the cubic correction term stay integral
    # and in the image, so either branch of the table is usable
    plus = generator_genus_table(1)["[B2B4]"]
    minus = normal_form({(1, 0, 1, 0): -1, (3, 0, 0, 0): -2})
    assert in_image(plus) and in_image(minus)
    assert plus == normal_form({(1, 0, 1, 0): -1, (3, 0, 0, 0): 2})


def test_chern_json_round_trip():
    d = chern_data(4, c2sq=1350, c4=2610)
    obj = chern_to_json(d)
    # one key per partition, parts joined by commas, largest first
    assert obj == {"dim": 4, "numbers": {"4": 2610, "2,2": 1350}}
    assert list(obj["numbers"]) == ["4", "2,2"]
    assert chern_to_json(ChernData(3, {(3,): -48})) == {
        "dim": 3, "numbers": {"3": -48}}
