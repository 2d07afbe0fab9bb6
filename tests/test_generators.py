import pytest

from jfl.generators import (CALIBRATION, discriminant, eisenstein_c4,
                            eisenstein_c6, gen_a, gen_b2, gen_b3, gen_b4,
                            gen_b8, generator_table, mf_embedding_report,
                            stabilizer_power, theta_quotient, verify_relation,
                            verify_discriminant_identity, verify_mf_embedding)
from jfl.series import BadExponent, exact_divide

T = 9  # window wide enough for every identity pinned below


@pytest.fixture(scope="module")
def tab():
    return generator_table(T)


# -- leading q-layers, frozen by hand from the defining products -------

def test_a_leading_terms(tab):
    assert tab.a.parity == 1
    assert tab.a.q_layer(0) == {-1: -1, 1: 1}
    assert tab.a.q_layer(1) == {-3: 1, -1: -3, 1: 3, 3: -1}


def test_b2_leading_terms(tab):
    assert tab.b2.parity == 0
    assert tab.b2.q_layer(0) == {-2: 1, 0: 10, 2: 1}
    assert tab.b2.q_layer(1) == {-4: 10, -2: -64, 0: 108, 2: -64, 4: 10}


def test_b3_leading_terms(tab):
    assert tab.b3.parity == 1
    assert tab.b3.q_layer(0) == {-1: 1, 1: 1}
    assert tab.b3.q_layer(1) == {-5: -1, -1: 1, 1: 1, 5: -1}


def test_b4_leading_terms(tab):
    assert tab.b4.parity == 0
    assert tab.b4.q_layer(0) == {-2: 1, 0: 4, 2: 1}
    assert tab.b4.q_layer(1) == {-6: 1, -4: -8, -2: -1, 0: 16, 2: -1, 4: -8, 6: 1}


def test_b8_leading_terms(tab):
    assert tab.b8.parity == 0
    assert tab.b8.q_layer(0) == {-2: 1, 0: 1, 2: 1}
    assert tab.b8.q_layer(1) == {-8: -1, -6: -1, -2: 1, 0: 2, 2: 1, 6: -1, 8: -1}


def test_b2_square_anchor(tab):
    sq = tab.b2 * tab.b2
    assert sq.q_layer(0) == {-4: 1, -2: 20, 0: 102, 2: 20, 4: 1}


def test_z0_specializations(tab):
    # constant terms count lattice points: 12 for b2, 2 for b3
    assert tab.b2.specialize_z0()[0] == 12
    assert tab.b3.specialize_z0()[0] == 2
    assert tab.b4.specialize_z0()[0] == 6
    assert tab.b8.specialize_z0()[0] == 3
    assert tab.a.specialize_z0() == [0] * T


def test_y_support_grows_linearly(tab):
    # index m generators live in y-width m around each q-layer
    for name, index in (("a", 1), ("b2", 2), ("b3", 3), ("b4", 4), ("b8", 8)):
        f = tab.series_of(name)
        for n in range(T):
            width = max((abs(r2) for r2 in f.q_layer(n)), default=0)
            assert width <= 2 * index * (n + 1)


def test_theta_quotient_matches_named_generators(tab):
    assert theta_quotient(2, T) == tab.b3
    assert theta_quotient(3, T) == tab.b8
    with pytest.raises(ValueError):
        theta_quotient(4, T)


def test_relation_holds_through_window():
    assert verify_relation(T)
    assert verify_relation(4)


def test_generators_divisible_by_a(tab):
    # every b is a times a holomorphic series; division certifies it
    for name in ("b2", "b3", "b4", "b8"):
        f = tab.series_of(name) * tab.a
        assert exact_divide(f, tab.a) == tab.series_of(name)


def test_stabilizer_power_signs(tab):
    a = tab.a
    assert stabilizer_power(a, 0) == a ** 0
    assert stabilizer_power(a, 1) == a
    assert stabilizer_power(a, 2) == -(a ** 2)
    assert stabilizer_power(a, 3) == -(a ** 3)
    assert stabilizer_power(a, 4) == a ** 4
    assert stabilizer_power(a, 6) == -(a ** 6)
    assert stabilizer_power(a, 12) == a ** 12


def test_calibration_record():
    assert CALIBRATION == {"a_branch": "+", "a_square_sign": -1}


def test_eisenstein_c4_coefficients():
    c4 = eisenstein_c4(3)
    assert c4.q_layer(0) == {0: 1}
    assert c4.coefficient(1, 0) == 240
    assert c4.coefficient(2, 0) == 2160


def test_eisenstein_c6_coefficients():
    c6 = eisenstein_c6(3)
    assert c6.coefficient(0, 0) == 1
    assert c6.coefficient(1, 0) == -504
    assert c6.coefficient(2, 0) == -16632


def test_discriminant_expansion():
    d = discriminant(4)
    assert d.coefficient(0, 0) == 0
    assert d.coefficient(1, 0) == 1
    assert d.coefficient(2, 0) == -24
    assert d.coefficient(3, 0) == 252


def test_discriminant_identity():
    assert verify_discriminant_identity(T)


def test_mf_embedding_report():
    report = mf_embedding_report(T)
    assert set(report) == {"c4", "c6", "delta", "mf_relation"}
    assert all(report.values())
    assert verify_mf_embedding(T)


def test_generator_functions_match_table(tab):
    assert gen_a(T) == tab.a
    assert gen_b2(T) == tab.b2
    assert gen_b3(T) == tab.b3
    assert gen_b4(T) == tab.b4
    assert gen_b8(T) == tab.b8
    assert hash(tab) == hash(generator_table(T))  # frozen and hashable


def test_truncation_respected():
    t = generator_table(2)
    with pytest.raises(BadExponent):
        t.b2.q_layer(2)
