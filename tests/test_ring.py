from functools import lru_cache

import pytest

from jfl import ring
from jfl.generators import generator_table, stabilizer_power
from jfl.ring import (B2, B3, B4, B8, IMAGE_GENERATORS, ONE, Inhomogeneous,
                      JFElement, cokernel, cokernel_representatives,
                      degree_basis, element_coords, eval_series, image_basis,
                      in_image, monomial_degree, normal_form,
                      render_element_json, render_element_text)
from jfl.lattice import FPAbelianGroup, hermite_normal_form
from property_suites import normal_form_homomorphism


def test_square_rewrite():
    sq = B4 * B4
    assert sq == normal_form({(1, 2, 0, 0): 1, (0, 0, 0, 1): -4})
    assert render_element_text(sq) == "-4*b8 + b2*b3^2"


def test_epsilon_capped_after_normalization():
    deep = normal_form({(0, 0, 4, 0): 1})
    assert all(m[2] <= 1 for m in deep.coeffs)
    # reducing twice by hand gives the same answer
    assert deep == (B4 * B4) * (B4 * B4)


def test_normal_form_input_shapes():
    as_dict = normal_form({(1, 0, 0, 0): 3})
    assert as_dict == B2.scale(3)
    assert normal_form(as_dict) is as_dict
    with pytest.raises(ValueError):
        normal_form({(-1, 0, 0, 0): 1})


@pytest.mark.parametrize("mono, coeff", [
    ((1.5, 0, 0, 0), 1),  # rendered b2^1
    ((0, 0, 2.0, 0), 1),
    ((1, 0, 0, 0), 0.5),
    ((1, 0, 0, 0), 2.0),
    ((1, 0, 0, "1"), 1),
])
def test_normal_form_refuses_non_integers(mono, coeff):
    with pytest.raises(ValueError, match="is not an integer term"):
        normal_form({mono: coeff})


def test_scale_refuses_non_integers():
    # a float factor would leave a float coefficient
    with pytest.raises(ValueError, match="factor 0.5 is not an integer"):
        B2.scale(0.5)


def test_degrees():
    assert monomial_degree((1, 0, 0, 0)) == 4
    assert monomial_degree((1, 2, 1, 1)) == 40
    assert (B2 * B8).degree() == 20
    assert JFElement({}).degree() == 0
    with pytest.raises(Inhomogeneous):
        (B2 + B3).degree()


def test_degree_basis_pins():
    assert degree_basis(0) == ((0, 0, 0, 0),)
    assert degree_basis(8) == ((2, 0, 0, 0), (0, 0, 1, 0))
    assert degree_basis(10) == ((1, 1, 0, 0),)
    assert degree_basis(16) == ((4, 0, 0, 0), (2, 0, 1, 0),
                                (1, 2, 0, 0), (0, 0, 0, 1))
    assert degree_basis(7) == ()
    assert degree_basis(-4) == ()


def test_degree_basis_is_closed_under_normal_form():
    for d in range(0, 40, 2):
        for m in degree_basis(d):
            assert m[2] <= 1
            assert monomial_degree(m) == d


def test_coords_round_trip():
    x = normal_form({(2, 0, 0, 0): 5, (0, 0, 1, 0): -3})
    vec = element_coords(x, 8)
    assert vec == [5, -3]
    assert _from_coords(vec, 8) == x
    with pytest.raises(Inhomogeneous):
        element_coords(B2, 8)


def test_eval_series_kills_the_relation():
    rel = B8.scale(4) + B4 * B4 - B2 * B3 * B3
    assert rel.is_zero()
    s, idx = eval_series(rel, 6)
    assert s.is_zero() and idx == 0


def test_eval_series_homogeneous():
    t = generator_table(5)
    s, idx = eval_series(B2, 5)
    assert s == t.b2 and idx == 2
    s, idx = eval_series(B2 * B3, 5)
    assert s == t.b2 * t.b3 and idx == 5


def test_eval_series_padding_convention():
    # mixed-index input is lifted to the top index with stabilizer powers
    t = generator_table(5)
    s, idx = eval_series(B2 + B3, 5)
    assert idx == 3
    assert s == t.b3 + t.b2 * t.a
    s, idx = eval_series(B2 + B8, 5)
    assert idx == 8
    assert s == t.b8 + t.b2 * stabilizer_power(t.a, 6)


def test_eval_series_matches_weight4_row():
    from jfl.generators import eisenstein_c4
    t = generator_table(7)
    row = B2 * B2 - B4.scale(24)
    s, idx = eval_series(row, 7)
    assert idx == 4
    assert s == eisenstein_c4(7) * stabilizer_power(t.a, 4)


def test_in_image_positives():
    for g in IMAGE_GENERATORS:
        assert in_image(g)
    assert in_image(JFElement({}))
    assert in_image((B2 * B2) * B8 - (B3 ** 4).scale(7))


def test_in_image_negatives():
    assert not in_image(B2)
    assert not in_image(B2 * B8)
    assert not in_image(normal_form({(5, 0, 0, 0): 1}))
    # odd multiples of excluded monomials stay out, even ones come in
    assert not in_image(B2.scale(3))
    assert in_image(B2.scale(2))


def test_image_basis_degree4():
    assert image_basis(4) == [[2]]


def _from_coords(vec, d):
    """The degree-d element with coordinates vec in degree_basis(d)."""
    return JFElement({m: c for m, c in zip(degree_basis(d), vec) if c})


@lru_cache(maxsize=None)
def _image_lattice_oracle(d):
    """HNF rows spanning the degree-d piece of the subring generated by
    the seven image generators, in degree_basis(d) coordinates."""
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
        for sub_row in _image_lattice_oracle(d - dg):
            elem = gen * _from_coords(sub_row, d - dg)
            vec = [0] * len(basis)
            for m, c in elem.coeffs.items():
                vec[index[m]] = c
            rows.append(vec)
    return tuple(tuple(r) for r in hermite_normal_form(rows, len(basis)))


def test_image_basis_matches_the_hnf_oracle():
    # the certified diagonal against the HNF of all generator products
    for d in range(0, 129, 2):
        assert image_basis(d) == [list(r) for r in _image_lattice_oracle(d)], d


# the full message of each broken generator set below, by failing degree
_CERTIFICATE_FAILURES = {
    4: "b2 is odd at a b2^(2m+1) b8^n",
    10: "b2*b3 is no generator times a lower row",
}


@pytest.mark.parametrize("generators, degree", [
    ((B2,) + IMAGE_GENERATORS[1:], 4),  # b2 in place of 2b2
    (IMAGE_GENERATORS[:4] + IMAGE_GENERATORS[5:], 10),  # b2b3 dropped
])
def test_image_certificate_rejects_a_broken_generator_set(
        monkeypatch, generators, degree):
    ring._image_lattice.cache_clear()
    monkeypatch.setattr(ring, "IMAGE_GENERATORS", generators)
    try:
        with pytest.raises(ArithmeticError) as err:
            cokernel(40)
        assert str(err.value) == "image lattice fails in degree %d: %s" % (
            degree, _CERTIFICATE_FAILURES[degree])
    finally:
        ring._image_lattice.cache_clear()


def test_cokernel_pins():
    assert str(cokernel(4)) == "Z/2"
    assert cokernel(8) == FPAbelianGroup(0)
    c20 = cokernel(20)
    assert c20.rank == 0 and c20.torsion == (2, 2)
    assert cokernel_representatives(20) == [(5, 0, 0, 0), (1, 0, 0, 1)]


def test_functional_wrappers():
    """Dict inputs combine through normal_form and the element operators."""
    b2, b4 = normal_form({(1, 0, 0, 0): 1}), normal_form({(0, 0, 1, 0): 1})
    assert b2 + normal_form({(1, 0, 0, 0): 2}) == B2.scale(3)
    assert b4 * b4 == normal_form({(0, 0, 2, 0): 1}) == B4 * B4


def test_rendering():
    x = normal_form({(0, 0, 1, 0): 387, (2, 0, 0, 0): 2})
    assert render_element_text(x) == "387*b4 + 2*b2^2"
    assert render_element_text(JFElement({})) == "0"
    assert render_element_text(ONE) == "1"
    assert render_element_text(-B3) == "-b3"


def test_element_json_round_trip():
    # every monomial, ascending, with its coefficient as a string
    x = normal_form({(1, 2, 1, 0): -7, (0, 0, 0, 2): 3, (3, 0, 0, 0): 10 ** 30})
    assert render_element_json(x) == [
        {"a": 0, "b": 0, "e": 0, "g": 2, "c": "3"},
        {"a": 1, "b": 2, "e": 1, "g": 0, "c": "-7"},
        {"a": 3, "b": 0, "e": 0, "g": 0, "c": str(10 ** 30)}]
    assert render_element_json(JFElement({})) == []


def test_pow_and_scale():
    assert B2 ** 3 == B2 * B2 * B2
    assert B2 ** 0 == ONE
    assert 2 * B2 == B2.scale(2) == B2 * 2
    with pytest.raises(ValueError):
        B2 ** -1


def test_immutability():
    with pytest.raises(AttributeError):
        B2.coeffs = {}


def test_normal_form_property_suite():
    # a seed apart from the acceptance gate's default
    assert normal_form_homomorphism(1000, seed=20261103) >= 1000
