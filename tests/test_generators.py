import copy
from functools import reduce
from operator import mul

import pytest

from jfl import generators
from jfl.cli import main
from jfl.generators import (CALIBRATION, discriminant, eisenstein_c4,
                            eisenstein_c6, gen_a, gen_b2, gen_b3, gen_b4,
                            gen_b8, generator_table, mf_embedding_report,
                            stabilizer_power, theta_quotient, verify_relation,
                            verify_discriminant_identity, verify_mf_embedding)
from jfl.series import (BadExponent, QYSeries, exact_divide, make_series,
                        render_json_dict)
from jfl.spectral import DEFAULT_MAX_DEGREE_GUARD
from oracles import (b2_b4_oracle, dict_product, divisor_power_sum,
                     q_product, theta_block_oracle, xi_square_oracle)

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


def test_zero_differences_of_either_parity_agree(tab):
    # b3 is odd and b2 even, but b3 - b3 and b2 - b2 are one zero series
    odd_zero, even_zero = tab.b3 - tab.b3, tab.b2 - tab.b2
    assert odd_zero == even_zero
    assert hash(odd_zero) == hash(even_zero)
    assert render_json_dict(odd_zero) == render_json_dict(even_zero)


def test_b2_square_anchor(tab):
    sq = tab.b2 * tab.b2
    assert sq.q_layer(0) == {-4: 1, -2: 20, 0: 102, 2: 20, 4: 1}


def test_z0_specializations(tab):
    # at y = 1 a weight-0 weak Jacobi form is a weight-0 modular form, so
    # a constant: 12 for b2, 2 for b3, 6 for b4, 3 for b8; a vanishes
    for name, c in (("a", 0), ("b2", 12), ("b3", 2), ("b4", 6), ("b8", 3)):
        assert getattr(tab, name).specialize_z0() == [c] + [0] * (T - 1), name


def test_y_support_grows_linearly(tab):
    # index m generators live in y-width m around each q-layer
    for name, index in (("a", 1), ("b2", 2), ("b3", 3), ("b4", 4), ("b8", 8)):
        f = getattr(tab, name)
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
        f = getattr(tab, name) * tab.a
        assert exact_divide(f, tab.a) == getattr(tab, name)


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


@pytest.mark.parametrize("build, k, factor", [(eisenstein_c4, 3, 240),
                                              (eisenstein_c6, 5, -504)])
def test_eisenstein_sieve_matches_trial_division(build, k, factor):
    want = make_series([(0, 0, 1)] + [(n, 0, factor * divisor_power_sum(n, k))
                                      for n in range(1, 130)], 130)
    assert build(130) == want
    assert build(1) == QYSeries.one(1)


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


def test_identities_at_the_default_guard():
    # the widest window a guarded `verify --qmax` can ask for
    N = DEFAULT_MAX_DEGREE_GUARD
    assert verify_relation(N)
    assert mf_embedding_report(N) == {"c4": True, "c6": True,
                                      "delta": True, "mf_relation": True}
    t = generator_table(N)
    a2 = dict_product(t.a, t.a)
    a4 = dict_product(a2, a2)
    assert t.a ** 12 == dict_product(dict_product(a4, a4), a4)
    for factors in ((t.b2, t.b2, t.b8), (t.b4, t.b4, t.b4),
                    (t.b2, t.b3, t.b3, t.b4)):
        assert reduce(mul, factors) == reduce(dict_product, factors)


# the identities each generator enters, as mf_embedding_report and
# verify_relation group them
IDENTITIES_OF = {"b2": {"relation", "c4", "c6", "delta"},
                 "b3": {"relation", "c6", "delta"},
                 "b4": {"relation", "c4", "c6", "delta"},
                 "b8": {"relation", "delta"}}


@pytest.mark.parametrize("name", sorted(IDENTITIES_OF))
@pytest.mark.parametrize("n", [0, T - 1])
def test_a_perturbed_generator_fails_its_identities(monkeypatch, name, n):
    # one q-term of one generator off by one in a fresh table: every
    # identity that contains it must fail, the others still hold
    t = generators.GeneratorTable(T)
    f = getattr(t, name)
    t.__dict__[name] = f + make_series([(n, f.parity, 1)], T)
    monkeypatch.setattr(generators, "generator_table", lambda N: t)
    report = dict(mf_embedding_report(T), relation=verify_relation(T))
    assert {k for k, ok in report.items() if not ok} == IDENTITIES_OF[name]


# twice the Jacobi index of each generator: a = phi_(-1,1/2),
# b2 = phi_(0,1), b3 = phi_(0,3/2), b4 = phi_(0,2), b8 = phi_(0,4)
TWICE_INDEX = {"a": 1, "b2": 2, "b3": 3, "b4": 4, "b8": 8}


def _off_elliptic_invariance(f, twice_m):
    """The (n, r2) of f, and of the terms whose partner f holds, where
    c(n, r) = (-1)^(2m) c(n + r + m, r + 2m) fails with the term and its
    partner below the truncation; r2 = 2r."""
    sign = -1 if twice_m % 2 else 1
    terms, trunc = f._terms, f.truncation
    preimages = {(n - (r2 - twice_m) // 2, r2 - 2 * twice_m) for n, r2 in terms}
    off = []
    for n, r2 in sorted(set(terms) | preimages):
        pn, pr2 = n + (r2 + twice_m) // 2, r2 + 2 * twice_m
        if (0 <= n < trunc and pn < trunc
                and terms.get((pn, pr2), 0) != sign * terms.get((n, r2), 0)):
            off.append((n, r2))
    return off


def test_each_generator_is_its_jacobi_form():
    # the elliptic invariance of weak Jacobi forms, on every term whose
    # partner lies below q^65; a b4 with one coefficient changed fails
    tab = generator_table(65)
    for name, twice_m in TWICE_INDEX.items():
        assert _off_elliptic_invariance(getattr(tab, name), twice_m) == [], name
    b4 = tab.b4 + make_series([(10, 0, 1)], 65)
    assert (10, 0) in _off_elliptic_invariance(b4, TWICE_INDEX["b4"])


def test_b4_does_not_come_from_a_and_b2(monkeypatch):
    # b4 = (b2^2 - E4 a^4)/24 would make the c4 line hold whatever a and
    # b2 are; b4 comes from the theta squares, so with a and b2 each off
    # at one q-term b4 is unchanged and the c4 line fails
    expected = gen_b4(T)
    for name in ("gen_a", "gen_b2"):
        build = getattr(generators, name)

        def off(N, build=build):
            f = build(N)
            return f + make_series([(1, f.parity, 1)], N)

        monkeypatch.setattr(generators, name, off)
    generators._xi_square_parts.cache_clear()
    t = generators.GeneratorTable(T)
    monkeypatch.setattr(generators, "generator_table", lambda N: t)
    assert generators.gen_b4(T) == expected
    assert t.a != gen_a(T) and t.b2 != gen_b2(T)
    assert mf_embedding_report(T)["c4"] is False


def test_generator_functions_match_table(tab):
    assert gen_a(T) == tab.a
    assert gen_b2(T) == tab.b2
    assert gen_b3(T) == tab.b3
    assert gen_b4(T) == tab.b4
    assert gen_b8(T) == tab.b8
    assert hash(tab) == hash(generator_table(T))  # frozen and hashable


def test_table_builds_only_what_is_asked(monkeypatch, capsys):
    # b2 and b4 alone need the theta-constant squares; a, b3 and b8 and
    # `expand --gen a` must not touch them
    def unreachable(*args):
        raise AssertionError("theta squares built for a, b3 or b8")

    monkeypatch.setattr(generators, "_xi_square_parts", unreachable)
    monkeypatch.setattr(generators, "_xi_square", unreachable)
    N = 13
    # a fresh table: the cached one may already hold b2 from another test
    t = generators.GeneratorTable(N)
    assert t.a == gen_a(N)
    assert (t.b3, t.b8) == (gen_b3(N), gen_b8(N))
    assert t == generator_table(N) != generator_table(N + 1)
    assert hash(t) == hash(generator_table(N))
    assert {t, generator_table(N)} == {t}
    assert main(["expand", "--gen", "a", "--qmax", "14"]) == 0
    assert capsys.readouterr().out.startswith("-y^(-1/2) + y^(1/2)")
    with pytest.raises(AssertionError):
        t.b2


def _counting(monkeypatch, name):
    calls = []
    fn = getattr(generators, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(generators, name, counted)
    return calls


def test_table_builds_b2_b4_through_their_builders(monkeypatch):
    # the module globals gen_b2/gen_b4 are what the benchmark trace wraps
    N = 11
    expected = gen_b2(N), gen_b4(N)
    calls = {name: _counting(monkeypatch, name) for name in ("gen_b2", "gen_b4")}
    t = generators.GeneratorTable(N)
    assert (t.b2, t.b4) == expected
    assert (t.b2, t.b4) == expected
    assert calls == {"gen_b2": [(N,)], "gen_b4": [(N,)]}


@pytest.mark.parametrize("via_table", [True, False])
def test_b2_b4_share_the_theta_squares(monkeypatch, via_table):
    # theta_00 and theta_10 are squared once each for b2 and b4 together
    N = 7
    generators._xi_square_parts.cache_clear()
    calls = _counting(monkeypatch, "_xi_square")
    if via_table:
        t = generators.GeneratorTable(N)
        b2, b4 = t.b2, t.b4
    else:
        b2, b4 = gen_b2(N), gen_b4(N)
    assert len(calls) == 2
    assert b2.q_layer(0) == {-2: 1, 0: 10, 2: 1}
    assert b4.q_layer(0) == {-2: 1, 0: 4, 2: 1}


# the three-part build of b2 and b4 (E, O and C on the doubled grid,
# three products) at small N, where the theta sums keep one to three
# terms, and up to the benchmark's widest qmax, 45, and the default guard
@pytest.mark.parametrize("N", [1, 2, 3, 4, 9, 13, 33, 45, 64])
def test_b2_b4_match_the_three_part_build(N):
    assert (gen_b2(N), gen_b4(N)) == b2_b4_oracle(N)


def test_table_finds_only_builder_names(monkeypatch):
    # no gen_c4 and no gen_gen_a: AttributeError, no builder called and
    # nothing kept, and a copy, made before any slot is filled, is equal
    calls = [_counting(monkeypatch, "gen_" + name)
             for name in ("a", "b2", "b3", "b4", "b8")]
    t = generators.GeneratorTable(5)
    for name in ("c4", "gen_a"):
        with pytest.raises(AttributeError):
            getattr(t, name)
    assert calls == [[]] * 5
    assert vars(t) == {"truncation": 5, "_squares": {}}
    assert copy.copy(t) == t


def test_squares_are_built_once(tab):
    for name in ("a", "b2", "b3", "b4", "b8"):
        s = getattr(tab, name)
        assert tab.square(name) is tab.square(name)
        assert tab.square(name) == dict_product(s, s)
    assert tab.b2_b3_square is tab.b2_b3_square
    assert tab.b2_b3_square == dict_product(tab.b2, dict_product(tab.b3, tab.b3))


def test_truncation_respected():
    t = generator_table(2)
    with pytest.raises(BadExponent):
        t.b2.q_layer(2)


# -- the lacunary sums against their product formulas ------------------

def _stretch(f):
    # q^n -> Q^(2n)
    return make_series([(2 * n, r2, c) for n, r2, c in f.terms()],
                       2 * f.truncation)


# 1 and 13 put a lacunary term at the last order kept (q^0, Q^25)
@pytest.mark.parametrize("N", [1, 13, 33])
def test_lacunary_sums_match_product_formulas(N):
    M = 2 * N
    blocks = {k: theta_block_oracle(k, N) for k in (1, 2, 3)}
    eta3 = q_product(N, [(n, 0, -1) for n in range(1, N) for _ in range(3)])
    assert generators._eta_cubed(N) == eta3
    for k, block in blocks.items():
        assert generators._theta_block(k, N) == block
    odd, even = range(1, M, 2), range(2, M, 2)
    A, B, C = (
        xi_square_oracle(M, odd, 1, 4),
        xi_square_oracle(M, odd, -1, 4),
        xi_square_oracle(M, even, 1, make_series([(0, 2, 1), (0, 0, 2),
                                                   (0, -2, 1)], M)))
    # A + B and AB on the q grid, and C built there: B and the Landen
    # identity AB = 4 A(Q -> -q, y -> y^2) against their product formulas
    assert tuple(map(_stretch, generators._xi_square_parts(N))) == (
        A + B, A * B, C)

    t = generator_table(N)
    assert t.a == exact_divide(blocks[1], eta3)
    assert t.b3 == exact_divide(blocks[2], blocks[1])
    assert t.b8 == exact_divide(blocks[3], blocks[1])
    assert _stretch(t.b2) == A + B + C
    assert _stretch(t.b4).scale(8) == A * B + (A + B) * C
    assert discriminant(N) == (eta3 ** 8).shift_q(1).truncate(N)
