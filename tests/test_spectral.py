import math
import random
import types

import pytest

from jfl import ring, spectral
from jfl.lattice import (FPAbelianGroup, determinant, hermite_normal_form,
                         in_row_span, kernel_basis)
from jfl.spectral import (BigradedPage, NotAComplex,
                          UnsupportedDegree, check_tjf_groups, compare_homotopy,
                          expected_tjf_group,
                          free_kernel_lattice, group_to_json, homology_at,
                          homotopy_groups, msu_page, msu_sub_page,
                          preimage_lattice, surjectivity_check, tjf_page)
from oracles import (bareiss_determinant, basis_oracle, crooked_images,
                     d3_element, d3_monomial, homotopy_groups_spec_oracle,
                     msu_group, normalize, page_map, partition_count,
                     spec_count, spec_homology, spec_torsion_count,
                     substitution_images, surjectivity_check_oracle)
from property_suites import d3_squared_zero, signed_leibniz


class TestHomologyAt:
    # on the tjf page: d3 b2 = h1^3, and b3, b4 kill h1
    def test_cokernel_of_doubling(self, page):
        # h1 b2^2 -> 2 h1^4 b2 = 0: all of Z is the kernel, and 2Z the image
        assert homology_at(page, 9, 1) == FPAbelianGroup(0, (2,))

    def test_free_kernel(self, page):
        assert homology_at(page, 0, 0) == FPAbelianGroup(1)
        # b2^2 -> 2 b2 h1^3 = 0 and b4 -> 0
        assert homology_at(page, 8, 0) == FPAbelianGroup(2)

    def test_isomorphism_leaves_nothing(self, page):
        # h1 b2 -> h1^4 is Z/2 -> Z/2 onto: both ends vanish
        assert homology_at(page, 5, 1) == FPAbelianGroup(0)
        assert homology_at(page, 4, 4) == FPAbelianGroup(0)

    def test_kernel_of_projection_to_torsion(self, page):
        # b2^3 -> h1^3 b2^2 mod 2, b2 b4 and b3^2 -> 0: the kernel has
        # index 2 in Z^3, still a copy of Z^3
        assert homology_at(page, 12, 0) == FPAbelianGroup(3)
        assert FPAbelianGroup.from_presentation(
            3, free_kernel_lattice(page, 12)) == FPAbelianGroup(0, (2,))

    def test_isolated_torsion(self, page):
        # h1^2: nothing comes in, and filtration 5 is empty in degree 1
        assert homology_at(page, 2, 2) == FPAbelianGroup(0, (2,))

    def test_empty_middle(self, page):
        assert homology_at(page, 3, 1) == FPAbelianGroup(0)
        assert homology_at(page, 7, 0) == FPAbelianGroup(0)

    def test_not_a_complex(self):
        # with b4 surviving h1, d3 b4 = h1^3 b2 makes d3 d3 b4 = h1^6,
        # nonzero mod 2
        page = _with_d3_on_b4(_b4_survives)(16)
        with pytest.raises(NotAComplex,
                           match=r"d3 o d3 is nonzero from \(8, 0\)"):
            homotopy_groups(page)

    def test_an_incoming_column_outside_the_kernel(self, monkeypatch):
        # with the d3 o d3 check blinded, the same page's incoming column
        # at (7, 3) has an odd sum of T = 2K^-1 rows: it is not in K
        page = _with_d3_on_b4(_b4_survives)(16)
        monkeypatch.setattr(spectral, "_mod2_product", lambda d, cols: [0])
        with pytest.raises(NotAComplex, match="outside the kernel lattice"):
            homology_at(page, 7, 3)


def _key(**exps):
    # h1 first, then the rest by name, which on the five-generator pages
    # is their generator order
    h1 = exps.pop("h1", 0)
    return ((("h1", h1),) if h1 else ()) + tuple(sorted(exps.items()))


@pytest.fixture(scope="module")
def page():
    return tjf_page(24)


class TestTjfPage:
    def test_free_basis_matches_ring_order(self, page):
        assert page.basis(8, 0) == (_key(b2=2), _key(b4=1))
        for d in range(0, 25, 2):
            mons = page.basis(d, 0)
            ring_mons = ring.degree_basis(d)
            assert len(mons) == len(ring_mons)
            for m, rm in zip(mons, ring_mons):
                md = dict(m)
                assert (md.get("b2", 0), md.get("b3", 0),
                        md.get("b4", 0), md.get("b8", 0)) == rm

    def test_torsion_basis(self, page):
        assert page.basis(9, 1) == (_key(b2=2, h1=1),)
        assert page.basis(2, 2) == (_key(h1=2),)
        assert page.basis(3, 1) == ()
        assert len(page.basis(8, 0)) == 2

    def test_normalize_square_rewrite(self, page):
        out = normalize(page, [(1, {"b4": 2})])
        assert out == {_key(b2=1, b3=2): 1, _key(b8=1): -4}

    def test_b8_rules_b4(self):
        # the one C generator, b8 (degree 16), rules b4 (degree 8)
        for max_degree in range(65):
            assert tjf_page(max_degree).spec.rewrite_rules == {
                "b4": ((1, {"b2": 1, "b3": 2}), (-4, {"b8": 1}))}

    def test_normalize_kills_torsion_products(self, page):
        assert normalize(page, [(1, {"b3": 1, "h1": 1})]) == {}
        assert normalize(page, [(1, {"b4": 1, "h1": 2})]) == {}
        assert normalize(page, [(3, {"b2": 1, "h1": 2})]) == {_key(b2=1, h1=2): 1}

    def test_d3_values(self, page):
        assert d3_monomial(page, _key(b2=1)) == {_key(h1=3): 1}
        assert d3_monomial(page, _key(b2=2)) == {}
        assert d3_monomial(page, _key(b2=3)) == {_key(b2=2, h1=3): 1}
        assert d3_monomial(page, _key(b2=1, b3=1)) == {}
        assert d3_monomial(page, _key(b4=1)) == {}
        assert page.d3_matrix(4, 0) == (1,)

    def test_degree4_homology_is_doubled_line(self, page):
        assert homology_at(page, 4, 0) == FPAbelianGroup(1)
        assert free_kernel_lattice(page, 4) == [[2]]

    def test_homology_against_enumeration_oracle(self):
        # through the default guard
        _, rows, ok = compare_homotopy("tjf", spectral.DEFAULT_MAX_DEGREE_GUARD)
        assert ok and len(rows) == 65
        assert all(r["match"] for r in rows)


def test_sub_page_is_tjf_page_renamed():
    # also below 16, where the msu page has no C8 and no rule for B4
    rename = {"h1": "h1", "B2": "b2", "B3": "b3", "B4": "b4", "C8": "b8"}

    def renamed(mons):
        return tuple(tuple((rename[n], e) for n, e in m) for m in mons)

    for max_degree in (0, 5, 15, 16, 24, 32, 40):
        sub, tjf = msu_sub_page(max_degree), tjf_page(max_degree)
        for d in range(max_degree + 1):
            for s in range(d + 1):
                assert renamed(sub.basis(d, s)) == tjf.basis(d, s), (d, s)
                assert sub.d3_matrix(d, s) == tjf.d3_matrix(d, s), (d, s)


def test_homotopy_groups_pinned_list():
    groups = homotopy_groups(tjf_page(10))
    assert [str(groups[n]) for n in range(11)] == [
        "Z", "Z/2", "Z/2", "0", "Z", "0", "Z", "0",
        "Z^2", "Z/2", "Z + Z/2",
    ]


def test_a_poisoned_torsion_matrix_shows_against_the_spec_oracle():
    # d3(h1^s b2) = h1^(s + 3), so the torsion matrix of d - s = 4 is one
    # column, 1.  Zeroed in the page's cache, it leaves a Z/2 at (5, 1)
    # and (4, 4); the spec oracle builds its own columns and keeps 0 there
    page, fresh = tjf_page(24), tjf_page(24)
    assert page.d3_matrix(5, 1) == (1,)
    page._matrix_cache[4] = (0,)
    spec = spec_homology(page)
    for d, s in ((5, 1), (4, 4)):
        assert homology_at(page, d, s) == FPAbelianGroup(0, (2,)), (d, s)
        assert spec(d, s) == FPAbelianGroup(0) == homology_at(fresh, d, s)
    assert homotopy_groups_spec_oracle(spec, 24) == homotopy_groups(fresh)


@pytest.mark.parametrize("page_of", [tjf_page, msu_page])
def test_homotopy_groups_are_the_spec_count(page_of):
    # Z^free_count(n) plus (Z/2)^even(n - s) for s = 1, 2, counted from
    # the spec with no basis or lattice, through 64
    page = page_of(64)
    assert homotopy_groups(page) == {
        n: FPAbelianGroup(rank, (2,) * z2)
        for n, (rank, z2) in spec_count(page).items()}


def test_homotopy_groups_compute_each_sector_key_once(monkeypatch):
    # one call per n - s and kind: s = 0, s = 1 or 2, s >= 3 through 64
    calls = []

    def counted(page, d, s):
        calls.append((d, s))
        return homology_at(page, d, s)

    monkeypatch.setattr(spectral, "homology_at", counted)
    homotopy_groups(msu_page(64))
    assert len(calls) == len(set(calls)) == 65 + 64 + 62


def test_homotopy_groups_build_one_kernel_lattice_per_d3_matrix(monkeypatch):
    # the sector kinds of one n - s, and repeated matrices, share K
    calls = []

    def counted(d_out):
        calls.append(d_out)
        return preimage_lattice(d_out)

    monkeypatch.setattr(spectral, "preimage_lattice", counted)
    page = msu_page(64)
    homotopy_groups(page)
    matrices = {page.d3_matrix(n, s) for n in range(65)
                for s in range(1, n + 1) if page.basis(n, s)}
    assert len(calls) == len(set(calls)) == len(matrices)
    assert set(calls) == matrices


@pytest.mark.parametrize("page", [
    tjf_page(0), tjf_page(8), msu_page(3), msu_page(17), msu_sub_page(12)])
def test_homotopy_groups_cover_the_page(page):
    # exactly the degrees 0 to the page's own max_degree, in order
    assert list(homotopy_groups(page)) == list(range(page.max_degree + 1))


def test_expected_tjf_group_pins():
    assert expected_tjf_group(0) == FPAbelianGroup(1)
    assert expected_tjf_group(9) == FPAbelianGroup(0, (2,))
    assert expected_tjf_group(10) == FPAbelianGroup(1, (2,))
    assert expected_tjf_group(17) == FPAbelianGroup(0, (2, 2))
    assert expected_tjf_group(25) == FPAbelianGroup(0, (2, 2))


@pytest.mark.parametrize("page_of", [tjf_page, msu_page])
def test_basis_matches_recursive_enumeration(page_of):
    page = page_of(spectral.DEFAULT_MAX_DEGREE_GUARD)
    for d in range(page.max_degree + 1):
        for s in range(d + 1):
            assert page.basis(d, s) == basis_oracle(page, d, s), (d, s)


@pytest.mark.parametrize("page_of, max_degree",
                         [(tjf_page, 64), (msu_page, 40)])
def test_free_homology_is_the_kernel_lattice_rank(page_of, max_degree):
    # the full-rank answer against the kernel lattice it skips
    page = page_of(max_degree)
    for d in range(max_degree + 1):
        kernel = preimage_lattice(page.d3_matrix(d, 0))
        assert homology_at(page, d, 0) == FPAbelianGroup(len(kernel)), d


@pytest.mark.parametrize("page_of, max_degree",
                         [(tjf_page, 128), (msu_page, 64)])
def test_free_count_is_the_basis_size(page_of, max_degree, monkeypatch):
    # the knapsack that homology_at reads at s = 0, against the basis
    monkeypatch.setenv("JFL_MAX_DEGREE_GUARD", "128")
    page = page_of(max_degree)
    assert page.free_count(-1) == 0
    for d in range(max_degree + 1):
        assert page.free_count(d) == len(page.basis(d, 0)), d


def test_partition_count_pins():
    # Euler's pentagonal recurrence behind msu_group
    assert [partition_count(k) for k in range(-1, 12)] == [
        0, 1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56]
    assert partition_count(100) == 190569292
    assert partition_count(200) == 3972999029388


def _free_ranks_off_conner_floyd(page):
    # the degrees where the page's free count is not msu_group's rank
    return [n for n in range(page.max_degree + 1)
            if page.free_count(n) != msu_group(n)[0]]


def test_msu_free_rank_is_conner_floyd_through_4096(monkeypatch):
    # the free half of the generating-function identity: each ruled B_2n
    # comes with C_4n, so the free generators count the partitions without
    # ones, read from the knapsack with no basis and no lattice.  Without
    # C16 (degree 32) the count falls short from degree 32 on
    monkeypatch.setenv("JFL_MAX_DEGREE_GUARD", "4096")
    assert _free_ranks_off_conner_floyd(msu_page(4096)) == []
    spec = msu_page(64).spec
    without_c16 = BigradedPage(spec._replace(generators=tuple(
        g for g in spec.generators if g.name != "C16")))
    assert _free_ranks_off_conner_floyd(without_c16)[0] == 32


def test_msu_spec_torsion_is_conner_floyd_through_4096(monkeypatch):
    # the torsion half of the generating-function identity: even(8k)
    # counts monomials in B2^2 and the C_4n, so p(k) of them, in degrees
    # 8k + 1 and 8k + 2; counts, since p(512) Z/2 would not fit a tuple.
    # Without C16 (degree 32) the count falls short from degree 33 on
    monkeypatch.setenv("JFL_MAX_DEGREE_GUARD", "4096")
    counts = spec_torsion_count(msu_page(4096).spec)
    assert counts == [msu_group(n)[1] for n in range(4097)]
    spec = msu_page(64).spec
    counts = spec_torsion_count(spec._replace(generators=tuple(
        g for g in spec.generators if g.name != "C16")))
    assert min(n for n in range(65) if counts[n] != msu_group(n)[1]) == 33


def test_tjf_free_count_is_the_ring_basis_size(monkeypatch):
    monkeypatch.setenv("JFL_MAX_DEGREE_GUARD", "512")
    page = tjf_page(512)
    for n in range(513):
        assert page.free_count(n) == len(ring.degree_basis(n)), n


@pytest.mark.parametrize("page_of, max_degree",
                         [(tjf_page, 128), (msu_page, 96)])
def test_d3_is_a_partial_matching_with_diagonal_kernel_lattices(
        page_of, max_degree, monkeypatch):
    # over F2 each d3 matrix sends a monomial to at most one monomial, and
    # no two to the same one; so the kernel lattice of a torsion d3 matrix
    # is diagonal, 2 at a nonzero column and 1 at a zero one
    monkeypatch.setenv("JFL_MAX_DEGREE_GUARD", "128")
    page = page_of(max_degree)
    torsion = set()
    for d in range(max_degree + 1):
        for s in range(d + 1):
            bits = [c for c in page.d3_matrix(d, s) if c]
            assert all(c & (c - 1) == 0 for c in bits), (d, s)
            assert len(set(bits)) == len(bits), (d, s)
            if s:
                torsion.add(page.d3_matrix(d, s))
    for columns in torsion:
        assert preimage_lattice(columns) == [
            [(2 if c else 1) if i == j else 0 for j in range(len(columns))]
            for i, c in enumerate(columns)], columns


@pytest.mark.parametrize("page_of, max_degree",
                         [(tjf_page, 64), (msu_page, 40)])
def test_torsion_homology_is_the_f2_count(page_of, max_degree):
    # for s >= 1, H(n, s) = (Z/2)^(c_k - r_k - [s >= 3] r_(k+4)), k = n - s:
    # c_k is the number of h1-survivor monomials of degree k and r_k the
    # F2 rank of d3 on h1 times them, the same for every s >= 1
    page = page_of(max_degree)
    size, rank = {}, {}
    for k in range(max_degree + 4):
        size[k] = len(page.basis(k + 1, 1))
        rank[k] = spectral._f2_rank(page.d3_matrix(k + 1, 1))
    for n in range(max_degree + 1):
        for s in range(1, n + 1):
            k = n - s
            dim = size[k] - rank[k] - (rank[k + 4] if s >= 3 else 0)
            assert homology_at(page, n, s) == FPAbelianGroup(0, (2,) * dim), (n, s)


def test_preimage_lattice_on_random_f2_columns():
    # on up to 8 columns, zero columns and zero top rows included: the
    # same HNF as with the zero rows kept, D x = 0 mod 2 on every row x,
    # 2e_i in the lattice, and index 2^rank_F2(D)
    rng = random.Random(20261019)
    for _ in range(400):
        n, rows = rng.randrange(9), rng.randrange(9)
        d_out = tuple(0 if rng.random() < 0.25 else rng.getrandbits(rows)
                      for _ in range(n))
        hnf = preimage_lattice(d_out)
        # the kernel of [D | 2I] with all `rows` rows, zero ones included
        aug = [[(c >> i) & 1 for c in d_out] + [2 * (i == j) for j in range(rows)]
               for i in range(rows)]
        assert hnf == hermite_normal_form(
            [v[:n] for v in kernel_basis(aug, ncols=n + rows)], n), d_out
        for x in hnf:
            bits = sum((v & 1) << j for j, v in enumerate(x))
            assert spectral._mod2_product(d_out, [bits]) == [0], (d_out, x)
        for i in range(n):
            assert in_row_span(hnf, [2 * (i == j) for j in range(n)]), d_out
        pivots = [next(v for v in row if v) for row in hnf]
        assert math.prod(pivots) == 2 ** spectral._f2_rank(d_out), d_out


def _with_d3_on_b4(page_of, coeff=1):
    # with _b4_survives, the altered page of test_not_a_complex
    def build(max_degree):
        spec = page_of(max_degree).spec
        return BigradedPage(spec._replace(
            d3=dict(spec.d3, b4=((coeff, {"h1": 3, "b2": 1}),))))
    return build


def _without_even_killers(page_of, even_killer):
    # the altered pages of test_deviations_are_what_the_tables_need
    def build(max_degree):
        spec = page_of(max_degree).spec
        return BigradedPage(spec._replace(torsion_killers=frozenset(
            n for n in spec.torsion_killers if not even_killer(n))))
    return build


def _b4_survives(max_degree):
    return _without_even_killers(tjf_page, lambda n: n == "b4")(max_degree)


def _or_error(f, *args):
    try:
        return f(*args)
    except NotAComplex as exc:
        return str(exc)


_ORACLE_PAGES = [
    (tjf_page, 64), (msu_page, 64), (msu_sub_page, 64), (_b4_survives, 32),
    (_without_even_killers(msu_page, lambda n: int(n[1:]) % 2 == 0), 32),
    (_with_d3_on_b4(_b4_survives), 32),
    (_with_d3_on_b4(_b4_survives, coeff=2), 32),
]
_ORACLE_IDS = ["tjf", "msu", "msu sub", "tjf, b4 survives",
                "msu, B2n survive", "tjf, d3 b4 and b4 survives",
                "tjf, d3 b4 even and b4 survives"]


@pytest.mark.parametrize("page_of, max_degree", _ORACLE_PAGES,
                         ids=_ORACLE_IDS)
def test_homology_at_matches_the_oracle(page_of, max_degree):
    # every s >= 1 bidegree, in the order homotopy_groups meets them, so
    # the kernel lattices kept on the page are reused across sectors, then
    # the totals of a fresh page; on a page that is no complex both raise
    # the same NotAComplex
    page = page_of(max_degree)
    spec = spec_homology(page)
    for n in range(max_degree + 1):
        for s in range(1, n + 1):
            assert (_or_error(homology_at, page, n, s)
                    == _or_error(spec, n, s)), (n, s)
    assert (_or_error(homotopy_groups, page_of(max_degree))
            == _or_error(homotopy_groups_spec_oracle, spec, max_degree))


@pytest.mark.parametrize("page_of, max_degree", _ORACLE_PAGES,
                         ids=_ORACLE_IDS)
def test_torsion_above_filtration_zero_is_elementary_abelian(page_of,
                                                              max_degree):
    # 2Z^n is among the relations at s >= 1, so every torsion order is 2,
    # which homotopy_groups relies on when it counts the Z/2s
    page, orders = page_of(max_degree), set()
    for n in range(max_degree + 1):
        for s in range(1, n + 1):
            h = _or_error(homology_at, page, n, s)
            if not isinstance(h, str):
                orders.update(h.torsion)
    assert orders == {2}


@pytest.mark.parametrize("page_of, max_degree", _ORACLE_PAGES,
                         ids=_ORACLE_IDS)
def test_torsion_incoming_matches_the_dense_matrix(page_of, max_degree):
    # the s = 3 relations homology_at reads, the torsion columns of h1
    # times the survivor monomials, against every column of the dense
    # free-sector d3_matrix, every free monomial's column
    page = page_of(max_degree)
    for d in range(max_degree + 1):
        torsion, free = page.d3_matrix(d + 2, 1), page.d3_matrix(d + 1, 0)
        assert set(torsion) - {0} == set(free) - {0}, d


@pytest.mark.parametrize("page_of, max_degree", [
    (tjf_page, 128), (msu_page, 64), (msu_sub_page, 96),
    (_with_d3_on_b4(_b4_survives), 32),
    (_with_d3_on_b4(_b4_survives, coeff=2), 32),
], ids=["tjf_page", "msu_page", "msu_sub_page",
        "tjf, d3 b4 and b4 survives", "tjf, d3 b4 even and b4 survives"])
def test_d3_matrix_columns_are_all_of_d3(page_of, max_degree, monkeypatch):
    # each column, read straight from the key, read back as a page element
    # is d3 of its monomial by the signed Leibniz rule over Z through the
    # page's rewrites: every target lies in a Z/2 group, so no coefficient
    # other than 1.  On the altered pages b4 survives h1 and has a d3
    # rule too; on the last the rule is 2 h1^3 b2, zero mod 2
    monkeypatch.setenv("JFL_MAX_DEGREE_GUARD", "128")
    page = page_of(max_degree)
    for d in range(max_degree + 1):
        for s in range(d + 1):
            dst = page.basis(d - 1, s + 3)
            for m, col in zip(page.basis(d, s), page.d3_matrix(d, s)):
                element = {k: 1 for i, k in enumerate(dst) if col >> i & 1}
                assert element == d3_element(page, {m: 1}), (d, s, m)


@pytest.mark.parametrize("target", [{"h1": 2}, {"h1": 3, "b4": 1},
                                    {"h1": 3, "b3": 1}, {"h1": 3, "c": 1}])
def test_d3_targets_must_be_h1_cubed_times_uncapped_survivors(target):
    # h1^2 leaves the page's two shapes, b4 is capped, b3 kills h1 and c
    # is not a generator: the monomials g m could miss columns, so such a
    # page is refused
    spec = tjf_page(16).spec
    with pytest.raises(ValueError, match="not h1\\^3 times uncapped survivors"):
        BigradedPage(spec._replace(d3={"b2": ((1, target),)}))


def test_a_d3_rule_on_an_h1_killer_is_refused(monkeypatch):
    # b4 h1 = 0 but d3(b4 h1) = d3(b4) h1 = h1^4 b2: no derivation; the
    # sub-page of an msu page altered alike is refused too
    with pytest.raises(ValueError, match="d3 b4: b4 kills h1"):
        _with_d3_on_b4(tjf_page)(16)
    spec = msu_page(16).spec
    altered = spec._replace(d3=dict(spec.d3, B4=((1, {"h1": 3, "B2": 1}),)))
    monkeypatch.setattr(spectral, "msu_page",
                        lambda max_degree: types.SimpleNamespace(spec=altered))
    with pytest.raises(ValueError, match="d3 B4: B4 kills h1"):
        msu_sub_page(16)


@pytest.mark.parametrize("name", ["h1", "c"])
def test_a_d3_rule_on_h1_or_off_the_page_is_refused(name):
    # a rule on h1 would reach every torsion key, so d3 would no longer be
    # one matrix per d - s; a rule on a name the page lacks would be read
    # by nothing
    spec = tjf_page(16).spec
    with pytest.raises(ValueError, match="d3 %s: only a generator" % name):
        BigradedPage(spec._replace(d3=dict(spec.d3,
                                           **{name: ((1, {"h1": 3}),)})))


@pytest.mark.parametrize("page_of, max_degree", [(tjf_page, 24),
                                                 (msu_page, 32)])
def test_free_and_torsion_d3_matrices_do_not_alias(page_of, max_degree):
    # d3_matrix(d, 0) and d3_matrix(d + 1, 1) share d - s, and (d - 1, -1)
    # is empty: asked in either order on fresh pages, each is its own map
    free_first, torsion_first = page_of(max_degree), page_of(max_degree)
    for d in range(-1, max_degree + 1):
        free = free_first.d3_matrix(d, 0)
        torsion = free_first.d3_matrix(d + 1, 1)
        assert torsion_first.d3_matrix(d - 1, -1) == (), d
        assert torsion_first.d3_matrix(d + 1, 1) == torsion, d
        assert torsion_first.d3_matrix(d, 0) == free, d
        assert len(free) == len(free_first.basis(d, 0)), d
        assert len(torsion) == len(free_first.basis(d + 1, 1)), d


class TestMsuPage:
    def test_generator_roster(self):
        page = msu_page(16)
        names = [g.name for g in page.spec.generators]
        assert names == ["B2", "B3", "B4", "B5", "B6", "B7", "B8", "C8"]
        assert len(page.basis(16, 0)) == 7

    def test_square_rules_only_within_the_page(self):
        # each C_4n (degree 8n) on the page rules B_2n by the squared
        # relation, in C order; B6^2 (degree 24) lies past msu_page(16):
        # no C12, no rule, so B6 is uncapped
        for max_degree in range(65):
            rules = msu_page(max_degree).spec.rewrite_rules
            assert list(rules.items()) == [
                ("B%d" % (2 * n), ((1, {"B2": 1, "B%d" % (2 * n - 1): 2}),
                                   (-4, {"C%d" % (4 * n): 1})))
                for n in range(2, max_degree // 8 + 1)]
        # B4^2 is tabled and rewrites cleanly
        out = normalize(msu_page(16), [(1, {"B4": 2})])
        assert out == {_key(B2=1, B3=2): 1, _key(C8=1): -4}

    def test_table_check(self):
        _, rows, ok = compare_homotopy("msu", 16)
        assert ok
        assert len(rows) == 17
        assert all(r["match"] for r in rows)
        assert all("deviations_adopted" not in r for r in rows)

    # every page size through 48, among them each 8n - 1, where B_2n's
    # square lies one degree past the page and has no rule; and the
    # default guard
    @pytest.mark.parametrize("max_degree", [
        *range(49), spectral.DEFAULT_MAX_DEGREE_GUARD])
    def test_homotopy_pinned_through_default_guard(self, max_degree):
        # (n, rank, number of Z/2 summands)
        _, rows, _ = compare_homotopy("msu", max_degree)
        assert len(rows) == max_degree + 1
        assert all(set(r["torsion"]) <= {2} for r in rows)
        got = [[r["n"], r["rank"], len(r["torsion"])] for r in rows]
        # the classical closed form (Conner-Floyd), msu_group
        assert got == [[n, *msu_group(n)] for n in range(len(rows))]
        if max_degree == spectral.DEFAULT_MAX_DEGREE_GUARD:
            assert sum(g[1] for g in got) == 8349
            assert sum(g[2] for g in got) == 90

    def test_below_the_first_generator(self):
        # B2 (degree 4) is on every page, so h1^3 dies in degree 3 too
        for n in range(4):
            assert compare_homotopy("msu", n)[2]


def test_check_tjf_groups_report():
    # the page's free kernel lattice against the ring's certified diagonal
    # in every even degree through the default guard
    guard = spectral.DEFAULT_MAX_DEGREE_GUARD
    report = check_tjf_groups(guard)
    assert report["status"] == "ok"
    assert len(report["image_rows"]) == guard // 2 + 1
    assert all(r["match"] for r in report["rows"])
    assert all(r["match"] for r in report["image_rows"])
    assert report["image_rows"][2]["degree"] == 4
    assert report["image_rows"][2]["cokernel"] == {"rank": 0, "torsion": [2]}
    # the deviations go in the CLI envelope, not in the report
    assert list(report) == ["status", "rows", "image_rows"]
    assert all(list(r) == ["degree", "lattice_match", "cokernel", "match"]
               for r in report["image_rows"])


def test_group_to_json():
    assert group_to_json(FPAbelianGroup(2, (2, 4))) == {"rank": 2,
                                                        "torsion": [2, 4]}


def _mismatches(page, expected_of):
    return {n: (got, expected_of(n)) for n, got in homotopy_groups(page).items()
            if got != expected_of(n)}


@pytest.mark.parametrize("page_of, expected_of, even_killer, degrees", [
    (tjf_page, expected_tjf_group, lambda n: n == "b4", {9, 10}),
    (msu_page, spectral.expected_msu_group,
     lambda n: int(n[1:]) % 2 == 0, {9, 10, 13, 14}),
])
def test_deviations_are_what_the_tables_need(page_of, expected_of, even_killer,
                                             degrees):
    # b4*h1=0 and B2n*h1=0: with the even killers every row through 16
    # matches; without them degree 9 gets (Z/2)^2 against the table's Z/2
    page = page_of(16)
    assert not _mismatches(page, expected_of)
    killers = page.spec.torsion_killers
    assert any(map(even_killer, killers))
    fewer = page.spec._replace(torsion_killers=frozenset(
        n for n in killers if not even_killer(n)))
    mismatches = _mismatches(BigradedPage(fewer), expected_of)
    assert set(mismatches) == degrees
    assert mismatches[9] == (FPAbelianGroup(0, (2, 2)), FPAbelianGroup(0, (2,)))


_right_images = spectral._substitution_images
_right_sub_page = spectral.msu_sub_page
_right_msu_page = spectral.msu_page
_right_torsion_columns = spectral._torsion_columns


def _opposite_c8_sign(n_param):
    images = dict(_right_images(n_param))
    images["C8"] = -images["C8"]
    return images


def _page_map_with_the_opposite_c8_sign(target, images):
    # the same on the oracle's own phi_N
    return page_map(target, dict(images, C8=tuple(
        (-c, m) for c, m in images["C8"])))


def _crooked_page_map(target, images):
    # crooked_images, the same for every N, as page terms: a ring monomial
    # lists the exponents of b2, b3, b4 and b8
    return page_map(target, {
        name: tuple((c, dict(zip(("b2", "b3", "b4", "b8"), mono)))
                    for mono, c in x.coeffs.items())
        for name, x in crooked_images(0).items()})


def _sub_page_with(max_degree, **changes):
    spec = _right_sub_page(max_degree).spec
    return spectral.BigradedPage(spec._replace(**changes))


def _sub_page_without_d3(max_degree):
    return _sub_page_with(max_degree, d3={})


def _sub_page_without_c8(max_degree):
    spec = _right_sub_page(max_degree).spec
    return _sub_page_with(max_degree, generators=tuple(
        g for g in spec.generators if g.name != "C8"))


def _sub_page_where_b3_survives_h1(max_degree):
    return _sub_page_with(max_degree, torsion_killers=frozenset({"B4"}))


def _page_map_without_torsion(target, images):
    # phi_N with every h1 term of its argument dropped
    phi = page_map(target, images)
    return lambda x: phi({k: c for k, c in x.items() if not dict(k).get("h1")})


def _torsion_columns_without_torsion(sub, target, image, k):
    # the same in surjectivity_check: every torsion column is zero
    return [0] * len(sub.basis(k + 1, 1))


_TWIST = (("B2", 1), ("C8", 1))


def _page_map_with_a_torsion_twist(target, images):
    # h1^s B2 C8 (s >= 1) also gains h1^s b2^5: the same term for every
    # s, so it depends on d - s only, and a unitriangular change mod 2,
    # so the sector stays bijective.  d3 of it is h1^(s+3) b2^4 mod 2,
    # which phi(d3 (h1^s B2 C8)) = phi(h1^(s+3) C8) lacks: first met at
    # (21, 1), after every free sector below it has passed
    phi = page_map(target, images)

    def twisted(x):
        terms = [(c, dict(k)) for k, c in phi(x).items()]
        for key, c in x.items():
            s = dict(key).get("h1", 0)
            if s and tuple(p for p in key if p[0] != "h1") == _TWIST:
                terms.append((c, {"h1": s, "b2": 5}))
        return normalize(target, terms)

    return twisted


def _torsion_columns_with_a_twist(sub, target, image, k):
    # the same twist in surjectivity_check's torsion columns
    columns = list(_right_torsion_columns(sub, target, image, k))
    index = {m[1:]: i for i, m in enumerate(target.basis(k + 1, 1))}
    for j, m in enumerate(sub.basis(k + 1, 1)):
        if m[1:] == _TWIST:
            columns[j] ^= 1 << index[(("b2", 5),)]
    return columns


# (name in spectral, replacement) per broken case
BROKEN = {
    "crooked substitution": ("_substitution_images", crooked_images),
    "opposite C8 sign": ("_substitution_images", _opposite_c8_sign),
    "sub page without d3": ("msu_sub_page", _sub_page_without_d3),
    "sub page without C8": ("msu_sub_page", _sub_page_without_c8),
    "B3 survives h1": ("msu_sub_page", _sub_page_where_b3_survives_h1),
    "phi kills h1": ("_torsion_columns", _torsion_columns_without_torsion),
    "torsion twist": ("_torsion_columns", _torsion_columns_with_a_twist),
}

# the oracle's phi_N for the broken cases that change phi_N itself
ORACLE_PAGE_MAP = {
    "crooked substitution": _crooked_page_map,
    "opposite C8 sign": _page_map_with_the_opposite_c8_sign,
    "phi kills h1": _page_map_without_torsion,
    "torsion twist": _page_map_with_a_torsion_twist,
}


def _msu_page_with(change):
    def page(max_degree):
        spec = _right_msu_page(max_degree).spec
        return spectral.BigradedPage(spec._replace(**change(spec)))
    return page


def _flip_the_c8_term(spec):
    rule = tuple((-c if "C8" in m else c, m)
                 for c, m in spec.rewrite_rules["B4"])
    return {"rewrite_rules": dict(spec.rewrite_rules, B4=rule)}


# a change to msu_page and the first failure it causes at (1, 32)
CHANGED_MSU = {
    "B4 not a torsion killer": (
        lambda spec: {"torsion_killers": spec.torsion_killers - {"B4"}},
        {"degree": 9, "filtration": 1, "reason": "basis sizes 2 vs 1"}),
    "B4 rule sign flipped": (
        _flip_the_c8_term,
        {"degree": 16, "filtration": 0,
         "reason": "substitution breaks the rewrite rule of B4"}),
    "B3 survives h1": (
        lambda spec: {"torsion_killers": spec.torsion_killers - {"B3"}},
        {"degree": 7, "filtration": 1, "reason": "basis sizes 1 vs 0"}),
}


def test_sub_page_refuses_a_rule_naming_a_dropped_generator(monkeypatch):
    def b4_names_b5(spec):
        rule = spec.rewrite_rules["B4"] + ((1, {"B3": 1, "B5": 1}),)
        return {"rewrite_rules": dict(spec.rewrite_rules, B4=rule)}

    monkeypatch.setattr(spectral, "msu_page", _msu_page_with(b4_names_b5))
    with pytest.raises(ValueError, match="B4 names B5"):
        msu_sub_page(32)


class TestSurjectivity:
    @pytest.mark.parametrize("case", sorted(CHANGED_MSU))
    def test_a_changed_msu_page_reaches_the_check(self, monkeypatch, case):
        # the sub-page is msu_page restricted, so the check sees the change
        change, failure = CHANGED_MSU[case]
        monkeypatch.setattr(spectral, "msu_page", _msu_page_with(change))
        report = surjectivity_check(1, 32)
        assert report["status"] == "mismatch"
        assert report["first_failure"] == failure
        assert report == surjectivity_check_oracle(1, 32)

    def test_holds_for_small_parameters(self):
        for n in (-1, 0, 1, 2):
            report = surjectivity_check(n, 16)
            assert report["status"] == "ok"
            assert report["first_failure"] is None
            assert report["bidegrees_checked"] > 0
            assert report["n_param"] == n
            assert list(report) == ["status", "n_param", "max_degree",
                                    "bidegrees_checked", "first_failure"]

    def test_holds_through_default_guard(self):
        report = surjectivity_check(1, spectral.DEFAULT_MAX_DEGREE_GUARD)
        assert report["status"] == "ok"
        assert report["bidegrees_checked"] == 576

    def test_the_four_parameters_of_verify_all_share_their_pages(
            self, monkeypatch):
        # one sub-page and one target page are enumerated for N = -1..2,
        # and the guard still refuses the degree once it is lowered
        enumerated = set()
        basis = BigradedPage.basis

        def recorded(page, d, s):
            enumerated.add(page)
            return basis(page, d, s)

        monkeypatch.setattr(BigradedPage, "basis", recorded)
        for n in (-1, 0, 1, 2):
            assert surjectivity_check(n, 32)["status"] == "ok"
        assert sorted(page.free_names for page in enumerated) == [
            msu_sub_page(32).free_names, tjf_page(32).free_names]
        monkeypatch.setenv("JFL_MAX_DEGREE_GUARD", "16")
        with pytest.raises(UnsupportedDegree):
            surjectivity_check(0, 32)

    @pytest.mark.parametrize("max_degree", [16, 32, 64])
    def test_reports_match_the_per_monomial_oracle(self, max_degree):
        for n in range(-3, 4):
            assert (surjectivity_check(n, max_degree)
                    == surjectivity_check_oracle(n, max_degree)), n

    @pytest.mark.parametrize("n", [-3, 2])
    def test_matches_the_oracle_at_the_benchmark_degree(self, monkeypatch, n):
        # the scoreboard workload runs surjectivity at 96
        monkeypatch.setenv("JFL_MAX_DEGREE_GUARD", "128")
        assert surjectivity_check(n, 96) == surjectivity_check_oracle(n, 96)

    def test_free_sector_determinants_match_bareiss(self, monkeypatch):
        # every free-sector map of N = -1..2 through degree 64, as the
        # check hands it to determinant, against the Bareiss oracle
        sizes = []

        def checked(mat):
            det = determinant(mat)
            assert det == bareiss_determinant(mat), mat
            sizes.append(len(mat))
            return det

        monkeypatch.setattr(spectral, "determinant", checked)
        for n in (-1, 0, 1, 2):
            assert surjectivity_check(n, 64)["status"] == "ok"
        assert (len(sizes), max(sizes)) == (128, 30)

    def test_builds_each_torsion_sector_once(self, monkeypatch):
        # the bijectivity verdict at (k + 1, 1) and the free and torsion
        # commutation checks that read Phi(d - 1, s + 3) share one build
        built = []

        def counted(sub, target, image, k):
            built.append(k)
            return _right_torsion_columns(sub, target, image, k)

        monkeypatch.setattr(spectral, "_torsion_columns", counted)
        assert surjectivity_check(1, 64)["status"] == "ok"
        # every nonempty torsion sector through 64 is built, none twice
        assert set(range(0, 61, 4)) <= set(built)
        assert len(built) == len(set(built))

    @pytest.mark.parametrize("case", sorted(BROKEN))
    def test_broken_cases_match_the_per_monomial_oracle(self, monkeypatch,
                                                        case):
        monkeypatch.setattr(spectral, *BROKEN[case])
        oracle_map = ORACLE_PAGE_MAP.get(case, page_map)
        for n in (0, 1):
            report = surjectivity_check(n, 32)
            assert report["status"] == "mismatch"
            assert report == surjectivity_check_oracle(n, 32, oracle_map), n

    def test_the_oracle_writes_its_own_substitution(self, monkeypatch):
        # only the walk reads spectral._substitution_images: crooked, it
        # fails the walk and leaves the oracle's closed form ok
        monkeypatch.setattr(spectral, "_substitution_images", crooked_images)
        assert surjectivity_check(0, 16)["status"] == "mismatch"
        assert surjectivity_check_oracle(0, 16)["status"] == "ok"

    def test_detects_a_broken_substitution(self, monkeypatch):
        monkeypatch.setattr(spectral, *BROKEN["crooked substitution"])
        report = surjectivity_check(0, 16)
        assert report["status"] == "mismatch"
        failure = report["first_failure"]
        assert failure["degree"] == 8 and failure["filtration"] == 0
        assert "determinant" in failure["reason"]

    @pytest.mark.parametrize("n", [-3, 0, 1, 2])
    def test_substitution_respects_the_squared_relation(self, n):
        phi = spectral._substitution_images(n)
        b2, b4, b8 = ring.B2, ring.B4, ring.B8
        assert phi["C8"] == b8 + b2 * b2 * b4 * n - (b2 ** 4) * (n * n)
        assert phi["B4"] ** 2 == phi["B2"] * phi["B3"] ** 2 - phi["C8"].scale(4)

    def test_detects_the_opposite_c8_sign(self, monkeypatch):
        monkeypatch.setattr(spectral, *BROKEN["opposite C8 sign"])
        # the rule B4^2 = B2 B3^2 - 4 C8 first acts in degree 16
        assert surjectivity_check(0, 15)["status"] == "ok"
        report = surjectivity_check(0, 16)
        assert report["status"] == "mismatch"
        assert report["first_failure"] == {
            "degree": 16, "filtration": 0,
            "reason": "substitution breaks the rewrite rule of B4"}

    def test_detects_a_differential_that_does_not_commute(self, monkeypatch):
        monkeypatch.setattr(spectral, *BROKEN["sub page without d3"])
        # d3 B2 = h1^3 on the target side only
        report = surjectivity_check(0, 16)
        assert report["status"] == "mismatch"
        assert report["first_failure"] == {
            "degree": 4, "filtration": 0,
            "reason": "differential does not commute"}
        assert report["bidegrees_checked"] == 5

    def test_detects_unequal_basis_sizes(self, monkeypatch):
        monkeypatch.setattr(spectral, *BROKEN["sub page without C8"])
        # the B4 rule still holds; degree 16 then lacks C8 on the sub page
        report = surjectivity_check(0, 32)
        assert report["status"] == "mismatch"
        assert report["first_failure"] == {
            "degree": 16, "filtration": 0, "reason": "basis sizes 3 vs 4"}
        assert report["bidegrees_checked"] == 43

    def test_detects_a_failure_in_a_torsion_sector(self, monkeypatch):
        monkeypatch.setattr(spectral, *BROKEN["B3 survives h1"])
        # h1 B3 lives on the sub page only; d - s = 6 is first met at (7, 1)
        report = surjectivity_check(0, 32)
        assert report["status"] == "mismatch"
        assert report["first_failure"] == {
            "degree": 7, "filtration": 1, "reason": "basis sizes 1 vs 0"}
        assert report["bidegrees_checked"] == 11

    def test_detects_a_torsion_sector_that_is_not_bijective(self, monkeypatch):
        monkeypatch.setattr(spectral, *BROKEN["phi kills h1"])
        report = surjectivity_check(0, 32)
        assert report["first_failure"] == {
            "degree": 1, "filtration": 1,
            "reason": "torsion-sector map not bijective mod 2"}
        assert report["bidegrees_checked"] == 2

    def test_detects_a_torsion_sector_that_does_not_commute(self, monkeypatch):
        monkeypatch.setattr(spectral, *BROKEN["torsion twist"])
        report = surjectivity_check(0, 32)
        assert report["first_failure"] == {
            "degree": 21, "filtration": 1,
            "reason": "differential does not commute"}
        assert report["bidegrees_checked"] == 71


def _without_h1(mons):
    return tuple(tuple(p for p in m if p[0] != "h1") for m in mons)


@pytest.mark.parametrize("page_of", [tjf_page, msu_sub_page])
def test_torsion_sectors_depend_on_d_minus_s_only(page_of):
    # the fact behind one torsion verdict and one d3 matrix per k = d - s:
    # for s >= 1 the basis is h1^s times one tuple of monomials and d3 one
    # tuple of F2 columns; each s reads d3 on a fresh page, past the cache
    page = page_of(64)
    fresh = {s: page_of(64) for s in range(1, 5)}
    for k in range(61):
        bases = {_without_h1(page.basis(k + s, s)) for s in range(1, 5)}
        d3 = {fresh[s].d3_matrix(k + s, s) for s in range(1, 5)}
        assert len(bases) == 1 and len(d3) == 1, k
    assert page.d3_matrix(5, 1) == (1,)  # h1 b2 -> h1^4, not zero


def test_phi_columns_depend_on_d_minus_s_only():
    sub, target = msu_sub_page(64), tjf_page(64)
    for n in range(-3, 4):
        phi = page_map(target, substitution_images(n))
        for k in range(61):
            columns = set()
            for s in range(1, 5):
                index = {m: i for i, m in enumerate(target.basis(k + s, s))}
                columns.add(tuple(
                    tuple(sorted((index[key], c)
                                 for key, c in phi({m: 1}).items()))
                    for m in sub.basis(k + s, s)))
            assert len(columns) == 1, (n, k)


class TestDegreeGuard:
    def test_default_guard(self):
        with pytest.raises(UnsupportedDegree):
            tjf_page(65)
        with pytest.raises(UnsupportedDegree):
            surjectivity_check(0, 65)

    def test_negative_bound_rejected(self):
        with pytest.raises(UnsupportedDegree, match="negative"):
            tjf_page(-1)
        with pytest.raises(UnsupportedDegree, match="negative"):
            surjectivity_check(0, -5)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("JFL_MAX_DEGREE_GUARD", "128")
        page = tjf_page(100)
        assert page.max_degree == 100
        monkeypatch.setenv("JFL_MAX_DEGREE_GUARD", "12")
        with pytest.raises(UnsupportedDegree):
            tjf_page(16)

    def test_bad_env_falls_back(self, monkeypatch):
        for raw in ("not-a-number", "-3"):
            monkeypatch.setenv("JFL_MAX_DEGREE_GUARD", raw)
            assert spectral.max_degree_guard() == spectral.DEFAULT_MAX_DEGREE_GUARD


def test_d3_property_suites():
    # seeds apart from the acceptance gate's defaults
    assert d3_squared_zero(1000, seed=20261105) >= 1000
    assert signed_leibniz(1000, seed=20261106) >= 1000
