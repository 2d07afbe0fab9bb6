import random
import time

import pytest

from jfl.lattice import (FPAbelianGroup, determinant, hermite_normal_form,
                         identity_matrix, in_row_span, invariant_factors,
                         kernel_basis, mat_vec,
                         smith_normal_form, snf_diagonal,
                         solve_column_combination, transpose)
from oracles import bareiss_determinant
from property_suites import (determinant_matches_bareiss, hnf_postconditions,
                             mat_mul, snf_postconditions)


def test_smith_normal_form_worked_example():
    u, d, v = smith_normal_form([[2, 4], [6, 8]])
    assert mat_mul(mat_mul(u, [[2, 4], [6, 8]]), v) == d
    assert [d[0][0], d[1][1]] == [2, 4]
    assert d[0][1] == 0 and d[1][0] == 0


def test_snf_diagonal_shapes():
    assert snf_diagonal([[0, 0], [0, 0]]) == [0, 0]
    assert snf_diagonal([[1, 0, 0]]) == [1]
    assert snf_diagonal([[6]]) == [6]
    # wide and tall
    assert snf_diagonal([[2, 0], [0, 3], [0, 0]]) == [1, 6]


@pytest.mark.parametrize("mat", [[[1, 2], [3]], [[1], [2, 3]], [[], [0]]])
def test_smith_normal_form_refuses_ragged_rows(mat):
    with pytest.raises(ValueError, match="row length mismatch"):
        smith_normal_form(mat)


def test_kernel_basis_annihilates():
    mat = [[1, 2, 3], [2, 4, 6]]
    ker = kernel_basis(mat)
    assert len(ker) == 2
    for v in ker:
        assert mat_vec(mat, v) == [0, 0]
    # no rows: everything is in the kernel
    assert kernel_basis([], ncols=3) == identity_matrix(3)
    assert kernel_basis([[1, 1, 0]], ncols=3) == kernel_basis([[1, 1, 0]])


@pytest.mark.parametrize("mat, ncols", [
    ([[1, 1]], 3),  # returned 2-vectors for a 3-column request
    ([[1, 1, 0]], 2),
    ([[1, 0], [1]], None),
    ([[1], [1, 0]], None),
])
def test_kernel_basis_refuses_ragged_rows(mat, ncols):
    with pytest.raises(ValueError, match="row length mismatch"):
        kernel_basis(mat, ncols=ncols)


def test_solve_column_combination():
    mat = [[2, 0], [0, 3]]
    # target zero is always solvable
    assert solve_column_combination(mat, [[4, 9], [1, 0], [0, 0]]) == [
        [2, 3], None, [0, 0]]


@pytest.mark.parametrize("mat, targets", [
    ([[1], [0]], [[1]]),  # a short target is not padded with zeros
    ([[1], [0]], [[1, 0], [1, 0, 0]]),
    ([], [[1]]),
])
def test_solve_column_combination_refuses_targets_of_another_length(
        mat, targets):
    with pytest.raises(ValueError, match="target length mismatch"):
        solve_column_combination(mat, targets)


def _random_unimodular(rng, n):
    u = identity_matrix(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-2, 2)
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        else:
            u[i] = [-x for x in u[i]]
    return u


def test_solve_column_combination_batches():
    # mat = U diag(d) V with U, V unimodular, so the lattice is known:
    # U (diag(d) y + e_i) lies off it whenever d_i != 1
    rng = random.Random(5)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        diag = sorted(rng.choice((1, 1, 2, 3, 4, 6)) for _ in range(min(m, n)))
        diag = [d if rng.random() < 0.8 else 0 for d in diag]
        d_mat = [[diag[i] if i == j else 0 for j in range(n)] for i in range(m)]
        u = _random_unimodular(rng, m)
        mat = mat_mul(mat_mul(u, d_mat), _random_unimodular(rng, n))
        on = [mat_vec(mat, [rng.randint(-3, 3) for _ in range(n)])
              for _ in range(3)]
        off = []
        for i in range(m):
            if i >= len(diag) or diag[i] != 1:
                y = [rng.randint(-3, 3) for _ in range(m)]
                y = [d * v for d, v in zip(diag, y)] + [0] * (m - len(diag))
                y[i] += 1
                off.append(mat_vec(u, y))
        targets = on + off
        got = solve_column_combination(mat, targets)
        assert len(got) == len(targets)
        for target, x in zip(targets, got):
            if x is not None:
                assert mat_vec(mat, x) == target
        assert all(x is not None for x in got[:len(on)])
        assert all(x is None for x in got[len(on):])


def test_determinant():
    assert determinant([[2, 0], [0, 3]]) == 6
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3
    assert determinant([[5]]) == 5


@pytest.mark.parametrize("mat", [[[1, 2]], [[1, 2], [3]], [[1], [2]],
                                 [[0, 0], [3]], [[]]])
def test_determinant_refuses_non_square(mat):
    # [[0, 0], [3]] would be singular from its first row alone
    with pytest.raises(ValueError, match="row length mismatch"):
        determinant(mat)


def test_determinant_matches_bareiss():
    # no unit pivot, 0x0, 1x1 and singular shapes, then random matrices
    for mat in ([[2, 3], [3, 5]], [[4, 6], [6, 9]], [[0, 2], [3, 0]], [],
                [[0]], [[-7]], [[0, 0], [0, 0]], [[6, 4, 2], [3, 2, 1], [1, 1, 1]]):
        assert determinant(mat) == bareiss_determinant(mat), mat
    assert determinant([[2, 3], [3, 5]]) == 1
    assert determinant_matches_bareiss(2000) == 2000


def test_hermite_normal_form_is_canonical():
    rows = [[2, 4], [6, 8]]
    h = hermite_normal_form(rows, 2)
    assert h == [[2, 0], [0, 4]]
    # permuting input rows does not change the result
    assert hermite_normal_form([[6, 8], [2, 4]], 2) == h
    for r in rows:
        assert in_row_span(h, r)
    assert not in_row_span(h, [1, 0])


@pytest.mark.parametrize("hnf_rows, vec", [
    ([[2]], [2, 7]),  # read as [2] in the span of [2]
    ([[1, 0]], [1]),  # read as [1, 0]
    ([[2, 0], [0, 4, 0]], [2, 4]),
])
def test_in_row_span_refuses_a_vector_of_another_length(hnf_rows, vec):
    with pytest.raises(ValueError, match="row length mismatch"):
        in_row_span(hnf_rows, vec)


def test_in_row_span_refuses_a_zero_row():
    # a ValueError, not a StopIteration that would end a map silently
    with pytest.raises(ValueError, match="zero row"):
        in_row_span([[0, 0]], [1, 0])
    with pytest.raises(ValueError, match="zero row"):
        list(map(lambda v: in_row_span([[0, 0]], v), [[1, 0], [2, 0]]))
    with pytest.raises(ValueError, match="zero row"):
        in_row_span([[1, 0], [0, 0]], [3, 5])


def _prime_power_chain(orders):
    """The invariant factors of Z/o1 + Z/o2 + ... by prime powers: the
    i-th largest factor takes the i-th largest power of each prime."""
    powers = {}
    for o in orders:
        p = 2
        while o > 1:
            e = 0
            while o % p == 0:
                o //= p
                e += 1
            if e:
                powers.setdefault(p, []).append(p ** e)
            p += 1
    chain = [1] * max(map(len, powers.values()), default=0)
    for ps in powers.values():
        for i, q in enumerate(sorted(ps, reverse=True)):
            chain[i] *= q
    return tuple(reversed(chain))


def test_invariant_factors():
    assert invariant_factors([4, 6]) == (2, 12)
    assert invariant_factors([2, 2]) == (2, 2)
    assert invariant_factors([]) == ()
    assert invariant_factors([8, 9]) == (72,)
    # a large prime order: no factoring
    assert invariant_factors([2**61 - 1, 2]) == (2 * (2**61 - 1),)
    # against the Smith form of the diagonal presentation
    rng = random.Random(7)
    for _ in range(200):
        orders = [rng.choice((2, 3, 4, 6, 8, 9, 12, 25, 27, 30))
                  for _ in range(rng.randrange(1, 6))]
        rows = [[t if i == j else 0 for j in range(len(orders))]
                for i, t in enumerate(orders)]
        assert (invariant_factors(orders)
                == FPAbelianGroup.from_presentation(len(orders), rows).torsion)
    # against the prime powers: wide orders, and many repeats of a few
    # orders, as the pages' Z/2 summands are
    for _ in range(500):
        orders = [rng.randrange(2, 200) for _ in range(rng.randrange(12))]
        assert invariant_factors(orders) == _prime_power_chain(orders)
        orders = [rng.choice((2, 3, 4, 6, 12))
                  for _ in range(rng.randrange(40))]
        assert invariant_factors(orders) == _prime_power_chain(orders)


def test_invariant_factors_is_linear_in_repeated_orders():
    # each 2 divides the bottom of the chain, so it joins there at once
    # rather than walking the whole chain
    start = time.perf_counter()
    assert invariant_factors([2] * 5000) == (2,) * 5000
    assert time.perf_counter() - start < 0.1


class TestFPAbelianGroup:
    def test_presentation(self):
        # Z^2 / <(2, 0)> = Z + Z/2
        g = FPAbelianGroup.from_presentation(2, [[2, 0]])
        assert g == FPAbelianGroup(1, (2,))
        assert str(g) == "Z + Z/2"

    @pytest.mark.parametrize("ngens, rows", [
        (1, [[2, 0]]),  # read as Z/2
        (2, [[2]]),  # read as Z + Z/2
        (1, [[1, 0], [0, 1]]),
        (2, [[0]]),  # a zero row of the wrong length too
        (0, [[1]]),
    ])
    def test_presentation_row_length_checked(self, ngens, rows):
        with pytest.raises(ValueError, match="row length mismatch"):
            FPAbelianGroup.from_presentation(ngens, rows)

    def test_zero_relations(self):
        assert FPAbelianGroup.from_presentation(3, []) == FPAbelianGroup(3)
        assert FPAbelianGroup.from_presentation(3, [[0, 0, 0]]).rank == 3

    def test_full_quotient(self):
        g = FPAbelianGroup.from_presentation(2, [[1, 0], [0, 1]])
        assert g == FPAbelianGroup(0)
        assert str(g) == "0"

    def test_str(self):
        assert str(FPAbelianGroup(0, (2,))) == "Z/2"
        assert str(FPAbelianGroup(2, (2, 2))) == "Z^2 + Z/2 + Z/2"
        assert str(FPAbelianGroup(1)) == "Z"

    def test_bad_chain_rejected(self):
        with pytest.raises(ValueError):
            FPAbelianGroup(0, (3, 2))
        with pytest.raises(ValueError):
            FPAbelianGroup(0, (1,))
        # a zero entry is refused as an entry, before the chain divides by it
        with pytest.raises(ValueError, match=">= 2"):
            FPAbelianGroup(0, (0, 2))

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            FPAbelianGroup(-1)
        with pytest.raises(ValueError, match="rank"):
            FPAbelianGroup(-2, (2,))

    @pytest.mark.parametrize("rank, torsion", [
        (1.5, ()),  # read as Z^1
        (0, (2.0, 4.0)),  # equal to FPAbelianGroup(0, (2, 4))
        (1, (2, 4.0)),
        ("1", ()),
        (0, 2),  # torsion not a sequence
    ])
    def test_non_integers_rejected(self, rank, torsion):
        with pytest.raises(ValueError, match="must be integers"):
            FPAbelianGroup(rank, torsion)

    def test_is_immutable(self):
        # it hashes by value, so a group in a set must not change
        g = FPAbelianGroup(1, (2,))
        groups = {g}
        with pytest.raises(AttributeError):
            g.rank = 2
        with pytest.raises(AttributeError):
            g.torsion = ()
        assert g in groups and g == FPAbelianGroup(1, (2,))


def test_transpose_round_trip():
    m = [[1, 2, 3], [4, 5, 6]]
    assert transpose(transpose(m)) == m


def test_snf_property_suite():
    # a seed apart from the acceptance gate's default
    assert snf_postconditions(1000, seed=20261104) >= 1000


def test_hnf_property_suite():
    assert hnf_postconditions(1000) == 1000
