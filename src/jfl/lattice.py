"""Exact linear algebra over the integers.

Everything here works on plain lists of lists of Python ints, so all
results are exact.  Matrices are row-major: ``mat[i][j]`` is row i,
column j, and a matrix represents the map sending a column vector x to
mat @ x.  The two workhorses are Smith normal form (for invariant
factors, kernels and integer solving) and Hermite normal form (for
lattice membership), each one Euclid loop over small dense matrices
with no repair pass: each Smith pivot divides everything left, so the
diagonal is a divisibility chain as it is built, and each Hermite
pivot is reduced into the rows above as its column is placed.  The
determinant runs the Hermite form's column loop on sparse rows: the
row left at each column moves into place and flips the sign if it
moved, so no permutation is tracked.
"""

from math import gcd
from operator import index


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a, x):
    # over the nonzero entries of x only: a unit vector reads one column
    nonzero = [(j, v) for j, v in enumerate(x) if v]
    return [sum(row[j] * v for j, v in nonzero) for row in a]


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def smith_normal_form(mat):
    """Diagonalize an integer matrix by unimodular transforms.

    Returns (U, D, V) with U*mat*V == D, U and V unimodular, D diagonal
    with nonnegative entries satisfying d1 | d2 | ... ; ValueError if
    the rows differ in length.  The input is not modified.

    Step t moves the smallest nonzero entry of the trailing block to
    (t, t) and reduces its column and row by it; a nonzero remainder is
    smaller than the pivot and becomes the next one.  Once the column
    and row are clear, a block row with an entry the pivot does not
    divide is added to the pivot row, and the step repeats.  The pivot
    shrinks strictly, so the step ends, and when it does the pivot
    divides the whole block; later steps only combine block entries, so
    it divides every later pivot too.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    if any(len(row) != n for row in mat):
        raise ValueError("row length mismatch")
    A = [list(row) for row in mat]
    U = identity_matrix(m)
    V = identity_matrix(n)
    t = 0
    while t < min(m, n):
        # the first smallest entry in scan order: after a row is added
        # to the pivot row, the pivot stays and that row leaves a remainder
        best = 0
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                v = row[j]
                if v and (not best or abs(v) < best):
                    best, pi, pj = abs(v), i, j
        if not best:
            break
        A[t], A[pi], U[t], U[pi] = A[pi], A[t], U[pi], U[t]
        if pj != t:
            for row in A[t:] + V:
                row[t], row[pj] = row[pj], row[t]
        prow, urow = A[t], U[t]
        p = prow[t]
        for i in range(t + 1, m):
            q = A[i][t] // p
            if q:
                A[i] = [x - q * y for x, y in zip(A[i], prow)]
                U[i] = [x - q * y for x, y in zip(U[i], urow)]
        qs = [(j, prow[j] // p) for j in range(t + 1, n) if prow[j]]
        if qs:
            for row in A[t:] + V:
                c = row[t]
                if c:
                    for j, q in qs:
                        row[j] -= q * c
        if (any(prow[j] for j, _ in qs)
                or any(A[i][t] for i in range(t + 1, m))):
            continue
        if p not in (1, -1):  # a unit divides everything
            i = next((i for i in range(t + 1, m)
                      if any(x % p for x in A[i][t + 1:])), None)
            if i is not None:
                A[t] = [x + y for x, y in zip(prow, A[i])]
                U[t] = [x + y for x, y in zip(urow, U[i])]
                continue
        if p < 0:
            A[t] = [-x for x in prow]
            U[t] = [-x for x in urow]
        t += 1
    return U, A, V


def snf_diagonal(mat):
    _, d, _ = smith_normal_form(mat)
    k = min(len(d), len(d[0]) if d else 0)
    return [d[i][i] for i in range(k)]


def kernel_basis(mat, ncols=None):
    """Basis of {x : mat @ x == 0}, returned as a list of vectors;
    ValueError if a row's length is not ncols (the first row's, if not
    given)."""
    m = len(mat)
    n = len(mat[0]) if ncols is None and m else ncols
    if n is None:
        raise ValueError("empty matrix needs ncols")
    if any(len(row) != n for row in mat):
        raise ValueError("row length mismatch")
    if m == 0:
        return identity_matrix(n)
    _, D, V = smith_normal_form(mat)
    r = sum(1 for i in range(min(m, n)) if D[i][i])
    return [[V[i][j] for i in range(n)] for j in range(r, n)]


def solve_column_combination(mat, targets):
    """For each target, an integer x with mat @ x == target, or None if
    no solution exists; one Smith form of mat serves every target.
    ValueError if a target's length is not the row count."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    if any(len(t) != m for t in targets):
        raise ValueError("target length mismatch")
    U, D, V = smith_normal_form(mat)
    diag = [D[i][i] if i < n else 0 for i in range(m)]

    def solve(target):
        u = mat_vec(U, target)
        y = [0] * n
        for i, d in enumerate(diag):
            if d:
                if u[i] % d:
                    return None
                y[i] = u[i] // d
            elif u[i]:
                return None
        return mat_vec(V, y)

    return [solve(t) for t in targets]


def determinant(mat):
    """Determinant of a square integer matrix by Euclidean elimination
    over sparse rows; ValueError if a row's length is not the row count.

    At column c the rows from c down that are nonzero there run Euclid
    until one is left; each step adds a multiple of one row to another,
    which leaves the determinant alone.  That row moves into row c,
    flipping the sign if it moved, and its entry multiplies the result;
    a column with no such row makes the determinant 0.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("row length mismatch")
    rows = [{j: v for j, v in enumerate(row) if v} for row in mat]
    det = 1
    for c in range(n):
        live = [row for row in rows[c:] if c in row]
        while len(live) > 1:
            p = min(live, key=lambda row: abs(row[c]))
            for row in live:
                if row is not p:
                    q = row[c] // p[c]  # nonzero, as |row[c]| >= |p[c]|
                    for j, v in p.items():
                        w = row.get(j, 0) - q * v
                        if w:
                            row[j] = w
                        else:
                            del row[j]
            live = [row for row in live if c in row]
        if not live:
            return 0
        i = rows.index(live[0], c)  # the one row from c on holding c
        if i != c:
            rows[c], rows[i] = rows[i], rows[c]
            det = -det
        det *= rows[c][c]
    return det


def hermite_normal_form(rows, ncols):
    """Row-style HNF basis of the lattice spanned by the given row vectors;
    ValueError if a row's length is not ncols.

    Pivots are positive, entries above each pivot lie in [0, pivot), and
    rows are ordered by pivot column.  At each column j the rows leading
    there run Euclid until one is left, which, made positive, reduces the
    rows above at j and is placed; a reduced row waits at its new leading
    column.  The basis is canonical: two of one lattice share pivots, and
    their rows' difference at a pivot is a lattice vector whose later
    pivot entries lie in (-pivot, pivot), so it is zero.
    """
    waiting = {}  # leading column -> rows not yet placed

    def file(row, start):
        j = next(filter(row.__getitem__, range(start, ncols)), None)
        if j is not None:
            waiting.setdefault(j, []).append(row)

    for row in rows:
        if len(row) != ncols:
            raise ValueError("row length mismatch")
        file(list(row), 0)
    hnf = []
    for j in range(ncols):
        live = waiting.pop(j, [])
        while len(live) > 1:
            p = min(live, key=lambda r: abs(r[j]))
            for r in live:
                if r is not p:
                    q = r[j] // p[j]
                    file([x - q * y for x, y in zip(r, p)], j)
            live = [p] + waiting.pop(j, [])
        if live:
            p = live[0] if live[0][j] > 0 else [-x for x in live[0]]
            for i in [i for i, h in enumerate(hnf) if h[j]]:
                q = hnf[i][j] // p[j]
                hnf[i] = [x - q * y for x, y in zip(hnf[i], p)]
            hnf.append(p)
    return hnf


def in_row_span(hnf_rows, vec):
    """Does vec lie in the lattice spanned by an HNF basis?  ValueError
    if a row's length is not the vector's, or if a row it meets is zero."""
    v = list(vec)
    if any(len(row) != len(v) for row in hnf_rows):
        raise ValueError("row length mismatch")
    for row in hnf_rows:
        j = next((k for k, x in enumerate(row) if x), None)
        if j is None:
            raise ValueError("zero row in an HNF basis")
        if v[j] % row[j]:
            return False
        q = v[j] // row[j]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def invariant_factors(values):
    """Rebuild a divisibility chain from an arbitrary multiset of orders > 1.

    Each order joins the chain from the top by Z/a + Z/b = Z/gcd + Z/lcm:
    the lcm stays in place and the gcd, which divides it, moves down.  An
    order that divides the bottom entry divides every entry, so it joins
    at the bottom in one step.
    """
    chain = []  # top first
    for v in values:
        if chain and chain[-1] % v:
            for i, c in enumerate(chain):
                g = gcd(c, v)
                chain[i], v = c // g * v, g
        if v > 1:
            chain.append(v)
    return tuple(reversed(chain))


class FPAbelianGroup:
    """A finitely generated abelian group in invariant-factor form."""

    __slots__ = ("rank", "torsion")

    def __init__(self, rank, torsion=()):
        try:
            rank, torsion = index(rank), tuple(map(index, torsion))
        except TypeError:
            raise ValueError("rank and torsion must be integers") from None
        if rank < 0:
            raise ValueError("rank must be >= 0")
        if any(t < 2 for t in torsion):
            raise ValueError("torsion entries must be >= 2")
        for i in range(len(torsion) - 1):
            if torsion[i + 1] % torsion[i]:
                raise ValueError("torsion must form a divisibility chain")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "torsion", torsion)

    def __setattr__(self, name, value):
        raise AttributeError("FPAbelianGroup is immutable")

    @classmethod
    def from_presentation(cls, ngens, relation_rows):
        """Quotient of Z^ngens by the span of the given relation rows;
        ValueError if a row's length is not ngens."""
        rows = [list(r) for r in relation_rows]
        if any(len(r) != ngens for r in rows):
            raise ValueError("row length mismatch")
        rows = [r for r in rows if any(r)]
        if not rows:
            return cls(ngens)
        diag = [d for d in snf_diagonal(rows) if d]
        torsion = tuple(d for d in diag if d > 1)
        return cls(ngens - len(diag), torsion)

    def __eq__(self, other):
        if not isinstance(other, FPAbelianGroup):
            return NotImplemented
        return self.rank == other.rank and self.torsion == other.torsion

    def __hash__(self):
        return hash((self.rank, self.torsion))

    def __repr__(self):
        return "FPAbelianGroup(%d, %r)" % (self.rank, self.torsion)

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append("Z^%d" % self.rank)
        parts.extend("Z/%d" % t for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def group_to_json(g):
    return {"rank": g.rank, "torsion": list(g.torsion)}
