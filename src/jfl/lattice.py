"""Exact linear algebra over the integers.

Everything here works on plain lists of lists of Python ints, so all
results are exact.  Matrices are row-major: ``mat[i][j]`` is row i,
column j, and a matrix represents the map sending a column vector x to
mat @ x.  The two workhorses are Smith normal form (for invariant
factors, kernels and integer solving) and Hermite normal form (for
lattice membership).  Both are written for the small dense matrices
this package produces; only the determinant works on sparse rows.
"""

from math import gcd


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a,b) >= 0 and g == a*x + b*y."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


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
    with nonnegative entries satisfying d1 | d2 | ... .  The input is
    not modified.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    A = [list(row) for row in mat]
    U = identity_matrix(m)
    V = identity_matrix(n)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row[dst] += c * row[src]
        A[dst] = [x + c * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    def col_pair_op(j1, j2, p, q, r, s):
        # (col j1, col j2) <- (p*col1 + q*col2, r*col1 + s*col2); det must be +-1
        for row in A:
            c1, c2 = row[j1], row[j2]
            row[j1], row[j2] = p * c1 + q * c2, r * c1 + s * c2
        for row in V:
            c1, c2 = row[j1], row[j2]
            row[j1], row[j2] = p * c1 + q * c2, r * c1 + s * c2

    t = 0
    limit = min(m, n)
    while t < limit:
        # smallest nonzero entry in the trailing block is the next pivot
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = A[i][j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    add_row(t, i, -q)
                    if A[i][t]:
                        swap_rows(t, i)
            if any(A[i][t] for i in range(t + 1, m)):
                continue
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_pair_op(t, j, 1, 0, -q, 1)
                    if A[t][j]:
                        swap_cols(t, j)
            if any(A[t][j] for j in range(t + 1, n)):
                continue
            if any(A[i][t] for i in range(t + 1, m)):
                continue
            break
        if A[t][t] < 0:
            negate_row(t)
        t += 1
    rank = t

    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if b % a == 0:
                continue
            changed = True
            g, x, y = xgcd(a, b)
            add_row(i + 1, i, 1)
            # 2x2 unimodular column mix turning [[a, b], [0, b]] into [[g, 0], [*, ab/g]]
            col_pair_op(i, i + 1, x, y, -(b // g), a // g)
            q = A[i + 1][i] // A[i][i]
            add_row(i, i + 1, -q)
            if A[i + 1][i + 1] < 0:
                negate_row(i + 1)
    return U, A, V


def snf_diagonal(mat):
    _, d, _ = smith_normal_form(mat)
    k = min(len(d), len(d[0]) if d else 0)
    return [d[i][i] for i in range(k)]


def kernel_basis(mat, ncols=None):
    """Basis of {x : mat @ x == 0}, returned as a list of vectors."""
    m = len(mat)
    n = len(mat[0]) if m else ncols
    if n is None:
        raise ValueError("empty matrix needs ncols")
    if m == 0:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    _, D, V = smith_normal_form(mat)
    r = sum(1 for i in range(min(m, n)) if D[i][i])
    return [[V[i][j] for i in range(n)] for j in range(r, n)]


def solve_column_combination(mat, targets):
    """For each target, an integer x with mat @ x == target, or None if
    no solution exists; one Smith form of mat serves every target."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    if m == 0:
        return [[] for _ in targets]
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

    Each row, held as {column: value}, is reduced against the pivot rows
    by leading column; where a pivot does not divide, the two rows trade
    places Euclid-style, so every step adds a multiple of one row to
    another and leaves the determinant alone.  The rows then have
    distinct leading columns: the determinant is the product of the
    leading values times the sign of the slot-to-column permutation.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("row length mismatch")
    pivots = {}  # leading column -> (slot, row)
    for slot, dense in enumerate(mat):
        row = {j: v for j, v in enumerate(dense) if v}
        while row:
            c = min(row)
            if c not in pivots:
                pivots[c] = (slot, row)
                break
            other, prow = pivots[c]
            q = row[c] // prow[c]
            if q:
                for j, v in prow.items():
                    w = row.get(j, 0) - q * v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
            if c in row:  # a nonzero remainder: it becomes the pivot
                pivots[c] = (slot, row)
                slot, row = other, prow
        else:
            return 0
    column_of = [0] * n
    det = 1
    for c, (slot, row) in pivots.items():
        column_of[slot] = c
        det *= row[c]
    # the sign of the permutation: -1 per even-length cycle
    seen = [False] * n
    for start in range(n):
        length, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = column_of[i]
            length += 1
        if length and length % 2 == 0:
            det = -det
    return det


def hermite_normal_form(rows, ncols):
    """Row-style HNF basis of the lattice spanned by the given row vectors.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), and rows are ordered by pivot column.  The result is a
    canonical basis of the row span, usable for membership tests.
    """
    pivots = {}  # pivot column -> row

    def insert(vec):
        v = list(vec)
        j = 0
        while j < ncols:
            if v[j] == 0:
                j += 1
                continue
            if j not in pivots:
                if v[j] < 0:
                    v = [-x for x in v]
                pivots[j] = v
                return
            r = pivots[j]
            p, a = r[j], v[j]
            if a % p == 0:
                q = a // p
                v = [x - q * y for x, y in zip(v, r)]
                j += 1
                continue
            g, x, y = xgcd(p, a)
            new_r = [x * rr + y * vv for rr, vv in zip(r, v)]
            new_v = [(p // g) * vv - (a // g) * rr for rr, vv in zip(r, v)]
            pivots[j] = new_r
            v = new_v
            j += 1

    for row in rows:
        if len(row) != ncols:
            raise ValueError("row length mismatch")
        insert(row)

    cols = sorted(pivots)
    # clear entries above each pivot
    for j in cols:
        r = pivots[j]
        p = r[j]
        for j2 in cols:
            if j2 >= j:
                break
            s = pivots[j2]
            if s[j]:
                q = s[j] // p
                pivots[j2] = [x - q * y for x, y in zip(s, r)]
    return [pivots[j] for j in sorted(pivots)]


def in_row_span(hnf_rows, vec):
    """Does vec lie in the lattice spanned by an HNF basis?"""
    v = list(vec)
    for row in hnf_rows:
        j = next(k for k, x in enumerate(row) if x)
        if v[j] % row[j]:
            return False
        q = v[j] // row[j]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def invariant_factors(values):
    """Rebuild a divisibility chain from an arbitrary multiset of orders > 1.

    Each order joins the chain from the top by Z/a + Z/b = Z/gcd + Z/lcm:
    the lcm stays in place and the gcd, which divides it, moves down.
    """
    chain = []
    for v in values:
        for i in reversed(range(len(chain))):
            g = gcd(chain[i], v)
            chain[i], v = chain[i] // g * v, g
        if v > 1:
            chain.insert(0, v)
    return tuple(chain)


class FPAbelianGroup:
    """A finitely generated abelian group in invariant-factor form."""

    __slots__ = ("rank", "torsion")

    def __init__(self, rank, torsion=()):
        if rank < 0:
            raise ValueError("rank must be >= 0")
        torsion = tuple(torsion)
        for i in range(len(torsion) - 1):
            if torsion[i + 1] % torsion[i]:
                raise ValueError("torsion must form a divisibility chain")
        if any(t < 2 for t in torsion):
            raise ValueError("torsion entries must be >= 2")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "torsion", torsion)

    def __setattr__(self, name, value):
        raise AttributeError("FPAbelianGroup is immutable")

    @classmethod
    def from_presentation(cls, ngens, relation_rows):
        """Quotient of Z^ngens by the span of the given relation rows."""
        rows = [list(r) for r in relation_rows if any(r)]
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
