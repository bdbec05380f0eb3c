"""Exact integer and rational linear algebra on plain tuples.

All vectors are tuples, all matrices are tuples of row tuples, and all
arithmetic is exact (int and fractions.Fraction, never float).  Normal
forms use classical elementary-operation algorithms with full transform
bookkeeping; at the sizes this package handles (a handful of rows and
columns) they are more than fast enough.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .errors import DimensionMismatchError

IntVec = tuple[int, ...]
IntRows = tuple[IntVec, ...]


def dot(a, b):
    """Scalar product of two equal-length vectors (int or Fraction entries)."""
    if len(a) != len(b):
        raise DimensionMismatchError(f"dot of length {len(a)} with length {len(b)}")
    return sum(map(mul, a, b))


def vsub(a, b):
    if len(a) != len(b):
        raise DimensionMismatchError(f"vsub of length {len(a)} with length {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def vneg(a):
    return tuple(-x for x in a)


def vscale(c, a):
    return tuple(c * x for x in a)


def is_zero(a) -> bool:
    return all(x == 0 for x in a)


def vec_gcd(a) -> int:
    """Nonnegative gcd of the entries; 0 for the zero vector."""
    g = 0
    for x in a:
        g = gcd(g, x)
    return g


def primitive(a) -> IntVec:
    """Divide an integer vector by the gcd of its entries, keeping direction."""
    g = vec_gcd(a)
    if g <= 1:
        return tuple(a)
    return tuple(x // g for x in a)


def to_int_vec(a) -> IntVec:
    """Scale a rational vector to the primitive integer vector with the same direction."""
    den = 1
    for x in a:
        den = lcm(den, Fraction(x).denominator)
    scaled = tuple(int(Fraction(x) * den) for x in a)
    return primitive(scaled)


def identity_rows(n: int) -> IntRows:
    """Rows of the n x n identity matrix, which is its own Hermite form."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def rank_of(rows) -> int:
    """Rank of an integer matrix: the row count of its Hermite form."""
    return len(hermite_normal_form(rows))


def det(rows) -> int:
    """Determinant of a square integer matrix (Bareiss fraction-free elimination)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError("det of non-square matrix")
    if n == 0:
        return 1
    mat = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            p = next((i for i in range(k + 1, n) if mat[i][k] != 0), None)
            if p is None:
                return 0
            mat[k], mat[p] = mat[p], mat[k]
            sign = -sign
        piv = mat[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (piv * mat[i][j] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = piv
    return sign * mat[n - 1][n - 1]


def primitive_normal(rows) -> IntVec:
    """Primitive integer normal of the hyperplane spanned by n-1 vectors in Z^n.

    The zero vector when the rows are dependent.  One fraction-free
    (Bareiss) Gauss-Jordan elimination: after it every pivot equals the
    last one, D, so setting the free coordinate to D makes the pivot
    coordinates minus the free column's entries, and every division on the
    way is exact.  The sign is that of the elimination, not normalized.
    """
    n = len(rows) + 1
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError(f"normal of {n - 1} rows needs rows of length {n}")
    mat = [list(r) for r in rows]
    pivots = []
    free = None
    prev = 1
    for c in range(n):
        k = len(pivots)
        for p in range(k, n - 1):
            if mat[p][c]:
                break
        else:
            if free is not None:
                return (0,) * n
            free = c
            continue
        row = mat[p]
        mat[k], mat[p] = row, mat[k]
        piv = row[c]
        for i, other in enumerate(mat):
            if i != k:
                f = other[c]
                if f:
                    mat[i] = [(piv * a - f * b) // prev for a, b in zip(other, row)]
                elif piv != prev:
                    mat[i] = [piv * a // prev for a in other]
        prev = piv
        pivots.append(c)
    normal = [0] * n
    normal[free] = prev
    for row, c in zip(mat, pivots):
        normal[c] = -row[free]
    return primitive(normal)


def solve_rational(rows, rhs):
    """One exact solution x of (rows) x = rhs, or None if inconsistent.

    Free variables are set to zero.  Entries may be int or Fraction.
    """
    m = len(rows)
    if len(rhs) != m:
        raise DimensionMismatchError(f"solve with {m} rows and {len(rhs)} right-hand sides")
    if m == 0:
        return ()
    n = len(rows[0])
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for ri, ci in pivots:
        x[ci] = a[ri][n]
    return tuple(x)


class SNF(NamedTuple):
    """Smith decomposition u * m * v = d with u, v unimodular and d diagonal."""

    d: IntRows
    u: IntRows
    v: IntRows


def smith_normal_form(rows) -> SNF:
    """Smith normal form with transforms.

    Returns (d, u, v) with u * rows * v == d, u and v unimodular, d in
    diagonal form with nonnegative entries d[0][0] | d[1][1] | ...
    Pivot choice is frozen (smallest absolute value, ties broken by
    smallest column then row index) so results are deterministic.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    if any(len(r) != nc for r in m):
        raise DimensionMismatchError("ragged matrix")
    u = [list(r) for r in identity_rows(nr)]
    v = [list(r) for r in identity_rows(nc)]

    def row_op(i, j, q):  # row_i -= q * row_j
        m[i] = [a - q * b for a, b in zip(m[i], m[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in m:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        m[i] = [-a for a in m[i]]
        u[i] = [-a for a in u[i]]

    t = 0
    while t < min(nr, nc):
        best = None
        for j in range(t, nc):
            for i in range(t, nr):
                a = m[i][j]
                if a != 0:
                    key = (abs(a), j, i)
                    if best is None or key < best[0]:
                        best = (key, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        while True:
            if m[t][t] < 0:
                row_neg(t)
            swapped = False
            i = t + 1
            while i < nr:
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    if q:
                        row_op(i, t, q)
                    if m[i][t] != 0:  # remainder is a strictly smaller pivot
                        row_swap(t, i)
                        swapped = True
                        i = t + 1
                        continue
                i += 1
            j = t + 1
            while j < nc:
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    if q:
                        col_op(j, t, q)
                    if m[t][j] != 0:
                        col_swap(t, j)
                        swapped = True
                        j = t + 1
                        continue
                j += 1
            if swapped:
                continue
            piv = m[t][t]
            offender = None
            for i in range(t + 1, nr):
                if any(m[i][j] % piv for j in range(t + 1, nc)):
                    offender = i
                    break
            if offender is None:
                break
            m[t] = [a + b for a, b in zip(m[t], m[offender])]
            u[t] = [a + b for a, b in zip(u[t], u[offender])]
        t += 1
    return SNF(
        tuple(tuple(r) for r in m),
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in v),
    )


def hermite_normal_form(rows) -> IntRows:
    """Canonical basis of the lattice spanned by the given integer rows.

    Row-style Hermite form: echelon with positive pivots and the entries
    above each pivot reduced into [0, pivot).  Two row sets span the same
    lattice if and only if their Hermite forms are equal, so this is the
    canonical representative used throughout the package.
    """
    work = [list(r) for r in rows if not is_zero(r)]
    if not work:
        return ()
    n = len(work[0])
    if any(len(r) != n for r in work):
        raise DimensionMismatchError("ragged matrix")
    res: list[list[int]] = []
    col = 0
    while work and col < n:
        nz = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not nz:
            col += 1
            continue
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(r[col]))
            p = nz[0]
            keep = [p]
            for r in nz[1:]:
                q = r[col] // p[col]
                rr = [a - q * b for a, b in zip(r, p)]
                if rr[col] != 0:
                    keep.append(rr)
                elif any(rr):
                    rest.append(rr)
            nz = keep
        p = nz[0]
        if p[col] < 0:
            p = [-a for a in p]
        res.append(p)
        work = rest
        col += 1
    # left to right: reducing by pivot i only touches columns >= its own,
    # so earlier pivot columns stay reduced
    for i in range(len(res)):
        pc = next(j for j, a in enumerate(res[i]) if a != 0)
        piv = res[i][pc]
        for k in range(i):
            q = res[k][pc] // piv
            if q:
                res[k] = [a - q * b for a, b in zip(res[k], res[i])]
    return tuple(tuple(r) for r in res)


def kernel_basis(rows, ncols: int) -> IntRows:
    """Hermite-canonical basis of the integer kernel {x : rows @ x = 0}.

    The kernel of an integer matrix is automatically saturated, so this
    basis also spans the kernel of the rational map intersected with Z^n.
    """
    if any(len(r) != ncols for r in rows):
        raise DimensionMismatchError("ragged matrix")
    if not rows:
        return identity_rows(ncols)
    d, _, v = smith_normal_form(rows)
    r = sum(1 for i in range(min(len(d), ncols)) if d[i][i] != 0)
    cols = [tuple(v[i][k] for i in range(ncols)) for k in range(r, ncols)]
    return hermite_normal_form(cols)


def saturate_rows(rows, ncols: int) -> IntRows:
    """Hermite basis of the saturation of the row lattice in Z^ncols; () for no rows."""
    if not rows:
        return ()
    return kernel_basis(kernel_basis(rows, ncols), ncols)
