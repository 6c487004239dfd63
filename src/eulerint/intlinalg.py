"""Exact integer and rational linear algebra on small matrices.

Everything here works on plain Python ints / Fractions, so results are exact.
Matrices are lists of lists (rows).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd


def mat_copy(m):
    return [list(row) for row in m]


def hnf_row(m):
    """Row Hermite normal form.

    Returns (H, U) with U unimodular and U @ m == H.  Zero rows of H are
    collected at the bottom; pivots are positive and entries above a pivot are
    reduced modulo it.
    """
    h = mat_copy(m)
    rows = len(h)
    cols = len(h[0]) if rows else 0
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    pivot_row = 0
    pivot_cols = []
    for col in range(cols):
        # find a nonzero entry at or below pivot_row
        nz = [r for r in range(pivot_row, rows) if h[r][col] != 0]
        if not nz:
            continue
        # euclidean elimination within the column
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(h[r][col]))
            r0 = nz[0]
            for r in nz[1:]:
                q = h[r][col] // h[r0][col]
                for c in range(cols):
                    h[r][c] -= q * h[r0][c]
                for c in range(rows):
                    u[r][c] -= q * u[r0][c]
            nz = [r for r in range(pivot_row, rows) if h[r][col] != 0]
        r0 = nz[0]
        if r0 != pivot_row:
            h[r0], h[pivot_row] = h[pivot_row], h[r0]
            u[r0], u[pivot_row] = u[pivot_row], u[r0]
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-x for x in h[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
        p = h[pivot_row][col]
        for r in range(pivot_row):
            q = h[r][col] // p
            if q:
                for c in range(cols):
                    h[r][c] -= q * h[pivot_row][c]
                for c in range(rows):
                    u[r][c] -= q * u[pivot_row][c]
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == rows:
            break
    return h, u


def rank(m):
    if not m or not m[0]:
        return 0
    h, _ = hnf_row(m)
    return sum(1 for row in h if any(x != 0 for x in row))


def lattice_basis(vectors):
    """Basis (list of rows) of the lattice generated by the given integer vectors."""
    if not vectors:
        return []
    h, _ = hnf_row(vectors)
    return [row for row in h if any(x != 0 for x in row)]


def kernel_basis(m):
    """Basis of the integer kernel {u : m @ u == 0} of an integer matrix.

    The basis generates the full kernel lattice (it is saturated).
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if cols == 0:
        return []
    mt = [[m[r][c] for r in range(rows)] for c in range(cols)]
    h, u = hnf_row(mt)
    return [list(u[i]) for i in range(cols) if all(x == 0 for x in h[i])]


def lattice_coords(basis, v):
    """Integer coordinates of v in the given lattice basis, or None.

    `basis` must be in row HNF (as produced by lattice_basis).
    """
    v = list(v)
    coords = []
    for row in basis:
        pc = next((i for i, x in enumerate(row) if x != 0), None)
        if pc is None:
            coords.append(0)
            continue
        if v[pc] % row[pc] != 0:
            return None
        q = v[pc] // row[pc]
        coords.append(q)
        v = [a - q * b for a, b in zip(v, row)]
    if any(x != 0 for x in v):
        return None
    return coords


def in_lattice(basis, v):
    return lattice_coords(basis, v) is not None


def det_bareiss(m):
    """Exact determinant of a square integer matrix (Bareiss algorithm)."""
    a = mat_copy(m)
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def _rref(a, cols):
    """Gauss-Jordan elimination of the Fraction rows `a` to reduced echelon form.

    Works in place and returns the pivot columns, pivot i in row i.  Pivots
    are taken from the first `cols` columns only; an augmented right-hand side
    is carried along.
    """
    rows = len(a)
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return pivots


def rational_nullspace(m):
    """Basis of the rational (right) nullspace of a matrix with int/Fraction entries."""
    cols = len(m[0]) if m else 0
    a = [[Fraction(x) for x in row] for row in m]
    pivots = _rref(a, cols)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        basis.append(v)
    return basis


def solve_rational(m, rhs):
    """Solve m @ x == rhs exactly; returns list of Fractions or None if inconsistent.

    An underdetermined system gets the particular solution whose free
    variables are 0.
    """
    cols = len(m[0]) if m else 0
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(m)]
    pivots = _rref(a, cols)
    if any(row[cols] != 0 for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * cols
    for i, pc in enumerate(pivots):
        x[pc] = a[i][cols]
    return x


def primitive_integer(v):
    """Scale a rational vector to a primitive integer vector (same direction)."""
    fr = [Fraction(x) for x in v]
    den = 1
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    iv = [int(x * den) for x in fr]
    g = 0
    for x in iv:
        g = gcd(g, abs(x))
    if g > 1:
        iv = [x // g for x in iv]
    return iv


def lattice_index_in_saturation(vectors):
    """Index of the lattice generated by `vectors` inside its saturation.

    Equals the gcd of all maximal minors of a basis matrix, divided out by the
    structure: for a rank-r lattice it is the product of the invariant factors,
    i.e. the gcd of the r x r minors of any generating matrix.
    """
    basis = lattice_basis(vectors)
    r = len(basis)
    if r == 0:
        return 1
    cols = len(basis[0])
    g = 0
    for sub in combinations(range(cols), r):
        d = det_bareiss([[row[c] for c in sub] for row in basis])
        g = gcd(g, abs(d))
        if g == 1:
            break
    return g if g else 1
