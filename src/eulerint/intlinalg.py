"""Exact integer and rational linear algebra on small matrices.

Everything here works on plain Python ints / Fractions, so results are exact.
Matrices are lists of lists (rows).  The integer row Hermite normal form
(`_echelon`) is the only elimination: determinants, rational solutions,
nullspaces and the index of a lattice in its saturation are all read off it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod


def _echelon(a, cols):
    """Bring the integer rows `a` to row Hermite normal form, in place.

    Pivots are taken from the first `cols` columns; further columns are carried
    along.  Zero rows are collected at the bottom; pivots are positive and
    entries above a pivot are reduced modulo it.  Returns the determinant of
    the row operations, +1 or -1 (row swaps and negations flip it).
    """
    rows = len(a)
    sign = 1
    pivot_row = 0
    for col in range(cols):
        if pivot_row == rows:
            break
        # find a nonzero entry at or below pivot_row
        nz = [r for r in range(pivot_row, rows) if a[r][col] != 0]
        if not nz:
            continue
        # euclidean elimination within the column
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(a[r][col]))
            r0 = nz[0]
            for r in nz[1:]:
                q = a[r][col] // a[r0][col]
                a[r] = [x - q * y for x, y in zip(a[r], a[r0])]
            nz = [r for r in range(pivot_row, rows) if a[r][col] != 0]
        r0 = nz[0]
        if r0 != pivot_row:
            a[r0], a[pivot_row] = a[pivot_row], a[r0]
            sign = -sign
        if a[pivot_row][col] < 0:
            a[pivot_row] = [-x for x in a[pivot_row]]
            sign = -sign
        p = a[pivot_row][col]
        for r in range(pivot_row):
            q = a[r][col] // p
            if q:
                a[r] = [x - q * y for x, y in zip(a[r], a[pivot_row])]
        pivot_row += 1
    return sign


def _scaled(row):
    """The rational row times the lcm of its denominators: integers, same kernel."""
    fr = [Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in fr))
    return [int(x * den) for x in fr]


def hnf_row(m):
    """Row Hermite normal form.

    Returns (H, U) with U unimodular and U @ m == H.  Zero rows of H are
    collected at the bottom; pivots are positive and entries above a pivot are
    reduced modulo it.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    # U is the identity carried along as extra columns
    a = [list(row) + [0] * i + [1] + [0] * (rows - 1 - i) for i, row in enumerate(m)]
    _echelon(a, cols)
    return [row[:cols] for row in a], [row[cols:] for row in a]


def lattice_basis(vectors):
    """Basis (list of rows) of the lattice generated by the given integer vectors.

    It is the nonzero rows of their row Hermite form.
    """
    a = [list(row) for row in vectors]
    _echelon(a, len(a[0]) if a else 0)
    return [row for row in a if any(row)]


def rank(m):
    return len(lattice_basis(m))


def kernel_basis(m):
    """Basis of the integer kernel {u : m @ u == 0} of an integer matrix.

    The basis generates the full kernel lattice (it is saturated).
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    mt = [[m[r][c] for r in range(rows)] for c in range(cols)]
    h, u = hnf_row(mt)
    return [u[i] for i in range(cols) if not any(h[i])]


def lattice_coords(basis, v):
    """Integer coordinates of v in the given lattice basis, or None.

    `basis` must be in row HNF without zero rows (as produced by lattice_basis).
    """
    v = list(v)
    coords = []
    for row in basis:
        pc = next(i for i, x in enumerate(row) if x != 0)
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
    """Exact determinant of a square integer matrix (the name stays for callers).

    U @ m == H with det U = +-1, so det m = det U * det H, and the Hermite form
    H of a square matrix is upper triangular.
    """
    a = [list(row) for row in m]
    return _echelon(a, len(a)) * prod(a[i][i] for i in range(len(a)))


def rational_nullspace(m):
    """Integer basis of the rational (right) nullspace of an int/Fraction matrix."""
    return kernel_basis([_scaled(row) for row in m])


def solve_rational(m, rhs):
    """Solve m @ x == rhs exactly; returns list of Fractions or None if inconsistent.

    An underdetermined system gets the particular solution whose free
    variables are 0.
    """
    cols = len(m[0]) if m else 0
    a = [_scaled(list(row) + [b]) for row, b in zip(m, rhs)]
    _echelon(a, cols + 1)
    x = [Fraction(0)] * cols
    # back-substitution from the last pivot; a pivot in rhs is inconsistent
    for row in reversed(a):
        pc = next((c for c, v in enumerate(row) if v != 0), None)
        if pc == cols:
            return None
        if pc is not None:
            rest = sum(row[c] * x[c] for c in range(pc + 1, cols))
            x[pc] = Fraction(row[cols] - rest, row[pc])
    return x


def primitive_integer(v):
    """Scale a rational vector to a primitive integer vector (same direction)."""
    iv = _scaled(v)
    g = gcd(*iv)
    return [x // g for x in iv] if g > 1 else iv


def lattice_index_in_saturation(vectors):
    """Index of the lattice generated by `vectors` inside its saturation.

    That is the gcd of the r x r minors of a rank-r basis, which row
    operations on the basis' transpose keep.  Its Hermite form has one nonzero
    r x r minor, the product of its pivots (Cohen, GTM 138, section 2.4).
    """
    basis = lattice_basis(vectors)
    t = [list(col) for col in zip(*basis)]
    _echelon(t, len(basis))
    return prod(t[i][i] for i in range(len(basis)))
