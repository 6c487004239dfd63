from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eulerint import intlinalg as ila

matrices = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-15, 15), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]))


# -- Hermite normal form ---------------------------------------------------

def test_hnf_identity():
    h, u = ila.hnf_row([[1, 0], [0, 1]])
    assert h == [[1, 0], [0, 1]]


def test_hnf_known():
    # [DERIVED] by hand: rows (2,4),(1,1) reduce to (1,1),(0,2)
    h, u = ila.hnf_row([[2, 4], [1, 1]])
    assert h == [[1, 1], [0, 2]]


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_hnf_transform_is_unimodular(m):
    h, u = ila.hnf_row(m)
    assert abs(ila.det_bareiss(u)) == 1
    # u @ m == h
    rows, cols = len(m), len(m[0])
    prod = [[sum(u[i][k] * m[k][j] for k in range(rows)) for j in range(cols)]
            for i in range(rows)]
    assert prod == h


def test_rank_examples():
    assert ila.rank([[1, 2], [2, 4]]) == 1
    assert ila.rank([[1, 0], [0, 1]]) == 2
    assert ila.rank([[0, 0]]) == 0


# -- kernels ---------------------------------------------------------------

def test_kernel_of_identity_empty():
    assert ila.kernel_basis([[1, 0], [0, 1]]) == []


def test_kernel_of_no_columns_empty():
    assert ila.kernel_basis([]) == ila.kernel_basis([[], []]) == []


def test_kernel_known_vector():
    # [TRIVIAL] (1,1) matrix row -> kernel spanned by (1,-1)
    basis = ila.kernel_basis([[1, 1]])
    assert len(basis) == 1
    assert basis[0][0] == -basis[0][1]


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(m):
    rows, cols = len(m), len(m[0])
    basis = ila.kernel_basis(m)
    assert len(basis) == cols - ila.rank(m)
    for v in basis:
        assert all(sum(m[i][j] * v[j] for j in range(cols)) == 0
                   for i in range(rows))


def test_kernel_is_saturated():
    # kernel of (2, -2): contains (1, 1), not only (2, 2)
    basis = ila.kernel_basis([[2, -2]])
    assert ila.in_lattice(ila.lattice_basis(basis), [1, 1])


# -- determinants ----------------------------------------------------------

def test_det_examples():
    assert ila.det_bareiss([[2, 0], [0, 3]]) == 6
    assert ila.det_bareiss([[0, 1], [1, 0]]) == -1
    assert ila.det_bareiss([]) == 1


@given(st.lists(st.lists(st.integers(-8, 8), min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_det_matches_numpy(m):
    exact = ila.det_bareiss(m)
    approx = np.linalg.det(np.array(m, dtype=float))
    assert abs(exact - approx) < 1e-6 * max(1.0, abs(approx))


def _leibniz(m):
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(n))
    return total


square = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                       min_size=n, max_size=n))


@given(square, st.data())
@settings(max_examples=80, deadline=None)
def test_det_matches_leibniz_with_sign(m, data):
    assert ila.det_bareiss(m) == _leibniz(m)
    # a copy of one row times an integer makes the matrix singular
    if len(m) > 1:
        i, j = data.draw(st.permutations(range(len(m))))[:2]
        k = data.draw(st.integers(-2, 2))
        singular = [list(row) for row in m]
        singular[j] = [k * x for x in singular[i]]
        assert ila.det_bareiss(singular) == _leibniz(singular) == 0


# -- lattice membership ----------------------------------------------------

def test_lattice_coords_round_trip():
    basis = ila.lattice_basis([[2, 0, 1], [0, 3, 1]])
    v = [4, 3, 3]   # 2*(2,0,1) + 1*(0,3,1)
    coords = ila.lattice_coords(basis, v)
    assert coords is not None
    rebuilt = [sum(c * basis[i][j] for i, c in enumerate(coords))
               for j in range(3)]
    assert rebuilt == v


def test_lattice_membership_negative():
    basis = ila.lattice_basis([[2, 0], [0, 2]])
    assert not ila.in_lattice(basis, [1, 0])
    assert ila.in_lattice(basis, [4, -2])
    # outside the span, though every pivot divides
    assert ila.lattice_coords(ila.lattice_basis([[1, 0, 0]]), [0, 1, 0]) is None


def test_index_in_saturation():
    assert ila.lattice_index_in_saturation([[2, 0], [0, 2]]) == 4
    assert ila.lattice_index_in_saturation([[1, 0], [0, 1]]) == 1
    assert ila.lattice_index_in_saturation([[2, 4]]) == 2
    assert ila.lattice_index_in_saturation([]) == 1


def _degrade(draw, m):
    """Make some rows of m zero, and some a signed copy of an earlier row."""
    for i in range(len(m)):
        kind = draw(st.sampled_from(["keep", "keep", "zero", "copy"]))
        if kind == "zero":
            m[i] = [0] * len(m[i])
        elif kind == "copy" and i:
            j, sign = draw(st.integers(0, i - 1)), draw(st.sampled_from([-1, 1]))
            m[i] = [sign * x for x in m[j]]
    return m


@st.composite
def deficient_matrices(draw):
    """1-6 x 1-6 integer matrices with zero and dependent rows and columns."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    m = draw(st.lists(st.lists(st.integers(-12, 12), min_size=cols,
                               max_size=cols), min_size=rows, max_size=rows))
    m = _degrade(draw, [list(col) for col in zip(*_degrade(draw, m))])
    return [list(row) for row in zip(*m)]


def _gcd_of_maximal_minors(m):
    """gcd of the r x r minors of m, r its rank, by enumeration."""
    r = ila.rank(m)
    g = 0
    for rows in combinations(range(len(m)), r):
        for cols in combinations(range(len(m[0]) if m else 0), r):
            g = gcd(g, ila.det_bareiss([[m[i][j] for j in cols] for i in rows]))
    return g


@given(deficient_matrices())
@settings(max_examples=150, deadline=None)
def test_index_is_gcd_of_maximal_minors(m):
    # the index of a lattice in its saturation is that gcd for any generating
    # matrix, its Hermite basis among them
    index = ila.lattice_index_in_saturation(m)
    assert index == _gcd_of_maximal_minors(ila.lattice_basis(m))
    assert index == _gcd_of_maximal_minors(m)


def _rank_raising_rows(m):
    """Each row that raises the rank of the rows taken before it."""
    taken = []
    for i in range(len(m)):
        if ila.rank([m[j] for j in taken + [i]]) > len(taken):
            taken.append(i)
    return taken


@given(deficient_matrices())
@settings(max_examples=150, deadline=None)
def test_pivot_columns_of_transpose_raise_the_rank(m):
    basis = ila.lattice_basis([list(col) for col in zip(*m)])
    pivots = [next(c for c, x in enumerate(row) if x) for row in basis]
    assert pivots == _rank_raising_rows(m)


# -- rational solvers ------------------------------------------------------

def test_solve_rational_exact():
    x = ila.solve_rational([[2, 1], [1, 3]], [5, 10])
    assert x == [Fraction(1), Fraction(3)]
    # underdetermined but consistent: the free variable x3 is set to 0
    x = ila.solve_rational([[1, 2, 1], [0, 1, 1]], [3, 1])
    assert x == [Fraction(1), Fraction(1), Fraction(0)]


def test_solve_rational_inconsistent():
    assert ila.solve_rational([[1, 1], [2, 2]], [1, 3]) is None


def test_rational_nullspace_dimensions():
    ns = ila.rational_nullspace([[1, 1, 1]])
    assert len(ns) == 2
    for v in ns:
        assert sum(v) == 0


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
rational_matrices = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(
        st.lists(rationals, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]))


def _integer_rows(m):
    return [ila.primitive_integer(row) if any(row) else [0] * len(row)
            for row in m]


def _pivot_columns(m):
    """The rank profile: columns that raise the rank of the columns before them."""
    rows = _integer_rows(m)
    ranks = [0] + [ila.rank([row[:c + 1] for row in rows])
                   for c in range(len(m[0]))]
    return [c for c in range(len(m[0])) if ranks[c + 1] > ranks[c]]


@given(rational_matrices, st.data())
@settings(max_examples=80, deadline=None)
def test_solve_rational_random_consistent(m, data):
    cols = len(m[0])
    x0 = data.draw(st.lists(rationals, min_size=cols, max_size=cols))
    rhs = [sum(a * b for a, b in zip(row, x0)) for row in m]
    x = ila.solve_rational(m, rhs)
    assert x is not None
    assert [sum(a * b for a, b in zip(row, x)) for row in m] == rhs
    pivots = _pivot_columns(m)
    assert all(x[c] == 0 for c in range(cols) if c not in pivots)
    # the sum of all rows with a shifted right-hand side cannot be met
    total = [sum(col) for col in zip(*m)]
    assert ila.solve_rational(m + [total], rhs + [sum(rhs) + 1]) is None


@given(rational_matrices)
@settings(max_examples=80, deadline=None)
def test_rational_nullspace_random(m):
    cols = len(m[0])
    basis = ila.rational_nullspace(m)
    assert len(basis) == cols - ila.rank(_integer_rows(m))
    for v in basis:
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
    if basis:
        assert ila.rank(_integer_rows(basis)) == len(basis)


def test_primitive_integer():
    assert ila.primitive_integer([Fraction(1, 2), Fraction(3, 2)]) == [1, 3]
    assert ila.primitive_integer([4, 6]) == [2, 3]
