from fractions import Fraction

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


def test_index_in_saturation():
    assert ila.lattice_index_in_saturation([[2, 0], [0, 2]]) == 4
    assert ila.lattice_index_in_saturation([[1, 0], [0, 1]]) == 1
    assert ila.lattice_index_in_saturation([[2, 4]]) == 2


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


def test_primitive_integer():
    assert ila.primitive_integer([Fraction(1, 2), Fraction(3, 2)]) == [1, 3]
    assert ila.primitive_integer([4, 6]) == [2, 3]
