import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings as hsettings, strategies as st

from eulerint import intlinalg as ila
from eulerint.gkz import (CayleyConfig, cayley_matrix, euler_operators,
                          is_nonresonant, lattice_kernel, rank_bound)
from eulerint.laurent import IntegrandSpec, LaurentPoly

HEX_SUPPORT = [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]


def _hex_spec(s=Fraction(1, 2), nu=(Fraction(1, 3), Fraction(1, 5))):
    f = LaurentPoly(2, {e: 1 for e in HEX_SUPPORT})
    return IntegrandSpec([f], (s,), tuple(nu))


# -- configuration matrix --------------------------------------------------

def test_hexagon_matrix():
    cfg = cayley_matrix(_hex_spec())
    assert cfg.matrix == (
        (1, 1, 2, 2, 3, 3),
        (2, 3, 1, 3, 1, 2),
        (1, 1, 1, 1, 1, 1),
    )
    assert cfg.blocks == (0,) * 6
    assert cfg.kappa == (Fraction(-1, 3), Fraction(-1, 5), Fraction(1, 2))


def test_two_point_matrix(two_point_spec):
    cfg = cayley_matrix(two_point_spec)
    assert cfg.matrix == ((0, 1, 0, 1), (1, 1, 0, 0), (0, 0, 1, 1))
    assert cfg.blocks == (0, 0, 1, 1)
    assert cfg.kappa == (Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2))


# -- kernel lattice --------------------------------------------------------

def test_hexagon_kernel_rank_and_member():
    cfg = cayley_matrix(_hex_spec())
    basis = lattice_kernel(cfg).vectors
    assert len(basis) == 3
    lat = ila.lattice_basis([list(v) for v in basis])
    # [DERIVED] columns 2 and 5 sum to the same point as columns 1 and 6:
    # (1,3)+(3,1) = (1,2)+(3,2) = (4,4), so e2+e5-e1-e6 is a relation
    assert ila.in_lattice(lat, [-1, 1, 0, 0, 1, -1])


def test_two_point_kernel(two_point_spec):
    basis = lattice_kernel(cayley_matrix(two_point_spec)).vectors
    assert len(basis) == 1
    v = basis[0]
    assert [abs(x) for x in v] == [1, 1, 1, 1]


def test_identity_config_empty_kernel():
    cfg = CayleyConfig(matrix=((1, 0), (0, 1)), blocks=(0, 1),
                       kappa=(0, 0), nvars=0, npolys=2)
    assert lattice_kernel(cfg).vectors == ()


# single-monomial factors are units of the Laurent ring and are rejected,
# so every generated support has at least two points
supports = st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                   min_size=2, max_size=6)


@given(supports, supports)
@hsettings(max_examples=40, deadline=None)
def test_kernel_annihilates_and_balances_blocks(sup1, sup2):
    spec = IntegrandSpec([LaurentPoly(2, {e: 1 for e in sup1}),
                          LaurentPoly(2, {e: 1 for e in sup2})],
                         (Fraction(1, 2), Fraction(1, 3)),
                         (Fraction(1, 5), Fraction(1, 7)))
    cfg = cayley_matrix(spec)
    for u in lattice_kernel(cfg).vectors:
        for row in cfg.matrix:
            assert sum(a * b for a, b in zip(row, u)) == 0
        # the indicator rows force every block to balance separately
        for j in range(2):
            assert sum(x for x, blk in zip(u, cfg.blocks) if blk == j) == 0


# -- operator text ---------------------------------------------------------

def test_hexagon_euler_operator_text():
    ops = euler_operators(cayley_matrix(_hex_spec()))
    assert ops["euler"][0] == \
        "theta1 + theta2 + 2theta3 + 2theta4 + 3theta5 + 3theta6 + nu1"
    assert ops["euler"][2].endswith(" - s1")
    assert len(ops["euler"]) == 3
    assert "saturation" in ops["disclaimer"]


def test_two_point_binomial(two_point_spec):
    ops = euler_operators(cayley_matrix(two_point_spec))
    assert ops["binomials"] in (["d1*d4 - d2*d3"], ["d2*d3 - d1*d4"])


# -- resonance -------------------------------------------------------------

def test_generic_rational_kappa_nonresonant():
    rep = is_nonresonant(cayley_matrix(_hex_spec()))
    assert rep.nonresonant
    assert all(not c.resonant for c in rep.certificates)
    assert rep.lattice_rank == 3


def test_integer_kappa_resonant():
    # kappa in the image of the matrix over Z is resonant on every facet
    cfg = cayley_matrix(_hex_spec())
    m = [1, 0, -2, 1, 0, 1]
    kappa = tuple(sum(row[c] * m[c] for c in range(6)) for row in cfg.matrix)
    rep = is_nonresonant(dataclasses.replace(cfg, kappa=kappa))
    assert not rep.nonresonant
    assert all(c.resonant for c in rep.certificates)


def test_irrational_kappa_nonresonant():
    cfg = cayley_matrix(_hex_spec())
    rep = is_nonresonant(dataclasses.replace(cfg, kappa=(2 ** 0.5, 3 ** 0.5, 0.0)))
    assert rep.nonresonant


def test_resonance_invariant_under_integer_shifts():
    cfg = cayley_matrix(_hex_spec())
    m = [2, -1, 0, 3, 0, -1]
    shift = tuple(sum(row[c] * m[c] for c in range(6)) for row in cfg.matrix)
    shifted = tuple(k + d for k, d in zip(cfg.kappa, shift))
    r1 = is_nonresonant(cfg)
    r2 = is_nonresonant(dataclasses.replace(cfg, kappa=shifted))
    assert [c.resonant for c in r1.certificates] == \
        [c.resonant for c in r2.certificates]


# -- rank bound ------------------------------------------------------------

def test_hexagon_rank_bound():
    assert rank_bound(cayley_matrix(_hex_spec())) == 6


def test_two_point_rank_bound(two_point_spec):
    assert rank_bound(cayley_matrix(two_point_spec)) == 2
