import warnings
from fractions import Fraction

import numpy as np
import pytest

from eulerint import twisted
from eulerint.laurent import IntegrandSpec, parse_poly
from eulerint.twisted import (NEWTON_CORRECTIONS, BranchCurve, Cocycle,
                              CycleClosureError, SegmentError, TwistedCycle,
                              euler_step, integrate_loop, integrate_trapezoidal,
                              newton_step, nullspace, omega_scalar,
                              pairing_matrix, principal_branch_value,
                              singular_points, track_line_segment)

# Reference configuration: f = (x-1, x-2), s = (1/2, 1/2), nu = 1/2 with two
# triangular cycles, one around {1, 2} and one around {0}, paired against the
# cocycles (a, b) = ((-1,0),1), ((0,-1),1), ((0,0),0).
CYCLE1 = (0.5 + 1j, 0.5 - 1j, 3.0)
CYCLE2 = (-1.0, 1.5 + 1j, 1.5 - 1j)
COCYCLES = [Cocycle((-1, 0), 1), Cocycle((0, -1), 1), Cocycle((0, 0), 0)]

# [PAPER] pairing matrix for the configuration above (4 significant digits)
M_REF = np.array([
    [-3.496j, 4.144j, -0.648j],
    [3.496 + 0j, 0.648 + 0j, -4.144 + 0j],
])


def _cycles(spec):
    return (
        TwistedCycle(*CYCLE1, principal_branch_value(spec, CYCLE1[0])),
        TwistedCycle(*CYCLE2, principal_branch_value(spec, CYCLE2[0])),
    )


# -- branch curve ----------------------------------------------------------

def test_branch_curve_lcm_denominator(two_point_spec):
    curve = BranchCurve.from_spec(two_point_spec)
    assert curve.k == 2
    assert curve.ks == (1, 1)
    assert curve.knu == 1


def test_branch_curve_requires_rational_exponents():
    spec = IntegrandSpec([parse_poly("x - 1")], (0.5 + 0.1j,), (0.5,))
    with pytest.raises(ValueError):
        BranchCurve.from_spec(spec)
    spec = IntegrandSpec([parse_poly("x - 1")], ("1/2",), (0.5,))
    with pytest.raises(ValueError, match="exponent s must be rational, got '1/2'"):
        BranchCurve.from_spec(spec)


def test_principal_value_on_curve(two_point_spec):
    curve = BranchCurve.from_spec(two_point_spec)
    x = 3.0 + 0.7j
    y = principal_branch_value(two_point_spec, x)
    assert abs(curve.defining(x, y)) < 1e-12


# -- predictor / corrector -------------------------------------------------

def test_euler_step_zero_dx(two_point_spec):
    om = lambda z: omega_scalar(two_point_spec, z)
    x, y = euler_step(3.0, 1.25 + 0.5j, 0.0, om)
    assert (x, y) == (3.0, 1.25 + 0.5j)


def test_euler_step_zero_omega():
    x, y = euler_step(2.0, 5.0, 0.1, lambda z: 0.0)
    assert (x, y) == (2.1, 5.0)


def test_euler_step_reference_value(two_point_spec):
    # [DERIVED] omega(3) = 1/4 + 1/2 + 1/6 = 11/12 for this configuration
    om = lambda z: omega_scalar(two_point_spec, z)
    x, y = euler_step(3.0, 1.0, 0.01, om)
    assert abs(x - 3.01) < 1e-15
    assert abs(y - (1 + Fraction(11, 1200))) < 1e-12


def test_newton_step_fixed_point(two_point_spec):
    curve = BranchCurve.from_spec(two_point_spec)
    x = 3.0 + 0.7j
    y = principal_branch_value(two_point_spec, x)
    assert abs(newton_step(y, x, curve) - y) < 1e-12


def test_newton_step_k1_is_exact():
    # integer exponents: k = 1 and one Newton step lands on the curve
    spec = IntegrandSpec([parse_poly("x - 1")], (2,), (1,))
    curve = BranchCurve.from_spec(spec)
    assert curve.k == 1
    y = newton_step(100.0 + 3j, 4.0, curve)
    assert abs(y - curve.rhs(4.0)) < 1e-12


def test_newton_step_square_root():
    # [DERIVED] y^2 = 6 at x = 7 for f = x-1, s = 1/2: one step from 2.4
    # gives (2.4 + 6/2.4)/2 = 2.45, within 2e-3 of sqrt(6)
    spec = IntegrandSpec([parse_poly("x - 1")], (Fraction(1, 2),), (0,))
    curve = BranchCurve.from_spec(spec)
    y = newton_step(2.4, 7.0, curve)
    assert abs(y - 2.45) < 1e-12
    assert abs(y - np.sqrt(6)) < 2e-3


# -- quadrature ------------------------------------------------------------

def test_trapezoid_constant():
    assert integrate_trapezoidal([3.0, 3.0, 3.0, 3.0], 0.5) == pytest.approx(4.5)


def test_trapezoid_three_values():
    # [DERIVED] (1/2 + 2 + 3/2) * 1 = 4
    assert integrate_trapezoidal([1.0, 2.0, 3.0], 1.0) == pytest.approx(4.0)


def test_trapezoid_linear_exact():
    xs = np.linspace(0.0, 1.0, 101)
    assert integrate_trapezoidal(xs, xs[1] - xs[0]) == pytest.approx(0.5, abs=1e-12)


def test_trapezoid_rejects_single_value():
    with pytest.raises(ValueError):
        integrate_trapezoidal([1.0], 1.0)


# -- segment tracking ------------------------------------------------------

def test_track_stays_on_curve(two_point_spec):
    curve = BranchCurve.from_spec(two_point_spec)
    A, B = 3.0, 4.0 + 2.0j
    yA = principal_branch_value(two_point_spec, A)
    nodes, values = track_line_segment(A, yA, B, 400, two_point_spec, curve)
    assert abs(curve.defining(complex(nodes[-1]), complex(values[-1]))) < 1e-10
    # far from the branch points the tracked value is the principal branch
    assert abs(values[-1] - principal_branch_value(two_point_spec, B)) < 1e-4


def test_track_pole_guard(two_point_spec):
    curve = BranchCurve.from_spec(two_point_spec)
    with pytest.raises(SegmentError):
        track_line_segment(-1.0, 1.0, 1.0, 3, two_point_spec, curve)


def _per_node_track(Sx, Sy, Tx, N, spec, curve, corrections):
    """The tracker written node by node from the tested primitives."""
    nodes = Sx + (Tx - Sx) * np.arange(N) / (N - 1)
    dx = (Tx - Sx) / (N - 1)
    om = lambda z: omega_scalar(spec, z)
    y = complex(Sy)
    values = [y]
    for i in range(1, N):
        _, y = euler_step(complex(nodes[i - 1]), y, dx, om)
        for _ in range(corrections):
            y = newton_step(y, complex(nodes[i]), curve)
        values.append(y)
    return nodes, np.array(values)


def _assert_same_track(Sx, Tx, N, spec, corrections=NEWTON_CORRECTIONS):
    curve = BranchCurve.from_spec(spec)
    Sy = principal_branch_value(spec, Sx)
    nodes, values = track_line_segment(Sx, Sy, Tx, N, spec, curve)
    ref_nodes, ref_values = _per_node_track(Sx, Sy, Tx, N, spec, curve,
                                            corrections)
    assert np.array_equal(nodes, ref_nodes)
    assert (np.max(np.abs(values - ref_values))
            <= 1e-12 * np.max(np.abs(ref_values)))


# with no or one correction the predictor is not hidden by Newton convergence
@pytest.mark.parametrize("corrections", [0, 1, NEWTON_CORRECTIONS])
def test_track_matches_per_node_loop(two_point_spec, monkeypatch, corrections):
    # first edge of the reference cycle around {1, 2}
    monkeypatch.setattr(twisted, "NEWTON_CORRECTIONS", corrections)
    _assert_same_track(CYCLE1[0], CYCLE1[1], 1000, two_point_spec, corrections)


def test_track_matches_per_node_loop_six_sheets():
    # three factors with denominators 2, 3 and 6: the curve has k = 6
    spec = IntegrandSpec(
        [parse_poly("x - 1"), parse_poly("x + 2"), parse_poly("x^2 + 1")],
        (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 6)), (Fraction(5, 6),))
    assert BranchCurve.from_spec(spec).k == 6
    _assert_same_track(3.0 + 0.5j, -1.5 + 2.5j, 500, spec)


def test_track_branch_collapse_is_segment_error(two_point_spec):
    # y = 0 is a fixed point of the Euler step and Newton cannot leave it
    curve = BranchCurve.from_spec(two_point_spec)
    with pytest.raises(SegmentError):
        track_line_segment(3.0, 0.0, 4.0 + 2.0j, 50, two_point_spec, curve)


def test_newton_step_branch_collapse(two_point_spec):
    curve = BranchCurve.from_spec(two_point_spec)
    with pytest.raises(ZeroDivisionError):
        newton_step(0j, 3.0, curve)


def test_track_rejects_single_node(two_point_spec):
    curve = BranchCurve.from_spec(two_point_spec)
    with pytest.raises(ValueError):
        track_line_segment(3.0, 1.0, 4.0, 1, two_point_spec, curve)


def test_branch_rhs_on_array(two_point_spec):
    curve = BranchCurve.from_spec(two_point_spec)
    xs = np.array([3.0 + 0.7j, -1.0 + 0.2j, 0.5 - 2j])
    assert np.allclose(curve.rhs(xs), [curve.rhs(complex(x)) for x in xs],
                       rtol=1e-14, atol=0)


def test_singular_points(two_point_spec):
    pts = sorted(singular_points(two_point_spec).real)
    assert np.allclose(pts, [0.0, 1.0, 2.0])


def test_singular_points_degree_cap(monkeypatch):
    # the cap is on the exponent span, highest minus lowest exponent
    monkeypatch.setattr(twisted, "MAX_DEGREE", 4)
    spec = IntegrandSpec([parse_poly("x^2 - 3*x^-2"), parse_poly("x - 2")],
                         (0.5, 0.5), (0.5,))
    assert len(singular_points(spec)) == 6
    wide = IntegrandSpec([parse_poly("x - 2"), parse_poly("x^3 - 3*x^-2")],
                         (0.5, 0.5), (0.5,))
    with pytest.raises(ValueError, match=r"f_2 spans 5 degrees, more than "
                                         r"twisted\.MAX_DEGREE = 4"):
        singular_points(wide)


# -- loops and the pairing matrix ------------------------------------------

def test_loop_closure_residual_small(two_point_spec):
    curve = BranchCurve.from_spec(two_point_spec)
    cyc = _cycles(two_point_spec)[0]
    loop = integrate_loop(cyc, 600, two_point_spec, curve, COCYCLES)
    assert loop.closure_residual < 1e-6


def test_open_loop_raises(two_point_spec):
    # a triangle around only x = 1 flips the branch: phi -> -phi
    curve = BranchCurve.from_spec(two_point_spec)
    A = 0.7 + 0.3j
    cyc = TwistedCycle(A, 0.7 - 0.3j, 1.4,
                       principal_branch_value(two_point_spec, A))
    with pytest.raises(CycleClosureError):
        integrate_loop(cyc, 600, two_point_spec, curve, COCYCLES)


@pytest.mark.parametrize("a", [(-1,), (-1, 0, 5)])
def test_cocycle_length_checked(two_point_spec, a):
    curve = BranchCurve.from_spec(two_point_spec)
    cyc = _cycles(two_point_spec)[0]
    with pytest.raises(ValueError):
        integrate_loop(cyc, 100, two_point_spec, curve, [Cocycle(a, 1)])


def test_vertex_on_singularity_rejected(two_point_spec):
    curve = BranchCurve.from_spec(two_point_spec)
    cyc = TwistedCycle(1.0, 0.5 - 1j, 3.0, 1.0)
    with pytest.raises(ValueError):
        integrate_loop(cyc, 100, two_point_spec, curve, COCYCLES)


def test_cycle_distinct_vertices():
    with pytest.raises(ValueError):
        TwistedCycle(1.0 + 1j, 1.0 + 1j, 3.0, 1.0)


def test_pairing_matrix_reference(two_point_spec):
    M = pairing_matrix(_cycles(two_point_spec), COCYCLES, 1000, two_point_spec)
    assert np.max(np.abs(M.as_array() - M_REF)) < 5e-3
    assert max(M.closure_residuals) < 1e-6


def test_pairing_matrix_refinement_stable(two_point_spec):
    cycles = _cycles(two_point_spec)[:1]
    a = pairing_matrix(cycles, COCYCLES, 500, two_point_spec).as_array()
    b = pairing_matrix(cycles, COCYCLES, 1000, two_point_spec).as_array()
    assert np.max(np.abs(a - b)) < 1e-3 * max(1.0, np.max(np.abs(b)))


def test_pairing_needs_a_cycle_and_a_cocycle(two_point_spec):
    for cycles, cocycles in (((), COCYCLES), (_cycles(two_point_spec), ())):
        with pytest.raises(ValueError, match="need at least one cycle and one cocycle"):
            pairing_matrix(cycles, cocycles, 100, two_point_spec)


def test_pairing_requires_univariate(hexagon_poly):
    spec = IntegrandSpec([hexagon_poly], (Fraction(1, 2),),
                         (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(NotImplementedError):
        pairing_matrix([TwistedCycle(0.5 + 1j, 0.5 - 1j, 3.0, 1.0)],
                       COCYCLES, 100, spec)


# -- kernel extraction -----------------------------------------------------

def test_kernel_of_reference_matrix(two_point_spec):
    M = pairing_matrix(_cycles(two_point_spec), COCYCLES, 1000, two_point_spec)
    kers = nullspace(M)
    assert len(kers) == 1
    v = np.array(kers[0].vector)
    # parallel to (1, 1, 1): normalized so the largest entry is exactly 1
    assert np.max(np.abs(v - np.ones(3))) < 5e-3
    assert kers[0].rational is not None
    assert [c[0] for c in kers[0].rational] == [Fraction(1)] * 3


def test_nullspace_zero_matrix():
    kers = nullspace(np.zeros((2, 3)))
    assert len(kers) == 3


def test_nullspace_refuses_a_vector():
    with pytest.raises(ValueError, match="matrix must be two-dimensional"):
        nullspace(np.zeros(3))


def test_nullspace_identity_empty():
    assert nullspace(np.eye(3)) == []


def test_nullspace_known_vector():
    # [TRIVIAL] rows (1, -1, 0) and (0, 1, -1): kernel spanned by (1, 1, 1)
    kers = nullspace(np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]))
    assert len(kers) == 1
    assert np.allclose(np.array(kers[0].vector), 1.0)


def test_nullspace_columns_of_unequal_scale():
    # independent columns whose norms differ by 1e9: without scaling, the
    # small column's singular value fell below the cutoff
    assert nullspace(np.array([[1e9, 1.0], [2e9, -1.0]])) == []
    # dependent columns of the same scales keep their relation, unscaled
    kers = nullspace(np.array([[1e9, 1.0], [2e9, 2.0]]))
    assert len(kers) == 1
    assert np.allclose(kers[0].vector, [-1e-9, 1.0], rtol=1e-12, atol=0)


def test_nullspace_columns_near_the_ends_of_the_float_range():
    # squaring 1e200 overflows and squaring 1e-200 underflows; the column
    # scale must do neither
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert nullspace(np.array([[1e200, 1e-200], [2e200, -1e-200]])) == []
        kers = nullspace(np.array([[1e150, 1e-150], [2e150, 2e-150]]))
    assert len(kers) == 1
    assert np.allclose(kers[0].vector, [-1e-300, 1.0], rtol=1e-12, atol=0)
