import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eulerint.laurent import (IntegrandSpec, LaurentPoly, OutsideDomainError,
                              ParseError, format_poly, omega_components,
                              parse_poly, power_table)


# -- construction and arithmetic -------------------------------------------

def test_zero_and_constant():
    z = LaurentPoly.zero(2)
    assert z.is_zero()
    c = LaurentPoly.constant(2, 5)
    assert c.terms == {(0, 0): 5}
    assert (z + c).terms == c.terms


def test_polynomial_is_immutable():
    # a polynomial is a dict key and caches its power table, so it refuses
    # to change
    p = parse_poly("x + 1")
    with pytest.raises(AttributeError, match="LaurentPoly is immutable"):
        p.terms = {}
    assert p == parse_poly("x + 1")


@pytest.mark.parametrize("combine", [lambda p, q: p + q, lambda p, q: p * q])
def test_arithmetic_refuses_other_nvars(combine):
    with pytest.raises(ValueError, match="nvars mismatch"):
        combine(LaurentPoly.constant(1, 2), LaurentPoly.constant(2, 3))


def test_monomial_negative_exponents():
    m = LaurentPoly.monomial((-1, 2), 3)
    assert m.has_negative_exponents()
    assert m.is_monomial()


def test_addition_cancels_exactly():
    p = parse_poly("x + y")
    q = parse_poly("-x + y")
    assert (p + q).terms == {(0, 1): 2}


def test_equal_polynomials_hash_equal():
    # built apart, in another term order: equal, so one dict key
    p = parse_poly("2 - 3*x + x^2")
    q = parse_poly("x - 1") * parse_poly("x - 2")
    assert p == q and list(p.terms) != list(q.terms)
    assert hash(p) == hash(q)
    keys = {p: "first", parse_poly("x - 2"): "other"}
    keys[q] = "second"
    assert keys == {p: "second", parse_poly("x - 2"): "other"}


def test_product_known():
    # (x - 1)(x - 2) = x^2 - 3x + 2
    p = parse_poly("x - 1") * parse_poly("x - 2")
    assert p == parse_poly("x^2 - 3*x + 2")


def test_partial_derivative():
    p = parse_poly("x^2*y + 3*y^2")
    assert p.partial(1) == parse_poly("2*x*y")
    assert p.partial(2) == parse_poly("x^2 + 6*y")
    for i in (0, 3):
        with pytest.raises(ValueError,
                           match=rf"variable index {i} out of range 1\.\.2"):
            p.partial(i)


def test_partial_of_negative_exponent():
    p = LaurentPoly.monomial((-2,), 1)
    assert p.partial(1) == LaurentPoly.monomial((-3,), -2)


def test_evaluate_rational_exact_scalar():
    p = parse_poly("1/2*x^2 - 1/3")
    v = p.evaluate([2.0])
    assert abs(v - (2 - Fraction(1, 3))) < 1e-12


def test_total_degree_and_support():
    p = parse_poly("x^3*y - x*y^2")
    assert p.total_degree() == 4
    assert set(p.support()) == {(3, 1), (1, 2)}
    assert LaurentPoly.zero(2).total_degree() == 0


# -- parser ----------------------------------------------------------------

def test_parse_fraction_coefficient():
    p = parse_poly("1/3*x*y + x^2*y^2")
    assert p.terms[(1, 1)] == Fraction(1, 3)


def test_parse_complex_coefficient():
    p = parse_poly("(1+2j)*x")
    assert p.terms[(1,)] == complex(1, 2)


def test_parse_negative_exponent():
    p = parse_poly("x^-2 + 1")
    assert (-2,) in p.terms


def test_parse_x1_x2_aliases():
    assert parse_poly("x1*x2") == parse_poly("x*y")


def test_parse_error_position():
    with pytest.raises(ParseError):
        parse_poly("x + $")


@pytest.mark.parametrize("text, position", [("3/0*x + 1", 0), ("x + 1.5/0", 4),
                                             ("2*x - 1/00", 6)])
def test_parse_zero_denominator(text, position):
    with pytest.raises(ParseError, match="zero denominator") as info:
        parse_poly(text)
    assert info.value.position == position


# a term after the first starts with + or -, and * is followed by a variable;
# read as new terms, these would be other polynomials ("x*2 - 1" as x + 1).
# After its signs, a term starts with a coefficient or a variable.
@pytest.mark.parametrize("text, position", [
    ("x*2 - 1", 2), ("2*3*x", 2), ("x**2", 2), ("x*-1", 2), ("2 3", 2),
    ("(1+2j)(3)x", 6), ("x*", 2), ("x + ^2", 4), ("*x + 1", 0),
    ("x + *y + 1", 4), ("-*x", 1)])
def test_parse_malformed_term_rejected(text, position):
    with pytest.raises(ParseError) as info:
        parse_poly(text)
    assert info.value.position == position


@pytest.mark.parametrize("text, same", [("2x", "2*x"), ("2 x", "2*x"),
                                        ("x y", "x*y"), ("- -x", "x"),
                                        ("3x^2", "3*x^2")])
def test_parse_juxtaposition_multiplies(text, same):
    assert parse_poly(text) == parse_poly(same)


def test_parse_empty_rejected():
    with pytest.raises(ParseError):
        parse_poly("")


def test_format_round_trip_hexagon(hexagon_poly):
    assert parse_poly(format_poly(hexagon_poly)) == hexagon_poly


# -- integrand spec --------------------------------------------------------

def test_spec_validation_rejects_monomials():
    with pytest.raises(ValueError):
        IntegrandSpec([parse_poly("x")], (1,), (1,))
    with pytest.raises(ValueError):
        IntegrandSpec([LaurentPoly.zero(1)], (1,), (1,))


def test_spec_length_checks():
    f = [parse_poly("x - 1")]
    with pytest.raises(ValueError):
        IntegrandSpec(f, (1, 2), (1,))
    with pytest.raises(ValueError):
        IntegrandSpec(f, (1,), (1, 2))
    with pytest.raises(ValueError, match="need at least one polynomial"):
        IntegrandSpec([], (), (1,))
    with pytest.raises(ValueError, match="all polynomials must share the same nvars"):
        IntegrandSpec(f + [parse_poly("x + y")], (1, 1), (1,))


def test_omega_simple_pole_structure():
    # [DERIVED] f = x-1, s=1, nu=1: omega = 1/(x-1) + 1/x; at x=3: 1/2+1/3
    spec = IntegrandSpec([parse_poly("x - 1")], (1,), (1,))
    w = omega_components(spec, [3.0])
    assert abs(w[0] - (Fraction(1, 2) + Fraction(1, 3))) < 1e-12


def test_omega_example_value(two_point_spec):
    # [DERIVED] s=(1/2,1/2), nu=1/2 at x=3: (1/2)(1/2) + (1/2)(1) + (1/2)/3
    w = omega_components(two_point_spec, [3.0])
    assert abs(w[0] - Fraction(11, 12)) < 1e-12


def test_omega_outside_domain(two_point_spec):
    with pytest.raises(OutsideDomainError):
        omega_components(two_point_spec, [1.0])
    with pytest.raises(OutsideDomainError):
        omega_components(two_point_spec, [0.0])
    with pytest.raises(ValueError, match=r"point has dimension \(2,\), expected "
                                         r"\(1,\) or \(P, 1\)"):
        omega_components(two_point_spec, [3.0, 4.0])


BATCH = np.array([[0.7 + 0.3j, -1.2 + 0.1j], [2.0, 0.5j], [-0.4 - 1j, 3.0]])


def test_evaluate_batch_matches_pointwise(hexagon_poly):
    p = hexagon_poly + parse_poly("x^-2*y + 5*y^-1")
    got = p.evaluate(BATCH)
    assert got.shape == (3,)
    want = np.array([p.evaluate(x) for x in BATCH])
    assert np.allclose(got, want, rtol=1e-14, atol=0)


def test_evaluate_batch_checks_every_point():
    p = parse_poly("x^-1 + y")
    batch = BATCH.copy()
    batch[2, 0] = 0
    with pytest.raises(ZeroDivisionError):
        p.evaluate(batch)
    # a zero coordinate is fine in a variable without negative exponents
    batch = BATCH.copy()
    batch[1, 1] = 0
    assert p.evaluate(batch)[1] == 1 / BATCH[1, 0]


def test_evaluate_rejects_wrong_shape(hexagon_poly):
    for method in (hexagon_poly.evaluate, hexagon_poly.value_and_gradient,
                   hexagon_poly.magnitude):
        with pytest.raises(ValueError):
            method([1.0])
        with pytest.raises(ValueError):
            method(np.ones((2, 3)))


def test_evaluate_zero_poly_batch():
    assert np.array_equal(LaurentPoly.zero(2).evaluate(BATCH), np.zeros(3))


def test_omega_batch_matches_pointwise(hexagon_poly):
    spec = IntegrandSpec([hexagon_poly, parse_poly("x - y^2")],
                         (Fraction(1, 2), Fraction(-1, 3)),
                         (Fraction(1, 4), 0.75))
    got = omega_components(spec, BATCH)
    assert got.shape == BATCH.shape
    want = np.array([omega_components(spec, x) for x in BATCH])
    assert np.allclose(got, want, rtol=1e-14, atol=0)


def test_omega_batch_outside_domain(two_point_spec):
    xs = np.array([[3.0], [0.5 + 1j], [0.0], [4.0]])
    with pytest.raises(OutsideDomainError):
        omega_components(two_point_spec, xs)
    xs[2, 0] = 2.0    # a root of f
    with pytest.raises(OutsideDomainError):
        omega_components(two_point_spec, xs)


# -- value, gradient and term magnitude ------------------------------------

def test_value_and_gradient_zero_coordinate_raises():
    p = parse_poly("x^-1 + y")
    with pytest.raises(ZeroDivisionError):
        p.evaluate([0.0, 1.0])
    with pytest.raises(ZeroDivisionError):
        p.value_and_gradient([0.0, 1.0])
    with pytest.raises(ZeroDivisionError):
        p.value_and_gradient(np.array([[1.0, 1.0], [0.0, 2.0]]))
    # a zero coordinate is fine in a variable without negative exponents
    assert np.array_equal(p.value_and_gradient([2.0, 0.0]), [0.5, -0.25, 1.0])


def _term_magnitude(poly, x):
    """Sum of |c_k| |x|^{e_k} term by term: the reference for `magnitude`."""
    ax = np.abs(np.asarray(x, dtype=np.complex128))
    total = 0.0
    for exps, coeff in poly.terms.items():
        total += abs(complex(coeff)) * float(np.prod(ax ** np.array(exps)))
    return total


def test_magnitude_matches_term_sum(hexagon_poly):
    p = hexagon_poly + parse_poly("x^-2*y + 5/3*y^-1") + LaurentPoly.constant(2, 2.5j)
    for x in BATCH:
        want = _term_magnitude(p, x)
        assert abs(p.magnitude(x) - want) <= 1e-14 * want
    want = np.array([_term_magnitude(p, x) for x in BATCH])
    assert np.allclose(p.magnitude(BATCH), want, rtol=1e-14, atol=0)
    assert LaurentPoly.zero(2).magnitude(BATCH[0]) == 0


def test_power_table_layout():
    # the one table format: complex exponents, each polynomial's block its
    # terms in sorted order, padded to the most terms of any block with terms
    # of exponent 0 and coefficient 0; the coefficients and their moduli, one
    # row per block
    f, g = parse_poly("3*x*y^-1 - 1/2"), parse_poly("(1+1j)*y^2 + 2*x - x*y")
    exps, coeffs, moduli = power_table([f, g, LaurentPoly.zero(2)])
    assert exps.dtype == np.complex128
    assert exps.tolist() == [[0, 0], [1, -1], [0, 0], [0, 2], [1, 0], [1, 1],
                             [0, 0], [0, 0], [0, 0]]
    assert coeffs.tolist() == [[-0.5, 3, 0], [1 + 1j, 2, -1], [0, 0, 0]]
    assert moduli.tolist() == [[0.5, 3, 0], [abs(1 + 1j), 2, 1], [0, 0, 0]]
    x = np.array([0.3 - 1.1j, 2.0 + 0.5j])
    # the monomials are built per variable: x_1^{e_1}, then times x_2^{e_2}
    mon = x[0] ** exps[:, 0] * x[1] ** exps[:, 1]
    # one stacked matmul (k, rows, w) @ (k, w, 1) dots every block
    blocks = mon.reshape(1, 3, 3).swapaxes(0, 1)
    values = (blocks @ coeffs[:, :, None])[:, 0, 0]
    scales = (np.abs(blocks) @ moduli[:, :, None])[:, 0, 0]
    for p, value, scale in zip((f, g), values, scales):
        assert p.evaluate(x) == value
        assert p.magnitude(x) == scale


# -- property-based --------------------------------------------------------

coeffs = st.integers(min_value=-20, max_value=20)
exps = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
polys = st.dictionaries(exps, coeffs, min_size=0, max_size=6).map(
    lambda d: LaurentPoly(2, d))


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
@settings(max_examples=40, deadline=None)
def test_multiplication_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_evaluation_is_ring_hom(p, q):
    x = np.array([0.7 + 0.3j, -1.2 + 0.1j])
    lhs = (p * q).evaluate(x)
    rhs = p.evaluate(x) * q.evaluate(x)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-9 * scale


@given(polys)
@settings(max_examples=40, deadline=None)
def test_derivative_of_product_with_x(p):
    # d/dx (x * p) = p + x * dp/dx
    x = LaurentPoly.monomial((1, 0), 1)
    assert (x * p).partial(1) == p + x * p.partial(1)


# integers, fractions, integral floats and complex numbers with half-integer
# parts, each of which `format_poly` writes in its own form
format_coeffs = st.one_of(coeffs, st.fractions(-20, 20, max_denominator=9),
                          coeffs.map(float),
                          st.builds(lambda a, b: complex(a / 2, b / 2), coeffs, coeffs))
format_polys = st.dictionaries(exps, format_coeffs, min_size=0, max_size=6).map(
    lambda d: LaurentPoly(2, d))


@given(format_polys)
@example(LaurentPoly.zero(2))
@example(LaurentPoly(2, {(1, 0): Fraction(3, 4), (0, 1): -2.0, (1, 1): 1.5 - 0.5j,
                         (0, 0): 2.5 + 0j}))
@settings(max_examples=40, deadline=None)
def test_format_parse_round_trip(p):
    assert parse_poly(format_poly(p), 2) == p


real_coeffs = st.one_of(coeffs, st.fractions(-20, 20, max_denominator=9),
                        st.floats(-20, 20))
laurent_polys = st.dictionaries(exps, real_coeffs, min_size=0, max_size=6).map(
    lambda d: LaurentPoly(2, d))
nonzero_points = st.tuples(
    *[st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0)] * 2)


@given(laurent_polys, st.lists(nonzero_points, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_value_and_gradient_matches_evaluate(p, points):
    polys = [p] + [p.partial(i + 1) for i in range(p.nvars)]
    for x in points:
        got = p.value_and_gradient(x)
        assert got.shape == (p.nvars + 1,)
        # one power table for all entries, each summed as `evaluate` sums it
        assert [complex(v) for v in got] == [q.evaluate(x) for q in polys]
    batch = np.array(points, dtype=np.complex128)
    got = p.value_and_gradient(batch)
    assert got.shape == (len(points), p.nvars + 1)
    for k, q in enumerate(polys):
        for v, x in zip(got[:, k], points):
            assert abs(v - q.evaluate(x)) <= 1e-13 * max(q.magnitude(x), 1e-300)
