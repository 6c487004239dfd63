from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings as hsettings, strategies as st

from eulerint import twisted as tw
from eulerint.laurent import IntegrandSpec, LaurentPoly, parse_poly
from eulerint.relations import (AnnOperator, LogForm, Relation, mellin_relation,
                                nabla_apply, operator_form, relations_agree,
                                verify_numeric)

HALF = Fraction(1, 2)


def _principal_cycle(spec, A, B, C):
    return tw.TwistedCycle(A, B, C, tw.principal_branch_value(spec, A))


# -- shift relation from the constant function -----------------------------

def test_constant_function_relation(quadratic_spec):
    # [DERIVED] for f = (x-1)(x-2), s = nu = 1/2, the derivative of
    # f^{1/2} x^{1/2} expands to  1/2 I_{0,0} + I_{-1,2} - 3/2 I_{-1,1} = 0
    # (shifts measured against the basis f^a x^b dx/x)
    phi = LogForm.from_function(LaurentPoly.constant(1, 1), (0,), (0,))
    rel = nabla_apply(phi, quadratic_spec)
    assert rel.as_dict() == {
        ((0,), (0,)): HALF,
        ((-1,), (2,)): Fraction(1),
        ((-1,), (1,)): Fraction(-3, 2),
    }


def test_zero_form_gives_empty_relation(quadratic_spec):
    rel = nabla_apply(LogForm.zero(1), quadratic_spec)
    assert rel.is_empty()


def test_forms_in_other_variable_counts_do_not_add():
    with pytest.raises(ValueError, match="variable counts differ"):
        LogForm.zero(1) + LogForm.zero(2)


def test_normalize_sets_largest_entry_to_one(quadratic_spec):
    phi = LogForm.from_function(LaurentPoly.constant(1, 1), (0,), (0,))
    rel = nabla_apply(phi, quadratic_spec).normalize()
    coeffs = [c for _, c in rel.terms]
    assert max(coeffs, key=abs) == 1


# -- linearity -------------------------------------------------------------

small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    min_size=0, max_size=3).map(lambda d: LaurentPoly(1, d))


@given(small_polys, small_polys, st.fractions(-3, 3, max_denominator=4))
@hsettings(max_examples=40, deadline=None)
def test_nabla_is_linear(quadratic_spec, g1, g2, c):
    phi1 = LogForm.from_function(g1, (0,), (0,))
    phi2 = LogForm.from_function(g2.scale(c), (0,), (0,))
    lhs = nabla_apply(phi1 + phi2, quadratic_spec)
    rhs = nabla_apply(phi1, quadratic_spec) + nabla_apply(phi2, quadratic_spec)
    assert lhs.as_dict() == rhs.as_dict()


# -- coefficient types -----------------------------------------------------

def _annihilator(spec, c):
    """P = c f d/dx + q with q = -s c f', which annihilates f^s for any c."""
    f = spec.f[0]
    return AnnOperator((c * f,), (c * f.partial(1)).scale(-spec.s[0]))


def _relations(spec, g):
    P = _annihilator(spec, g)
    return (nabla_apply(LogForm.from_function(g, (0,), (0,)), spec),
            nabla_apply(operator_form(P), spec), mellin_relation(P, spec))


rationals = st.fractions(-3, 3, max_denominator=4)


@given(small_polys, rationals, rationals)
@hsettings(max_examples=40, deadline=None)
def test_rational_inputs_give_exact_coefficients(g, s, nu):
    spec = IntegrandSpec([parse_poly("x^2 - 3/2*x + 1/2")], (s,), (nu,))
    for r in _relations(spec, g):
        assert all(type(c) in (int, Fraction) for _, c in r.terms)
        assert all(type(c) in (int, Fraction) for _, c in r.normalize().terms)


entries = st.one_of(st.integers(-3, 3), st.floats(-3, 3),
                    st.complex_numbers(max_magnitude=3, allow_nan=False,
                                       allow_infinity=False))
entry_polys = st.dictionaries(st.tuples(st.integers(0, 2)), entries,
                              min_size=0, max_size=3).map(lambda d: LaurentPoly(1, d))


def _as_complex(p):
    return LaurentPoly(p.nvars, {e: complex(c) for e, c in p.terms.items()})


@given(entry_polys, entry_polys, entries, entries)
@hsettings(max_examples=60, deadline=None)
def test_float_coefficients_match_complex_ones(f, g, s, nu):
    # float and complex entries promote the arithmetic as complex() would
    assume(len(f.terms) >= 2)
    spec = IntegrandSpec([f], (s,), (nu,))
    as_complex = IntegrandSpec([_as_complex(f)], (complex(s),), (complex(nu),))
    for r, want in zip(_relations(spec, g), _relations(as_complex, _as_complex(g))):
        assert r.terms == want.terms


# -- operators and the two translation routes ------------------------------

def test_operator_membership(quadratic_spec):
    f = quadratic_spec.f[0]
    good = AnnOperator((f,), parse_poly("-x + 3/2"))
    assert good.annihilates(quadratic_spec)
    bad = AnnOperator((f,), parse_poly("x"))
    assert not bad.annihilates(quadratic_spec)
    two = IntegrandSpec([f, parse_poly("x + 1")], (HALF, HALF), (HALF,))
    with pytest.raises(ValueError, match="operator check requires a single f"):
        good.annihilates(two)


def test_mellin_rejects_non_annihilator(quadratic_spec):
    with pytest.raises(ValueError):
        mellin_relation(AnnOperator((parse_poly("x"),), parse_poly("1")),
                        quadratic_spec)


def test_reference_operator_routes_agree(quadratic_spec):
    # P = f d/dx + (3/2 - x) annihilates f^{1/2}; the shift relation it
    # induces must match the one from its associated logarithmic form
    P = AnnOperator((quadratic_spec.f[0],), parse_poly("-x + 3/2"))
    r_op = mellin_relation(P, quadratic_spec)
    r_form = nabla_apply(operator_form(P), quadratic_spec)
    assert relations_agree(r_op, r_form, tol=1e-9)
    assert not r_op.is_empty()


@pytest.mark.parametrize("seed", range(10))
def test_random_operator_routes_agree(quadratic_spec, seed):
    # p = c * f keeps q = -s c f' polynomial, so P = p d/dx + q annihilates
    rng = np.random.default_rng(400 + seed)
    f = quadratic_spec.f[0]
    c = LaurentPoly(1, {(e,): Fraction(int(rng.integers(-4, 5)))
                        for e in range(3)})
    if c.is_zero():
        c = LaurentPoly.constant(1, 1)
    P = AnnOperator((c * f,), (c * f.partial(1)).scale(-HALF))
    assert P.annihilates(quadratic_spec)
    r_op = mellin_relation(P, quadratic_spec)
    r_form = nabla_apply(operator_form(P), quadratic_spec)
    assert relations_agree(r_op, r_form, tol=1e-9)


# -- relations_agree edge cases --------------------------------------------

def test_agree_scale_invariant(quadratic_spec):
    phi = LogForm.from_function(parse_poly("x + 2"), (0,), (0,))
    r = nabla_apply(phi, quadratic_spec)
    assert relations_agree(r, r.scaled(Fraction(-7, 3)))


def test_agree_rejects_different_support(quadratic_spec):
    r1 = nabla_apply(LogForm.from_function(LaurentPoly.constant(1, 1), (0,), (0,)),
                     quadratic_spec)
    r2 = nabla_apply(LogForm.from_function(parse_poly("x"), (0,), (0,)),
                     quadratic_spec)
    assert not relations_agree(r1, r2)


def test_agree_empty_relations():
    assert relations_agree(Relation([]), Relation([]))


# -- numerical verification over actual cycles -----------------------------

CYCLES = [
    (0.5 + 1j, 0.5 - 1j, 3.0),
    (-1.0, 1.5 + 1j, 1.5 - 1j),
    (-2 + 0.5j, -0.5 - 1.5j, 4 + 2j),   # held out: not used to derive anything
]


def _integral_scale(rel, cycle, spec):
    curve = tw.BranchCurve.from_spec(spec)
    cocycles = [tw.Cocycle(a, b[0]) for (a, b), _ in rel.terms]
    loop = tw.integrate_loop(cycle, 1000, spec, curve, cocycles)
    return max(abs(v) for v in loop.values)


@pytest.mark.parametrize("verts", CYCLES)
def test_constant_relation_vanishes_on_cycles(quadratic_spec, verts):
    rel = nabla_apply(LogForm.from_function(LaurentPoly.constant(1, 1), (0,), (0,)),
                      quadratic_spec)
    cyc = _principal_cycle(quadratic_spec, *verts)
    scale = _integral_scale(rel, cyc, quadratic_spec)
    assert abs(verify_numeric(rel, cyc, quadratic_spec)) < 1e-3 * scale


def test_operator_relation_vanishes_on_held_out_cycle(quadratic_spec):
    P = AnnOperator((quadratic_spec.f[0],), parse_poly("-x + 3/2"))
    rel = mellin_relation(P, quadratic_spec)
    cyc = _principal_cycle(quadratic_spec, *CYCLES[2])
    scale = _integral_scale(rel, cyc, quadratic_spec)
    assert abs(verify_numeric(rel, cyc, quadratic_spec)) < 1e-3 * scale


def test_perturbed_relation_detected(quadratic_spec):
    # corrupting one coefficient must produce a residual well above noise
    rel = nabla_apply(LogForm.from_function(LaurentPoly.constant(1, 1), (0,), (0,)),
                      quadratic_spec)
    terms = list(rel.terms)
    (key, c0) = terms[0]
    bad = Relation([(key, c0 + Fraction(1, 10))] + terms[1:])
    cyc = _principal_cycle(quadratic_spec, *CYCLES[2])
    scale = _integral_scale(rel, cyc, quadratic_spec)
    assert abs(verify_numeric(bad, cyc, quadratic_spec)) > 1e-2 * scale


def test_verify_empty_relation_is_zero(quadratic_spec):
    cyc = _principal_cycle(quadratic_spec, *CYCLES[0])
    assert verify_numeric(Relation([]), cyc, quadratic_spec) == 0j
