import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from eulerint import critical, laurent, polytope
from eulerint.critical import (DIVERGENCE_RADIUS, INITIAL_STEP, MAX_NEWTON,
                               MAX_STEP, MIN_STEP, NEWTON_TOL, STALL_WINDOW,
                               TAIL_AGREEMENT, TAIL_GROWTH, TAIL_RATIO,
                               PolySystem, SolutionSet, TrackerSettings,
                               build_system, euler_characteristic, solve)
from eulerint.laurent import IntegrandSpec, LaurentPoly, omega_components, parse_poly

from conftest import HEXAGON_TEXT, LINES_TEXT


# -- fixed thresholds ------------------------------------------------------

def test_settings_reject_nonpositive():
    for name in ("INITIAL_STEP", "MAX_STEP", "MIN_STEP", "STALL_WINDOW",
                 "DIVERGENCE_RADIUS", "TAIL_RATIO", "TAIL_GROWTH", "TAIL_AGREEMENT",
                 "NEWTON_TOL", "MAX_NEWTON", "POLISH_TOL", "POLISH_ITERS",
                 "RESIDUAL_TOL", "BOUNDARY_TOL", "DEDUP_DISTANCE"):
        assert getattr(critical, name) > 0, name


def test_settings_dedup_exceeds_residual():
    assert critical.DEDUP_DISTANCE > critical.RESIDUAL_TOL


# -- endpoint polish -------------------------------------------------------

class _ConstantSystem:
    """A homotopy whose row k of a batch has x = k + 1 and, at any t, H = r[k],
    scale 1 and Jacobian jac[k].

    A Jacobian of 1e300 makes every Newton step round away, so x stays k + 1;
    one of 0 is singular.  `evaluations[k]` counts the batches that held row k.
    """

    def __init__(self, r, jac=None):
        self.r = np.array(r, dtype=complex)
        self.jac = np.full(len(r), 1e300) if jac is None else np.array(jac, dtype=float)
        self.evaluations = np.zeros(len(r), dtype=int)

    def points(self):
        return np.arange(1, len(self.r) + 1, dtype=complex)[:, None]

    def evaluate(self, x, t, rows):
        k = x[:, 0].real.astype(int) - 1
        self.evaluations[k] += 1
        return (self.r[k][:, None], self.jac[k][:, None, None].astype(complex),
                np.zeros((len(k), 1), dtype=complex), np.ones((len(k), 1)))

    def bind(self, rows, t):
        return lambda x, k: self.evaluate(x, t[k], rows[k])


def _stack_sizes(monkeypatch):
    """The list that gets the stack size of each `_solve_stack` call."""
    sizes, solve_stack = [], critical._solve_stack

    def spy(a, b):
        sizes.append(len(b))
        return solve_stack(a, b)

    monkeypatch.setattr(critical, "_solve_stack", spy)
    return sizes


@pytest.mark.parametrize("r, kept, evaluations", [
    (0.0, True, 1),                                # passes POLISH_TOL at once
    (1e-12, True, critical.POLISH_ITERS + 1),      # passes NEWTON_TOL after the cap
    (1e-6, False, critical.POLISH_ITERS + 1),      # fails both
])
def test_polish_final_test(r, kept, evaluations, monkeypatch):
    stacks = _stack_sizes(monkeypatch)
    system = _ConstantSystem([r])
    x = system.points()
    assert critical._polish(system, x, np.arange(1)).tolist() == [kept]
    assert system.evaluations.tolist() == [evaluations]
    assert np.array_equal(x, system.points())
    # one solve per step, none once the row has stopped
    assert stacks == [1] * (evaluations - 1)


def test_polish_ends_when_every_row_is_singular(monkeypatch):
    # both rows drop at the first step, so nothing is evaluated or solved again
    stacks = _stack_sizes(monkeypatch)
    system = _ConstantSystem([1e-6, 1e-6], jac=[0.0, 0.0])
    assert critical._polish(system, system.points(), np.arange(2)).tolist() == [False] * 2
    assert system.evaluations.tolist() == [1, 1]
    assert stacks == [2]


def test_polish_mixed_batch():
    # kept at once, kept after the cap, dropped, and a singular Jacobian that
    # drops only its own row at the first step
    system = _ConstantSystem([0.0, 1e-12, 1e-6, 1e-6], jac=[1e300] * 3 + [0.0])
    kept = critical._polish(system, system.points(), np.arange(4))
    assert kept.tolist() == [True, True, False, False]
    cap = critical.POLISH_ITERS + 1
    assert system.evaluations.tolist() == [1, cap, cap, 1]


# -- cleared system --------------------------------------------------------

def test_build_system_no_negative_exponents(two_point_spec, hexagon_poly,
                                            lines_poly):
    sys_ = build_system(two_point_spec)
    for eq in sys_.equations:
        assert not eq.has_negative_exponents()
    # f = x y f~ for both: each cleared equation is divided by its monomial
    # content, so no x_k divides it
    for poly in (hexagon_poly, lines_poly):
        sys_ = build_system(IntegrandSpec([poly], (0.5 + 0.1j,), (0.3 - 0.2j, 0.7)))
        assert [eq.min_exponents() for eq in sys_.equations] == [(0, 0)] * 2
        assert critical._total_degrees(sys_) == [3, 3]


def test_build_system_square(hexagon_poly):
    spec = IntegrandSpec([hexagon_poly], (0.5,), (0.3, 0.7))
    sys_ = build_system(spec)
    assert len(sys_.equations) == 2


def _reference_system(spec):
    """Equation i built as x_i d_i: partial, scale, multiply, shift by x_i."""
    n = spec.nvars
    eqs = []
    for i in range(n):
        acc = LaurentPoly.zero(n)
        for j, fj in enumerate(spec.f):
            term = fj.partial(i + 1).scale(spec.s[j])
            for k, fk in enumerate(spec.f):
                if k != j:
                    term = term * fk
            acc = acc + term
        acc = acc.shift(tuple(1 if k == i else 0 for k in range(n)))
        prod_all = LaurentPoly.constant(n, 1)
        for fk in spec.f:
            prod_all = prod_all * fk
        acc = acc + prod_all.scale(spec.nu[i])
        eqs.append(acc.shift(-m for m in acc.min_exponents()))
    return eqs


_COEFFICIENTS = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4),
                          st.floats(-2, 2), st.complex_numbers(max_magnitude=2))


@st.composite
def _polys(draw):
    """1 to 3 polynomials in 1 to 3 variables, of 2 to 4 terms each."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-2, 2)] * n)
    return [LaurentPoly(n, draw(st.dictionaries(exps, _COEFFICIENTS.filter(bool),
                                                min_size=2, max_size=4)))
            for _ in range(draw(st.integers(1, 3)))]


@given(_polys(), st.data())
@hsettings(max_examples=60, deadline=None)
def test_build_system_matches_reference(polys, data):
    n, ell = polys[0].nvars, len(polys)
    s = data.draw(st.lists(_COEFFICIENTS, min_size=ell, max_size=ell))
    nu = data.draw(st.lists(_COEFFICIENTS, min_size=n, max_size=n))
    spec = IntegrandSpec(polys, s, nu)
    assert list(build_system(spec).equations) == _reference_system(spec)


# s and nu as `euler_characteristic` draws them: every coefficient keeps its
# bits, and the terms their order
@given(_polys(), st.integers(0, 2 ** 32 - 1))
@hsettings(max_examples=60, deadline=None)
def test_build_system_keeps_reference_bits(polys, seed):
    rng = np.random.default_rng(seed)
    spec = IntegrandSpec(polys, critical._random_parameters(rng, len(polys)),
                         critical._random_parameters(rng, polys[0].nvars))
    assert ([[(e, repr(c)) for e, c in eq.terms.items()]
             for eq in build_system(spec).equations]
            == [[(e, repr(c)) for e, c in eq.terms.items()]
                for eq in _reference_system(spec)])


def test_single_linear_factor_exact_root():
    # [DERIVED] f = x-1, s=1, nu=1: s x/(x-1) + nu = 0 at x = 1/2
    spec = IntegrandSpec([parse_poly("x - 1")], (1,), (1,))
    sol = solve(build_system(spec), TrackerSettings(seed=3))
    assert sol.distinct == 1
    assert abs(sol.solutions[0][0] - 0.5) < 1e-8


def test_two_point_count(two_point_spec):
    # chi of C minus {0, 1, 2} is -2: two critical points
    sol = solve(build_system(two_point_spec), TrackerSettings(seed=1))
    assert sol.distinct == 2
    assert (sol.raw_paths, sol.converged, sol.filtered,
            sol.failed_paths) == (4, 4, 0, 0)


_THREE_TEXT = "x*y + y*z + x*z + x + 2*z - 1"


def _target(system, rows):
    """The evaluator of F, its Jacobian J and the scale at a point (n,) or on
    a batch (P, n), P <= rows: H(., 1) of a one-draw `_Homotopy` of `rows` rows."""
    n = system.nvars
    homotopy = critical._Homotopy([system], np.zeros(rows, dtype=int), np.ones(rows),
                                  np.ones(n), np.ones((rows, n)))

    def evaluate(x):
        x = np.asarray(x, dtype=np.complex128)
        points = x.reshape(-1, n)
        f, jac, _, scale = homotopy.evaluate(points, np.ones(len(points)),
                                             np.arange(len(points)))
        return f.reshape(x.shape), jac.reshape(x.shape + (n,)), scale.reshape(x.shape)

    return evaluate


def test_system_jacobian_matches_central_differences():
    rng = np.random.default_rng(8)
    h = 1e-5
    for text, nu in ((HEXAGON_TEXT, (0.3 - 0.2j, 0.7 + 0.4j)),
                     (_THREE_TEXT, (0.3 - 0.2j, 0.7 + 0.4j, -0.6 + 0.1j))):
        system = build_system(IntegrandSpec([parse_poly(text)], (0.5 + 0.1j,), nu))
        evaluate = _target(system, 5)
        n = system.nvars
        point = np.array([0.8 + 0.3j, -1.1 + 0.6j, 0.5 - 0.9j][:n])
        assert np.array_equal(evaluate(point)[0],
                              [eq.evaluate(point) for eq in system.equations])
        batch = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
        for x in (point, batch):
            f, jac, scale = evaluate(x)
            assert f.shape == scale.shape == x.shape and jac.shape == x.shape + (n,)
            # the partial polynomials are the reference for the Euler form
            for i, eq in enumerate(system.equations):
                for k in range(n):
                    d = eq.partial(k + 1)
                    assert np.all(np.abs(jac[..., i, k] - d.evaluate(x))
                                  <= 1e-13 * d.magnitude(x))
            scale = np.max(scale, axis=-1, keepdims=True)
            for k in range(n):
                step = h * np.eye(n)[k]
                diff = (evaluate(x + step)[0] - evaluate(x - step)[0]) / (2 * h)
                assert np.all(np.abs(jac[..., k] - diff) <= 1e-7 * scale)


def test_system_magnitude_is_per_equation(hexagon_poly):
    spec = IntegrandSpec([hexagon_poly], (0.5,), (0.3, 0.7))
    system = build_system(spec)
    x = np.array([0.8 + 0.3j, -1.1 + 0.6j])
    assert np.array_equal(_target(system, 1)(x)[2],
                          [eq.magnitude(x) for eq in system.equations])


def _random_system(polys, rng):
    n = polys[0].nvars
    s = tuple(complex(*rng.uniform(-1, 1, 2)) for _ in polys)
    nu = tuple(complex(*rng.uniform(-1, 1, 2)) for _ in range(n))
    return build_system(IntegrandSpec(polys, s, nu))


@pytest.mark.parametrize("text", [HEXAGON_TEXT, _THREE_TEXT])
def test_system_batch_matches_points(text):
    rng = np.random.default_rng(4)
    system = _random_system([parse_poly(text)], rng)
    n = system.nvars
    x = rng.normal(size=(7, n)) + 1j * rng.normal(size=(7, n))
    evaluate = _target(system, 7)
    f, jac, scale = evaluate(x)
    assert f.shape == scale.shape == (7, n) and jac.shape == (7, n, n)
    for k in range(7):
        fk, jk, sk = evaluate(x[k])
        assert np.array_equal(f[k], fk)
        assert np.array_equal(jac[k], jk)
        assert np.array_equal(scale[k], sk)


def test_system_slices_match_whole_batch(monkeypatch):
    rng = np.random.default_rng(5)
    system = _random_system([parse_poly(_THREE_TEXT)], rng)
    x = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
    evaluate = _target(system, 9)
    whole = evaluate(x)
    # a budget below one row's table: every row is its own slice
    monkeypatch.setattr(laurent, "TABLE_ENTRIES", 1)
    for got, want in zip(evaluate(x), whole):
        assert np.array_equal(got, want)


def test_power_table_memory_is_bounded():
    # dense f of degree 32 in two variables.  H(., 1) of the cleared system
    # on 1,024 paths has 1,126 monomials, a whole-batch table of about 2.3
    # million complex entries; f with its gradient on the 3,072 endpoints of
    # three attempts has 1,683, a table of 10.3 million
    rng = np.random.default_rng(6)
    f = LaurentPoly(2, {(i, j): complex(*rng.uniform(-1, 1, 2))
                        for i in range(33) for j in range(33 - i)})
    system = build_system(IntegrandSpec([f], (0.5,), (0.5, 0.5)))
    for evaluate, rows in ((_target(system, 1024), 1024), (f.value_and_gradient, 3072)):
        x = rng.normal(size=(rows, 2)) + 1j * rng.normal(size=(rows, 2))
        evaluate(x[:1])    # builds the cached exponent table before the trace
        tracemalloc.start()
        try:
            evaluate(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one slice's table, its monomials and the previous slice's monomials
        assert peak <= 3 * 16 * laurent.TABLE_ENTRIES


# -- homotopy evaluator against the arithmetic it replaced ------------------

def _start_arithmetic(system, x, t, gamma, degrees, roots):
    """H, dH/dt and the scale as the tracker built them before `_Homotopy`:
    F and its scale from the equations' own `LaurentPoly` evaluators, then
    the start system x^d - r by hand."""
    f = np.stack([eq.evaluate(x) for eq in system.equations], axis=-1)
    scale = np.stack([eq.magnitude(x) for eq in system.equations], axis=-1)
    s, u = t[:, None], (1 - t)[:, None]
    g = x ** degrees - roots
    c = gamma[:, None] * u
    return (c * g + s * f, f - gamma[:, None] * g,
            u * (np.abs(x) ** degrees + np.abs(roots)) + s * scale)


# equations of 10 terms and of 2, so that the homotopy pads the second block
_UNEQUAL = ("x^5*y + x^4*y^2 + x^4 + x^3*y + x^3 + x^2*y^3 + x^2 + x*y + x + 1",
            "x*y^2 - 2")


def _equation_draws(texts, count, seed):
    """`count` systems of the equations `texts`, with random coefficients."""
    rng = np.random.default_rng(seed)
    polys = [parse_poly(t) for t in texts]
    spec = IntegrandSpec(polys, (1,) * len(polys), (1,) * polys[0].nvars)
    return [PolySystem(tuple(LaurentPoly(p.nvars, {e: complex(*rng.uniform(-1, 1, 2))
                                                   for e in p.terms}) for p in polys),
                       spec) for _ in range(count)]


def _homotopy_batch(text, rows, seed):
    """A `_Homotopy` over two draws of two runs each, and `rows` random rows:
    their points, t in {0, 0.37, 1}, and each row's system, gamma and roots.

    `text` is an f, whose cleared systems are drawn, or a tuple of equations.
    The start degrees differ per equation, which the cleared systems' total
    degrees here do not.
    """
    systems = (_draws([text], 2, seed)[0] if isinstance(text, str)
               else _equation_draws(text, 2, seed))
    rng = np.random.default_rng(seed)
    n = systems[0].nvars
    degrees = np.array(critical._total_degrees(systems[0]), dtype=np.float64)
    degrees += np.arange(n)
    runs = [critical._start_system(degrees, rng)[1:] for _ in range(4)]
    run = rng.integers(0, 4, size=rows)
    gamma = np.array([g for g, _ in runs])[run]
    roots = np.array([r for _, r in runs])[run]
    homotopy = critical._Homotopy(systems, run // 2, gamma, degrees, roots)
    x = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
    t = rng.choice([0.0, 0.37, 1.0], size=rows)
    return homotopy, x, t, [systems[d] for d in run // 2], gamma, degrees, roots


@pytest.mark.parametrize("text", [HEXAGON_TEXT, _THREE_TEXT, "x^3 - 2*x + 1",
                                  pytest.param(_UNEQUAL, id="unequal-terms")])
def test_homotopy_matches_start_arithmetic(text):
    homotopy, x, t, systems, gamma, degrees, roots = _homotopy_batch(text, 24, 15)
    h, hx, ht, scale = homotopy.evaluate(x, t, np.arange(len(x)))
    assert h.shape == ht.shape == scale.shape == x.shape
    assert hx.shape == x.shape + (x.shape[1],)
    for k, system in enumerate(systems):
        row = slice(k, k + 1)
        want = _start_arithmetic(system, x[row], t[row], gamma[row], degrees,
                                 roots[row])
        assert np.all(np.abs(scale[k] - want[2][0]) <= 1e-13 * want[2][0])
        assert np.all(np.abs(h[k] - want[0][0]) <= 1e-13 * want[2][0])
        # dH/dt = F - gamma G, against the sum of |term| of F and of G
        both = (np.array([eq.magnitude(x[k]) for eq in system.equations])
                + np.abs(x[k]) ** degrees + np.abs(roots[k]))
        assert np.all(np.abs(ht[k] - want[1][0]) <= 1e-13 * both)


@pytest.mark.parametrize("text", [HEXAGON_TEXT, _THREE_TEXT])
def test_homotopy_jacobian_matches_central_differences(text):
    homotopy, x, t, *_ = _homotopy_batch(text, 12, 16)
    ids = np.arange(len(x))
    _, hx, _, scale = homotopy.evaluate(x, t, ids)
    step = 1e-5
    for k in range(x.shape[1]):
        dx = step * np.eye(x.shape[1])[k]
        diff = (homotopy.evaluate(x + dx, t, ids)[0]
                - homotopy.evaluate(x - dx, t, ids)[0]) / (2 * step)
        assert np.all(np.abs(hx[..., k] - diff)
                      <= 1e-7 * np.max(scale, axis=1, keepdims=True))


@pytest.mark.parametrize("text", [HEXAGON_TEXT, _THREE_TEXT, "x^3 - 2*x + 1",
                                  pytest.param(_UNEQUAL, id="unequal-terms")])
@pytest.mark.parametrize("entries", [laurent.TABLE_ENTRIES, 1])
def test_homotopy_batch_rows_match_rows_alone(text, entries, monkeypatch):
    homotopy, x, t, *_ = _homotopy_batch(text, 40, 17)
    rows = np.random.default_rng(18).choice(40, size=11, replace=False)
    monkeypatch.setattr(laurent, "TABLE_ENTRIES", entries)
    batch = homotopy.evaluate(x[rows], t[rows], rows)
    for k, r in enumerate(rows):
        alone = homotopy.evaluate(x[r:r + 1], t[r:r + 1], [r])
        for got, want in zip(batch, alone):
            assert np.array_equal(got[k], want[0])


@pytest.mark.parametrize("text", [HEXAGON_TEXT, pytest.param(_UNEQUAL, id="unequal-terms")])
@pytest.mark.parametrize("entries", [laurent.TABLE_ENTRIES, 1])
def test_bound_evaluator_keeps_bits(text, entries, monkeypatch):
    # all of the bound rows, then some of them, as the corrector passes them;
    # with entries = 1 every row is its own slice and nothing is kept bound
    homotopy, x, t, *_ = _homotopy_batch(text, 40, 19)
    rows = np.random.default_rng(20).choice(40, size=11, replace=False)
    monkeypatch.setattr(laurent, "TABLE_ENTRIES", entries)
    bound = homotopy.bind(rows, t[rows])
    for k in (slice(None), np.array([0, 3, 4, 9])):
        got = bound(x[rows][k], k)
        want = homotopy.evaluate(x[rows][k], t[rows][k], rows[k])
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_homotopy_memory_is_bounded():
    # the dense f of degree 32 of test_power_table_memory_is_bounded: H's
    # table on the 2,048 rows of two runs has 1,126 monomials, about 4.6
    # million entries; in one piece, it and the gathered weights would take
    # about 6.6 times 16 TABLE_ENTRIES bytes
    rng = np.random.default_rng(6)
    f = LaurentPoly(2, {(i, j): complex(*rng.uniform(-1, 1, 2))
                        for i in range(33) for j in range(33 - i)})
    system = build_system(IntegrandSpec([f], (0.5,), (0.5, 0.5)))
    degrees = np.array(critical._total_degrees(system), dtype=np.float64)
    runs = [critical._start_system(degrees, rng) for _ in range(2)]
    x = np.concatenate([starts for starts, _, _ in runs])
    run = np.repeat([0, 1], len(runs[0][0]))
    homotopy = critical._Homotopy([system], np.zeros(len(x), dtype=int),
                                  np.array([g for _, g, _ in runs])[run],
                                  degrees, np.array([r for *_, r in runs])[run])
    t = np.full(len(x), 0.37)
    tracemalloc.start()
    try:
        homotopy.evaluate(x, t, slice(None))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a slice's table, its moduli, one equation's gathered weights and the
    # next slice's table while the last is still held
    assert peak <= 3 * 16 * laurent.TABLE_ENTRIES


# -- lockstep tracker against the one-path-at-a-time tracker ---------------

# The tracker that `_track_paths` replaced, kept verbatim as the reference but
# for H and its derivatives, which it takes from `_Homotopy` on one row.
def _track_path(system, start, gamma, degrees, roots):
    """Track one path of H(x,t) = gamma (1-t) G(x) + t F(x) from t=0 to t=1."""
    homotopy = critical._Homotopy([system], np.zeros(1, dtype=int), np.array([gamma]),
                                  degrees, np.array([roots]))

    def h(x, t):
        # H, dH/dx and dH/dt from one evaluation of the homotopy
        return [v[0] for v in homotopy.evaluate(x[None], np.array([t]), [0])[:3]]

    def h_scale(x, t):
        # backward-error scale: sum of |term| over both homotopy parts
        return homotopy.evaluate(x[None], np.array([t]), [0])[3][0]

    x = np.array(start, dtype=np.complex128)
    t = 0.0
    _, hx, ht = h(x, t)
    dt = INITIAL_STEP
    successes = 0
    anchor, growth = None, 0.0
    while t < 1.0:
        dt = min(dt, 1.0 - t)
        # Euler predictor
        try:
            dx = np.linalg.solve(hx, -ht) * dt
        except np.linalg.LinAlgError:
            return "stalled", x, t
        xp = x + dx
        tp = t + dt
        # Newton corrector; on success hxp, htp are the derivatives at (xp, tp)
        ok = False
        for _ in range(MAX_NEWTON):
            r, hxp, htp = h(xp, tp)
            if not np.all(np.isfinite(r)):
                break
            if np.all(np.abs(r) < NEWTON_TOL * np.maximum(1.0, h_scale(xp, tp))):
                ok = True
                break
            try:
                xp = xp + np.linalg.solve(hxp, -r)
            except np.linalg.LinAlgError:
                break
        # guard against path jumping: the corrected point must stay within the
        # predictor's reach, otherwise shrink the step and retry
        if ok and np.linalg.norm(xp - (x + dx)) > 2.0 * np.linalg.norm(dx) + 1e-6 * (
                1.0 + np.linalg.norm(x)):
            ok = False
        if ok:
            x, t, hx, ht = xp, tp, hxp, htp
            successes += 1
            if successes >= 3:
                dt = min(dt * 2, MAX_STEP)
                successes = 0
            if np.max(np.abs(x)) > DIVERGENCE_RADIUS:
                return "diverged", x, t
            # the log tail: each time 1 - t has fallen by TAIL_RATIO since
            # the anchor, estimate alpha in |x| ~ (1 - t)^-alpha, re-anchor,
            # and stall on two steady estimates above TAIL_GROWTH
            if 1 - STALL_WINDOW < t < 1.0:
                gap = 1.0 - t
                with np.errstate(divide="ignore", invalid="ignore"):
                    logx = np.log(np.abs(x))
                    if anchor is not None and gap * TAIL_RATIO <= anchor[0]:
                        rate = np.max(logx - anchor[1]) / np.log(anchor[0] / gap)
                        if (rate > TAIL_GROWTH and growth > TAIL_GROWTH
                                and abs(rate - growth) <= TAIL_AGREEMENT * growth):
                            return "stalled", x, t
                        growth = rate
                        anchor = None
                if anchor is None:
                    anchor = gap, logx
        else:
            successes = 0
            dt /= 2
            if dt < MIN_STEP:
                return "stalled", x, t
    return "ok", x, t


def _start(system, rng):
    degrees = np.array([max(1, eq.total_degree()) for eq in system.equations],
                       dtype=np.float64)
    starts, gamma, roots = critical._start_system(degrees, rng)
    return starts, gamma, degrees, roots


def _track(system, starts, gamma, degrees, roots):
    """`_track_paths` of one draw's paths; gamma is one value or one per path,
    and roots (n,) or one row per path."""
    homotopy = critical._Homotopy([system], np.zeros(len(starts), dtype=int),
                                  np.broadcast_to(gamma, len(starts)), degrees,
                                  np.broadcast_to(roots, np.shape(starts)))
    return critical._track_paths(homotopy, starts, lambda rows, x: False)


def _assert_same_path(got, want):
    (status, x, t), (want_status, want_x, want_t) = got, want
    assert status == want_status
    assert t == want_t
    assert np.max(np.abs(x - want_x)) <= 1e-12


@pytest.mark.parametrize("texts", [[HEXAGON_TEXT], [LINES_TEXT],
                                   ["x - 1", "x - 2"], [_THREE_TEXT]])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lockstep_matches_single_path(texts, seed):
    rng = np.random.default_rng(seed)
    system = _random_system([parse_poly(t) for t in texts], rng)
    starts, gamma, degrees, roots = _start(system, rng)
    status, xs, ts, unbounded = _track(system, starts, gamma, degrees, roots)
    assert len(status) == len(xs) == len(ts) == len(starts)
    assert not unbounded.any()
    for k, start in enumerate(starts):
        _assert_same_path((status[k], xs[k], ts[k]),
                          _track_path(system, start, gamma, degrees, roots))


def test_singular_predictor_stalls_only_its_path(hexagon_poly):
    rng = np.random.default_rng(7)
    system = _random_system([hexagon_poly], rng)
    starts, gamma, degrees, roots = _start(system, rng)
    # at x_1 = 0 the Jacobian's column theta_1 F / x_1 is 0 / 0, so dH/dx is
    # not finite even at t = 0, and every step from there fails
    starts = np.concatenate([starts[:4], [[0.0, starts[0, 1]]], starts[4:8]])
    status, xs, ts, _ = _track(system, starts, gamma, degrees, roots)
    assert (status[4], ts[4]) == ("stalled", 0.0)
    assert np.array_equal(xs[4], starts[4])
    for k in (0, 1, 2, 3, 5, 6, 7, 8):
        alone = _track(system, starts[k:k + 1], gamma, degrees, roots)
        _assert_same_path((status[k], xs[k], ts[k]), [a[0] for a in alone[:3]])


def _equations(texts):
    """The system of the equations `texts` in x and y, coefficients as written."""
    polys = [parse_poly(t, 2) for t in texts]
    return PolySystem(tuple(polys), IntegrandSpec(polys, (1,) * len(polys), (1, 1)))


def _counted_track(monkeypatch, system, rng):
    """`_track` of a system's paths from `_start`, and its evaluations of H."""
    evaluations = 0
    newton = critical._newton

    def counted(evaluate, x, tols):
        def at(xk, k):
            nonlocal evaluations
            evaluations += 1
            return evaluate(xk, k)
        return newton(at, x, tols)

    monkeypatch.setattr(critical, "_newton", counted)
    status, xs, _, _ = _track(system, *_start(system, rng))
    return status, xs, evaluations


def test_log_tail_ends_path_to_infinity(monkeypatch):
    # {x y - 1, x - 2} has one root; along the other path y grows like
    # 1 / (1 - t).  Under most start systems that path lands on the root at
    # its last step; under this one it creeps towards t = 1
    system = _equations(["x*y - 1", "x - 2"])
    status, xs, evaluations = _counted_track(monkeypatch, system,
                                             np.random.default_rng(45))
    assert status.tolist() == ["stalled", "ok"]
    assert np.max(np.abs(xs[0])) < DIVERGENCE_RADIUS
    assert np.allclose(xs[1], [2, 0.5])
    # without the log tail the path runs out to DIVERGENCE_RADIUS
    monkeypatch.setattr(critical, "TAIL_GROWTH", np.inf)
    parent = _counted_track(monkeypatch, system, np.random.default_rng(45))
    assert parent[0].tolist() == ["diverged", "ok"]
    assert np.max(np.abs(parent[1][0])) > DIVERGENCE_RADIUS
    assert evaluations < parent[2]


@pytest.mark.parametrize("texts", [["x*y - 1", "0.0001*x - 1"],
                                   ["0.0001*x - 1", "x*y - 1"]])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_log_tail_keeps_large_finite_root(texts, seed):
    # the root (1e4, 1e-4) is finite.  With x - r_1 started against
    # 0.0001 x - 1, its path grows like 1 / (0.0001 + c (1 - t)) and looks
    # like one to infinity until 1 - t is near 1e-4, so the log tail stalls
    # it and the polish reaches the root
    system = _equations(texts)
    status, xs, ts, _ = _track(system, *_start(system, np.random.default_rng(seed)))
    assert np.allclose(xs[status == "ok"], [1e4, 1e-4])
    assert (ts[status == "stalled"] > 1 - STALL_WINDOW).all()
    degrees = np.array([max(1, eq.total_degree()) for eq in system.equations],
                       dtype=np.float64)
    [(ends, failed, unbounded)] = critical._run_tracking(
        [system], [degrees], [np.random.default_rng(seed)], 1,
        [critical._Tally(system.spec, math.inf)])
    assert (failed, unbounded) == (0, False)
    assert len(ends) and np.allclose(ends, [1e4, 1e-4])


@pytest.mark.parametrize("text", [HEXAGON_TEXT, _THREE_TEXT])
def test_start_systems_in_one_batch_track_as_alone(text):
    rng = np.random.default_rng(3)
    system = _random_system([parse_poly(text)], rng)
    runs = [_start(system, rng) for _ in range(2)]
    run = np.repeat([0, 1], [len(starts) for starts, *_ in runs])
    starts = np.concatenate([starts for starts, *_ in runs])
    gamma = np.array([gamma for _, gamma, _, _ in runs])[run]
    roots = np.array([roots for *_, roots in runs])[run]
    degrees = runs[0][2]
    together = _track(system, starts, gamma, degrees, roots)
    assert not np.array_equal(*(together[1][run == i] for i in (0, 1)))
    for i, args in enumerate(runs):
        alone = _track(system, *args)
        for got, want in zip(together, alone):
            assert np.array_equal(got[run == i], want)


class _SolveSpy:
    """Records, per `_track_paths` call, the systems of each `_solve_stack`
    call it makes and the evaluations its corrector had made by then, None
    outside the corrector.  `full` counts the correctors that made MAX_NEWTON
    evaluations, `unfinished` the rows that correctors left unconverged."""

    def __init__(self, monkeypatch):
        self.tracks, self.tracking, self.evaluations = [], False, None
        self.full = self.unfinished = 0
        track, newton, solve_stack = (critical._track_paths, critical._newton,
                                      critical._solve_stack)

        def spy_track(*args):
            self.tracks.append([])
            self.tracking = True
            try:
                return track(*args)
            finally:
                self.tracking = False

        def spy_newton(evaluate, x, tols):
            def counted(xk, k):
                self.evaluations += 1
                return evaluate(xk, k)

            self.evaluations = 0
            done = newton(counted, x, tols)
            if self.tracking:
                self.full += self.evaluations == MAX_NEWTON
                self.unfinished += int((~done).sum())
            self.evaluations = None
            return done

        def spy_solve(a, b):
            if self.tracking:
                self.tracks[-1].append((self.evaluations, a.copy(), b.copy()))
            return solve_stack(a, b)

        monkeypatch.setattr(critical, "_track_paths", spy_track)
        monkeypatch.setattr(critical, "_newton", spy_newton)
        monkeypatch.setattr(critical, "_solve_stack", spy_solve)


@pytest.mark.parametrize("text", [HEXAGON_TEXT, LINES_TEXT])
def test_tracker_solves_only_systems_it_uses(text, monkeypatch):
    spy = _SolveSpy(monkeypatch)
    euler_characteristic([parse_poly(text)], TrackerSettings(seed=0))
    assert spy.full and spy.unfinished    # the cases below do occur
    for solves in spy.tracks:
        # neither the corrector nor the predictor solves an empty stack
        assert all(len(b) for _, _, b in solves)
        # no row is solved after its MAX_NEWTON-th corrector evaluation
        assert sum(len(b) for evals, _, b in solves if evals == MAX_NEWTON) == 0
        # a rejected step retries with its predictor direction, so no
        # predictor system is solved twice
        predicted = [(ak.tobytes(), bk.tobytes())
                     for evals, a, b in solves if evals is None
                     for ak, bk in zip(a, b)]
        assert len(predicted) - len(set(predicted)) == 0


class _StartSpy:
    """Records the rng and the start roots of every start system drawn."""

    def __init__(self, monkeypatch):
        self.draws = []
        self.draw = draw = critical._start_system

        def spy(degrees, rng):
            starts, gamma, roots = draw(degrees, rng)
            self.draws.append((rng, starts))
            return starts, gamma, roots

        monkeypatch.setattr(critical, "_start_system", spy)


def _linear_root_solve(seed):
    # x - 1 with s = nu = 1 clears to 2x - 1: one path per run, ending "ok"
    spec = IntegrandSpec([parse_poly("x - 1")], (1,), (1,))
    return solve(build_system(spec), TrackerSettings(seed=seed))


def test_third_run_only_after_second_fails(monkeypatch):
    spy = _StartSpy(monkeypatch)
    polish = critical._polish
    calls = []

    def second_run_fails(homotopy, x, rows):
        kept = polish(homotopy, x, rows)
        if not calls:
            kept[-1] = False    # the last row belongs to the second run
        calls.append(len(x))
        return kept

    monkeypatch.setattr(critical, "_polish", second_run_fails)
    sol = _linear_root_solve(seed=4)
    assert calls == [2, 1]
    assert len(spy.draws) == 3
    rng = np.random.default_rng(4)
    for used, starts in spy.draws:
        assert used is spy.draws[0][0]
        assert np.array_equal(starts, spy.draw(np.ones(1), rng)[0])
    # the second run failed one path, the third none
    assert (sol.raw_paths, sol.converged, sol.failed_paths) == (3, 2, 0)
    assert sol.distinct == 1


def test_two_runs_when_second_succeeds(monkeypatch):
    spy = _StartSpy(monkeypatch)
    sol = _linear_root_solve(seed=4)
    assert len(spy.draws) == 2
    assert (sol.raw_paths, sol.converged, sol.failed_paths) == (2, 2, 0)


def test_solve_refuses_a_non_square_system():
    system = _equations(["x*y - 1"])
    with pytest.raises(ValueError, match="square"):
        solve(system)


def test_path_count_is_capped():
    # x^D + 1 clears to one equation of degree D: D start paths
    f = LaurentPoly(1, {(critical.MAX_PATHS + 1,): 1, (0,): 1})
    system = build_system(IntegrandSpec([f], (0.5,), (0.5,)))
    assert system.equations[0].total_degree() == critical.MAX_PATHS + 1
    with pytest.raises(critical.TooManyPathsError, match="MAX_PATHS"):
        solve(system)


# -- all draws in one batch -------------------------------------------------

class _TrackSpy:
    """Records the row count and the path statuses of every `_track_paths` batch."""

    def __init__(self, monkeypatch):
        self.rows, self.statuses = [], []
        track = critical._track_paths

        def spy(homotopy, starts, stop):
            self.rows.append(len(starts))
            tracked = track(homotopy, starts, stop)
            self.statuses.append(tracked[0])
            return tracked

        monkeypatch.setattr(critical, "_track_paths", spy)


def _draws(texts, count, seed):
    rng = np.random.default_rng(seed)
    systems = [_random_system([parse_poly(t)], rng) for t in texts for _ in range(count)]
    return systems, [seed + 1000 + d for d in range(len(systems))]


def _alone(systems, seeds):
    return [repr(solve(system, TrackerSettings(seed=seed)))
            for system, seed in zip(systems, seeds)]


def _paths(system):
    return math.prod(eq.total_degree() for eq in system.equations)


@pytest.mark.parametrize("text", [HEXAGON_TEXT, LINES_TEXT, _THREE_TEXT])
def test_draws_together_solve_as_alone(text, monkeypatch):
    systems, seeds = _draws([text], 3, seed=8)
    alone = _alone(systems, seeds)
    spy = _TrackSpy(monkeypatch)
    together = critical.solve_draws(systems, seeds)
    # the repr holds the solutions, the residuals and the five counts
    assert [repr(sol) for sol in together] == alone
    # the mandatory runs of all draws are one batch
    assert spy.rows[0] == 2 * 3 * _paths(systems[0])


def test_third_run_only_for_the_draw_whose_second_fails(monkeypatch):
    # two draws of x - 1 clear to a x - b: one path per run, all ending "ok"
    systems = [build_system(IntegrandSpec([parse_poly("x - 1")], (1,), (nu,)))
               for nu in (1, 2)]
    spy = _StartSpy(monkeypatch)
    polish = critical._polish
    calls = []

    def second_run_of_draw_1_fails(homotopy, x, rows):
        kept = polish(homotopy, x, rows)
        if not calls:
            kept[3] = False     # rows: draw 0 runs 0, 1; draw 1 runs 0, 1
        calls.append(len(x))
        return kept

    monkeypatch.setattr(critical, "_polish", second_run_of_draw_1_fails)
    first, second = critical.solve_draws(systems, (4, 9))
    assert calls == [4, 1]
    rngs = [used for used, _ in spy.draws]
    assert rngs[0] is rngs[1] and rngs[2] is rngs[3] is rngs[4]
    assert rngs[0] is not rngs[2]
    for seed, drawn in ((4, spy.draws[:2]), (9, spy.draws[2:])):
        rng = np.random.default_rng(seed)
        for _, starts in drawn:
            assert np.array_equal(starts, spy.draw(np.ones(1), rng)[0])
    assert (first.raw_paths, first.converged, first.failed_paths) == (2, 2, 0)
    assert (second.raw_paths, second.converged, second.failed_paths) == (3, 2, 0)
    assert first.distinct == second.distinct == 1


def test_batches_hold_at_most_two_max_paths_rows(monkeypatch):
    systems, seeds = _draws([HEXAGON_TEXT], 3, seed=10)
    alone = _alone(systems, seeds)
    paths = _paths(systems[0])
    # two draws of two runs fill a batch, so the third draw starts the next
    monkeypatch.setattr(critical, "MAX_PATHS", 2 * paths)
    spy = _TrackSpy(monkeypatch)
    together = critical.solve_draws(systems, seeds)
    assert spy.rows[:2] == [4 * paths, 2 * paths]
    assert max(spy.rows) <= 2 * critical.MAX_PATHS
    assert [repr(sol) for sol in together] == alone


def test_draws_of_other_tables_start_a_batch(monkeypatch):
    systems, seeds = _draws([HEXAGON_TEXT, "x*y + x + 2*y - 1", HEXAGON_TEXT], 1,
                            seed=12)
    alone = _alone(systems, seeds)
    spy = _TrackSpy(monkeypatch)
    together = critical.solve_draws(systems, seeds)
    assert spy.rows[:3] == [2 * _paths(system) for system in systems]
    assert [repr(sol) for sol in together] == alone


@pytest.mark.parametrize("text", [HEXAGON_TEXT, _THREE_TEXT])
@pytest.mark.parametrize("entries", [laurent.TABLE_ENTRIES, 1])
def test_stacked_evaluator_matches_each_draw(text, entries, monkeypatch):
    systems, _ = _draws([text], 3, seed=13)
    n = systems[0].nvars
    rng = np.random.default_rng(14)
    x = rng.normal(size=(11, n)) + 1j * rng.normal(size=(11, n))
    draw = rng.integers(0, 3, size=40)
    rows = rng.choice(40, size=11, replace=False)
    monkeypatch.setattr(laurent, "TABLE_ENTRIES", entries)
    homotopy = critical._Homotopy(systems, draw, np.ones(40), np.ones(n),
                                  np.ones((40, n)))
    f, jac, _, scale = homotopy.evaluate(x, np.ones(11), rows)
    for k, r in enumerate(rows):
        fk, jk, sk = _target(systems[draw[r]], 1)(x[k])
        assert np.array_equal(f[k], fk)
        assert np.array_equal(jac[k], jk)
        assert np.array_equal(scale[k], sk)


@pytest.mark.parametrize("entries", [laurent.TABLE_ENTRIES, 1])
def test_runs_apart_keep_the_bits_of_runs_together(entries, monkeypatch):
    # the rows of one (draw, gamma, roots), split by another's: each block is
    # a run with its own copy of the weights, and every row keeps the bits
    # it gets when the blocks are joined
    systems, _ = _draws([HEXAGON_TEXT], 2, seed=21)
    rng = np.random.default_rng(22)
    degrees = np.array(critical._total_degrees(systems[0]), dtype=np.float64)
    gammas, roots = zip(*(critical._start_system(degrees, rng)[1:] for _ in range(2)))
    gammas, roots = np.array(gammas), np.array(roots)
    x = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
    t = rng.choice([0.0, 0.37, 1.0], size=9)
    apart = np.array([0, 0, 0, 1, 1, 0, 0, 1, 0])
    joined = np.argsort(apart, kind="stable")
    monkeypatch.setattr(laurent, "TABLE_ENTRIES", entries)
    got, want = (critical._Homotopy(systems, apart[k], gammas[apart[k]], degrees,
                                    roots[apart[k]])
                 for k in (np.arange(9), joined))
    assert (got.run.max(), want.run.max()) == (4, 1)
    for a, b in zip(got.evaluate(x, t, np.arange(9)),
                    want.evaluate(x[joined], t[joined], np.arange(9))):
        assert np.array_equal(a[joined], b)


# -- reported solutions satisfy the rational equations ---------------------

def test_add_solutions_takes_rows_in_rounded_order():
    # x^2 - 1 and y^2 - 1 with s = (1, 1), nu = (1, 2) have the critical
    # points (+-a, +-b), a^2 = 1/3 and b^2 = 1/2
    polys = [parse_poly("x^2 - 1", 2), parse_poly("y^2 - 1", 2)]
    spec = IntegrandSpec(polys, (1, 1), (1, 2))
    a, b = 3 ** -0.5, 2 ** -0.5
    rows = [(a, b), (-a, b), (a + 1e-10, -b), (-a, -b), (a, b + 1e-10)]
    distinct = []
    verified = critical._add_solutions(spec, np.array(rows, dtype=complex), distinct)
    # (a + 1e-10, -b) ties with (a, b) to 8 decimals in x, so -b puts it
    # first; (a, b + 1e-10) is within DEDUP_DISTANCE of (a, b), which it
    # follows, and does not join
    assert verified == 5
    assert [point for point, _ in distinct] == [(-a, -b), (-a, b), (a + 1e-10, -b),
                                                (a, b)]


def test_solutions_satisfy_omega(hexagon_poly):
    spec = IntegrandSpec([hexagon_poly], (0.5 + 0.1j,), (0.3 - 0.2j, 0.7 + 0.4j))
    sol = solve(build_system(spec), TrackerSettings(seed=5))
    assert sol.distinct == 6
    assert (sol.raw_paths, sol.converged, sol.filtered,
            sol.failed_paths) == (18, 18, 2, 0)
    for x in sol.solutions:
        w = omega_components(spec, np.array(x))
        assert np.max(np.abs(w)) <= 1e-6 * max(1.0, np.max(np.abs(np.array(x))))
    assert sol.certified


# -- Euler characteristic --------------------------------------------------

def test_chi_hexagon(hexagon_poly):
    chi, count, certified = euler_characteristic(
        [hexagon_poly], TrackerSettings(seed=11))
    assert (chi, count) == (6, 6)
    assert certified


def test_chi_lines(lines_poly):
    chi, count, certified = euler_characteristic(
        [lines_poly], TrackerSettings(seed=11))
    assert (chi, count) == (2, 2)


def test_chi_two_points(two_point_spec):
    chi, count, certified = euler_characteristic(
        two_point_spec, TrackerSettings(seed=7))
    assert (chi, count) == (-2, 2)


def test_chi_single_linear():
    chi, count, _ = euler_characteristic(
        [parse_poly("x - 1")], TrackerSettings(seed=2))
    assert (chi, count) == (-1, 1)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_chi_hexagon_stable_across_draws(hexagon_poly, seed):
    chi, _, _ = euler_characteristic([hexagon_poly], TrackerSettings(seed=seed))
    assert chi == 6


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_chi_lines_stable_across_draws(lines_poly, seed):
    chi, _, _ = euler_characteristic([lines_poly], TrackerSettings(seed=seed))
    assert chi == 2


def test_monomial_factor_changes_neither_count_nor_work(monkeypatch):
    # x^3 only moves nu to nu + 3 s, so the cleared equation keeps degree 2
    spy = _TrackSpy(monkeypatch)
    got = [euler_characteristic([parse_poly(text)], TrackerSettings(seed=6))[1]
           for text in ("x^5 - 3*x^4 + 2*x^3", "x^2 - 3*x + 2")]
    assert got == [2, 2]
    # one batch per chi: 2 draws x 2 runs x 2 paths
    assert spy.rows == [8, 8]


# -- the first draw at the volume bound decides ----------------------------

class _BoundSpy:
    """Records every `_Tally` made, each draw's and then the one `_solution_set`
    makes per undecided draw, and the SolutionSet of every draw `solve_draws`
    solves; None for each draw that a decided solve did not wait for."""

    def __init__(self, monkeypatch):
        self.tallies, self.sols = [], []
        spy, solve_draws = self, critical.solve_draws

        class Tally(critical._Tally):
            def __init__(self, spec, bound):
                super().__init__(spec, bound)
                spy.tallies.append(self)

        def recorded(systems, seeds, bound=math.inf):
            sols = solve_draws(systems, seeds, bound)
            self.sols += sols
            return sols

        monkeypatch.setattr(critical, "_Tally", Tally)
        monkeypatch.setattr(critical, "solve_draws", recorded)

    def stopped(self):
        """(bound, distinct) of each draw whose tally reached its bound."""
        return [(tally.bound, sol.distinct)
                for tally, sol in zip(self.tallies, self.sols) if tally.full]


# vol 1 x index 5: without the bound, third runs leave failed paths
_INDEX_FIVE = [LaurentPoly(3, {(1, 0, 1): -2, (0, 1, 2): -9, (2, 1, 3): -9,
                               (2, 2, 2): 7})]


@pytest.mark.parametrize("seed", range(4))
def test_draw_at_its_bound_starts_no_third_run(seed, monkeypatch):
    starts = _StartSpy(monkeypatch)
    spy = _BoundSpy(monkeypatch)
    chi = euler_characteristic(_INDEX_FIVE, TrackerSettings(seed=seed))
    assert chi == (-5, 5, True)
    assert len(starts.draws) == 4      # 2 draws x 2 runs
    # the first draw to hold 5 points decides; the other is not waited for
    assert spy.stopped() == [(5, 5)]


def test_without_the_bound_a_third_run_starts(monkeypatch):
    solve_draws, sols = critical.solve_draws, []

    def unbounded(systems, seeds, bound):
        sols[:] = solve_draws(systems, seeds)
        return sols

    starts = _StartSpy(monkeypatch)
    monkeypatch.setattr(critical, "solve_draws", unbounded)
    assert euler_characteristic(_INDEX_FIVE, TrackerSettings(seed=0))[1] == 5
    assert len(starts.draws) > 4
    assert not all(sol.certified for sol in sols)


def test_count_at_the_bound_is_certified(monkeypatch):
    # vol 4 x index 1: both draws reach 4 only through the endpoint polish,
    # and a draw's last run leaves failed paths
    f = [LaurentPoly(3, {(3, 0, 1): 6, (3, 0, 3): -5, (3, 1, 1): -1}),
         LaurentPoly(3, {(1, 3, 2): 8, (2, 0, 3): -9, (1, 3, 0): 6})]
    spy = _BoundSpy(monkeypatch)
    assert euler_characteristic(f, TrackerSettings(seed=3)) == (-4, 4, True)
    assert spy.stopped() == []
    assert not all(sol.certified for sol in spy.sols)


@pytest.mark.parametrize("seed", range(4))
def test_lines_drops_no_path(lines_poly, seed, monkeypatch):
    # count 2 < bound 6: every path is tracked as without the bound
    tracks = _TrackSpy(monkeypatch)
    spy = _BoundSpy(monkeypatch)
    chi = euler_characteristic([lines_poly], TrackerSettings(seed=seed))
    assert chi[1:] == (2, True)
    # each draw's tally, then the two its polished endpoints are verified into
    assert [tally.bound for tally in spy.tallies] == [6, 6, 0, 0]
    assert spy.stopped() == []
    assert not any("dropped" in statuses for statuses in tracks.statuses)


@pytest.mark.parametrize("seed", range(4))
def test_unbounded_solve_verifies_each_endpoint_once(hexagon_poly, seed, monkeypatch):
    # under no bound the draw's tally takes the endpoints that end "ok" and
    # verifies none; `_solution_set` verifies the polished ones in one call
    add, verified = critical._add_solutions, []

    def counted(spec, x, distinct):
        verified.append(len(x))
        return add(spec, x, distinct)

    monkeypatch.setattr(critical, "_add_solutions", counted)
    spy = _BoundSpy(monkeypatch)
    spec = IntegrandSpec([hexagon_poly], (0.5 + 0.1j,), (0.3 - 0.2j, 0.7 + 0.4j))
    sol = solve(build_system(spec), TrackerSettings(seed=seed))
    draw, fresh = spy.tallies
    assert draw.bound == math.inf and draw.taken > 0
    assert (draw.verified, draw.points) == (0, [])
    assert verified == [fresh.taken] == [sol.converged]
    assert sol.distinct == 6


@pytest.mark.parametrize("seed", range(4))
def test_stopped_draws_in_two_batches_print_their_bound(hexagon_poly, seed,
                                                        monkeypatch):
    # 9 paths a run: each batch of at most 18 rows holds one draw's two runs
    monkeypatch.setattr(critical, "MAX_PATHS", 9)
    tracks = _TrackSpy(monkeypatch)
    spy = _BoundSpy(monkeypatch)
    chi = euler_characteristic([hexagon_poly], TrackerSettings(seed=seed))
    assert chi == (6, 6, True)
    # the first batch decides, so the second never starts
    assert tracks.rows == [18]
    assert spy.stopped() == [(6, 6)]
    assert all("dropped" in statuses for statuses in tracks.statuses)


# per seed: the deciding draw and its raw_paths, converged, filtered,
# distinct and failed_paths
@pytest.mark.parametrize("seed, decided, counts", [(0, 0, (18, 13, 2, 6, 0)),
                                                   (1, 1, (18, 12, 2, 6, 0)),
                                                   (2, 0, (18, 13, 2, 6, 0)),
                                                   (3, 0, (18, 12, 2, 6, 0))])
def test_decided_draw_accounts_for_its_paths(hexagon_poly, seed, decided, counts,
                                             monkeypatch):
    tracks = _TrackSpy(monkeypatch)
    spy = _BoundSpy(monkeypatch)
    chi = euler_characteristic([hexagon_poly], TrackerSettings(seed=seed))
    assert chi == (6, 6, True)
    # one batch of 2 draws x 2 runs x 9 paths; only the deciding draw is solved
    [statuses] = tracks.statuses
    assert [sol is not None for sol in spy.sols] == [d == decided for d in range(2)]
    sol, tally = spy.sols[decided], spy.tallies[decided]
    assert (sol.raw_paths, sol.converged, sol.filtered, sol.distinct,
            sol.failed_paths) == counts
    # the paths started, the endpoints the tally took, those it could not
    # verify and the points it holds
    assert sol.raw_paths == len(statuses) // 2
    mine = statuses[18 * decided:18 * (decided + 1)]
    assert sol.converged == tally.taken == (mine == "ok").sum()
    assert sol.filtered == tally.taken - tally.verified
    assert sol.distinct == len(tally.points)
    assert sol.solutions == tuple(point for point, _ in tally.points)


@pytest.mark.parametrize("max_paths", [critical.MAX_PATHS, 9])
def test_decided_batch_is_neither_polished_nor_verified_again(hexagon_poly, max_paths,
                                                              monkeypatch):
    calls = []
    for name in ("_polish", "_solution_set"):
        monkeypatch.setattr(critical, name, lambda *args, name=name: calls.append(name))
    monkeypatch.setattr(critical, "MAX_PATHS", max_paths)
    tracks = _TrackSpy(monkeypatch)
    spy = _BoundSpy(monkeypatch)
    assert euler_characteristic([hexagon_poly], TrackerSettings(seed=0)) == (6, 6, True)
    assert [tally.full for tally in spy.tallies] == [True, False]
    # in one batch, or the first of two, and the second is never tracked
    assert tracks.rows == [36 if max_paths > 9 else 18]
    assert calls == []


# -- cross-module oracle: count == volume for generic coefficients ----------

@pytest.mark.parametrize("inst", [0, 1, 2])
def test_count_matches_volume_on_random_hexagon_coeffs(hexagon_poly, inst):
    rng = np.random.default_rng(100 + inst)
    terms = {e: complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
             for e in hexagon_poly.support()}
    f = LaurentPoly(2, terms)
    spec = IntegrandSpec([f], (0.5,), (0.5, 0.5))
    vol = polytope.normalized_volume(polytope.cayley_support(spec))
    chi, count, _ = euler_characteristic([f], TrackerSettings(seed=inst))
    assert count == vol.normalized_volume == 6


# -- order independence ----------------------------------------------------

def test_solutions_deterministic(two_point_spec):
    a = solve(build_system(two_point_spec), TrackerSettings(seed=9))
    b = solve(build_system(two_point_spec), TrackerSettings(seed=9))
    assert a.solutions == b.solutions
    assert a.residuals == b.residuals


@given(st.integers(0, 10 ** 6))
@hsettings(max_examples=8, deadline=None)
def test_linear_root_any_seed(seed):
    spec = IntegrandSpec([parse_poly("x - 1")], (1,), (1,))
    sol = solve(build_system(spec), TrackerSettings(seed=seed))
    assert sol.distinct == 1
    assert abs(sol.solutions[0][0] - 0.5) < 1e-8
