"""Counting complex critical points of log(f^s x^nu) on the torus complement.

The rational critical equations are cleared to polynomials and solved with a
total-degree homotopy (random start roots, gamma trick, Euler predictor and
Newton corrector).  Solutions landing on the cleared locus are filtered out by
checking the original rational equations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .laurent import IntegrandSpec, LaurentPoly, omega_components

# Fixed thresholds of the tracker, the endpoint polish and the solution filter.
# A scaled residual is |residual| / max(1, sum of |term|) at the point.
INITIAL_STEP = 0.05      # first step in t of every path
MAX_STEP = 0.1           # largest step in t
MIN_STEP = 1e-7          # a path whose step shrinks below this has stalled
STALL_WINDOW = 1e-2      # a stall after t = 1 - STALL_WINDOW is not a failure
DIVERGENCE_RADIUS = 1e6  # a path with a coordinate beyond this has diverged
NEWTON_TOL = 1e-10       # scaled residual accepted by the corrector and at t = 1
MAX_NEWTON = 6           # corrector iterations per step
POLISH_TOL = 1e-13       # scaled residual that ends the endpoint polish early
POLISH_ITERS = 30        # Newton iterations of the endpoint polish
RESIDUAL_TOL = 1e-8      # scaled residual of the rational equations at a solution
BOUNDARY_TOL = 1e-8      # |x_i| or scaled |f_j| below this puts x off the torus
DEDUP_DISTANCE = 1e-6    # max-norm distance below which two solutions are one


@dataclass(frozen=True)
class PolySystem:
    """Cleared polynomial form of the critical equations."""

    equations: tuple          # n LaurentPoly without negative exponents
    cleared_factors: tuple    # textual record of what was multiplied in
    spec: IntegrandSpec

    @property
    def nvars(self) -> int:
        return self.spec.nvars

    def evaluate(self, x):
        """The values F(x) and the Jacobian J(x) at a point x of shape (n,)."""
        rows = np.array([eq.value_and_gradient(x) for eq in self.equations])
        return rows[:, 0], rows[:, 1:]

    def magnitude(self, x):
        """Per-equation sum of |c_k| |x|^{e_k} at x: the natural residual scale."""
        return np.array([eq.magnitude(x) for eq in self.equations])


@dataclass(frozen=True)
class TrackerSettings:
    """The random seed of a solve; its thresholds are the module constants."""

    seed: int = 0


@dataclass(frozen=True)
class SolutionSet:
    solutions: tuple          # tuples of complex coordinates
    residuals: tuple          # max |omega_i| at each reported solution
    raw_paths: int
    converged: int
    filtered: int
    distinct: int
    failed_paths: int

    @property
    def certified(self) -> bool:
        return self.failed_paths == 0


def build_system(spec: IntegrandSpec) -> PolySystem:
    """Clear denominators of the critical equations.

    Equation i is x_i * sum_j s_j (d_i f_j) prod_{k!=j} f_k + nu_i prod_k f_k,
    shifted by a monomial so that no negative exponents remain.
    """
    n = spec.nvars
    eqs = []
    factors = []
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
        mins = acc.min_exponents()
        clear = tuple(-m if m < 0 else 0 for m in mins)
        if any(clear):
            acc = acc.shift(clear)
        factors.append(f"x{i + 1} * f1..f{len(spec.f)}"
                       + (f" * x^{clear}" if any(clear) else ""))
        eqs.append(acc)
    return PolySystem(tuple(eqs), tuple(factors), spec)


def _track_path(system, start, gamma, degrees, roots):
    """Track one path of H(x,t) = gamma (1-t) G(x) + t F(x) from t=0 to t=1."""

    def h(x, t):
        # H, dH/dx and dH/dt from one evaluation of the target system
        f, jac = system.evaluate(x)
        g = x ** degrees - roots
        hx = gamma * (1 - t) * np.diag(degrees * x ** (degrees - 1)) + t * jac
        return gamma * (1 - t) * g + t * f, hx, f - gamma * g

    def h_scale(x, t):
        # backward-error scale: sum of |term| over both homotopy parts
        gs = np.abs(x) ** degrees + np.abs(roots)
        return (1 - t) * gs + t * system.magnitude(x)

    x = np.array(start, dtype=np.complex128)
    t = 0.0
    _, hx, ht = h(x, t)
    dt = INITIAL_STEP
    successes = 0
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
        else:
            successes = 0
            dt /= 2
            if dt < MIN_STEP:
                return "stalled", x, t
    return "ok", x, t


def _polish(system, x):
    """Newton's method on the target system from x: the polished point or None.

    It stops as soon as the scaled residual is below POLISH_TOL.  A point still
    above that after POLISH_ITERS steps is kept only if it passes NEWTON_TOL.
    """
    for _ in range(POLISH_ITERS):
        r, jac = system.evaluate(x)
        if not np.all(np.isfinite(r)):
            return None
        if np.all(np.abs(r) < POLISH_TOL * np.maximum(1.0, system.magnitude(x))):
            return x
        try:
            x = x + np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return None
    r, _ = system.evaluate(x)
    if np.all(np.isfinite(r)) and np.all(
            np.abs(r) < NEWTON_TOL * np.maximum(1.0, system.magnitude(x))):
        return x
    return None


def _run_tracking(system, degrees, rng):
    """One full total-degree tracking run with fresh random constants and gamma.

    Returns (endpoints, converged, failed, unresolved, paths).  `unresolved`
    counts near-t=1 stalls whose endpoint could not be polished (usually
    boundary/infinity divergences, but occasionally a badly conditioned path
    toward a genuine solution); `failed` counts the other paths that did not
    diverge and could not be polished; `paths` is the number of start paths.
    """
    n = system.nvars
    angles = rng.uniform(0, 2 * math.pi, size=n)
    radii = rng.uniform(0.5, 1.5, size=n)
    roots_const = radii * np.exp(1j * angles)
    gamma = np.exp(1j * rng.uniform(0, 2 * math.pi))

    per_var = []
    for i in range(n):
        d = int(degrees[i])
        base = roots_const[i] ** (1.0 / d)
        per_var.append([base * np.exp(2j * math.pi * k / d) for k in range(d)])
    start_points = [np.array(combo, dtype=np.complex128)
                    for combo in itertools.product(*per_var)]

    failed = 0
    unresolved = 0
    converged = 0
    endpoints = []
    for sp in start_points:
        status, x, t = _track_path(system, sp, gamma, degrees, roots_const)
        if status == "diverged":
            continue
        polished = _polish(system, x)
        if polished is not None:
            converged += 1
            endpoints.append(polished)
        elif status == "stalled" and t > 1 - STALL_WINDOW:
            # Paths heading to the toric boundary or to infinity stall with
            # shrinking steps just before t = 1.  Regular target solutions are
            # recovered by Newton polish from the stall point; a failed polish
            # that close to t = 1 means the path has no finite regular limit.
            # Only mid-domain stalls count as genuine tracking failures.
            unresolved += 1
        else:
            failed += 1
    return endpoints, converged, failed, unresolved, len(start_points)


def solve(system: PolySystem, settings: TrackerSettings | None = None) -> SolutionSet:
    """All distinct critical points in the torus complement, by total-degree homotopy.

    If a run leaves stalled paths that could not be resolved, the whole path
    collection is re-tracked with a fresh random gamma (up to three attempts)
    and the strictly verified endpoints are pooled; the verified solution set
    does not depend on gamma, so pooling cannot introduce spurious points.
    """
    settings = settings or TrackerSettings()
    spec = system.spec
    n = system.nvars
    if len(system.equations) != n:
        raise ValueError("system must be square")
    rng = np.random.default_rng(settings.seed)
    degrees = np.array([max(1, eq.total_degree()) for eq in system.equations],
                       dtype=np.float64)

    # Two independent runs are always pooled: a path jump or an unresolved
    # stall under one gamma is overwhelmingly unlikely to recur at the same
    # solution under an independent gamma.  A third run is added only when a
    # run reports genuine mid-domain tracking failures.
    endpoints = []
    raw = 0
    converged = 0
    failed = 0
    for attempt in range(3):
        ep, conv, fail, unresolved, paths = _run_tracking(system, degrees, rng)
        endpoints.extend(ep)
        raw += paths
        converged += conv
        failed = fail
        if attempt >= 1 and fail == 0:
            break

    # filter to the torus complement and check the original rational equations;
    # all thresholds are relative to the term magnitudes at x, so badly scaled
    # but genuine solutions are not rejected
    kept = []
    for x in endpoints:
        if np.any(np.abs(x) < BOUNDARY_TOL):
            continue
        grads = [fj.value_and_gradient(x) for fj in spec.f]
        if any(abs(g[0]) < BOUNDARY_TOL * max(1.0, fj.magnitude(x))
               for fj, g in zip(spec.f, grads)):
            continue
        omega = omega_components(spec, x)
        scale = np.array([
            sum(abs(sj) * abs(g[i + 1]) / abs(g[0]) for sj, g in zip(spec.s, grads))
            + abs(spec.nu[i]) / abs(x[i])
            for i in range(n)])
        resid = float(np.max(np.abs(omega) / np.maximum(1.0, scale)))
        if resid <= RESIDUAL_TOL:
            kept.append((x, resid))
    filtered = converged - len(kept)

    # order-independent dedup: sort, then cluster in the max norm
    kept.sort(key=lambda p: tuple((round(c.real, 8), round(c.imag, 8)) for c in p[0]))
    distinct = []
    for x, resid in kept:
        if all(np.max(np.abs(x - np.array(y))) > DEDUP_DISTANCE for y, _ in distinct):
            distinct.append((tuple(x), resid))

    return SolutionSet(
        solutions=tuple(s for s, _ in distinct),
        residuals=tuple(r for _, r in distinct),
        raw_paths=raw,
        converged=converged,
        filtered=filtered,
        distinct=len(distinct),
        failed_paths=failed,
    )


def _random_parameters(rng, count):
    return tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(count))


def euler_characteristic(spec_or_polys, settings: TrackerSettings | None = None,
                         draws: int = 2):
    """Signed Euler characteristic via critical point counts.

    Accepts either a full IntegrandSpec (its s, nu are replaced by random
    draws) or a bare list of LaurentPoly.  The count must agree across
    `draws` independent random parameter draws.
    """
    settings = settings or TrackerSettings()
    if isinstance(spec_or_polys, IntegrandSpec):
        polys = spec_or_polys.f
    else:
        polys = tuple(spec_or_polys)
    n = polys[0].nvars
    ell = len(polys)
    rng = np.random.default_rng(settings.seed)
    counts = []
    certified = True
    for d in range(draws):
        s = _random_parameters(rng, ell)
        nu = _random_parameters(rng, n)
        spec = IntegrandSpec(polys, s, nu)
        sol = solve(build_system(spec), TrackerSettings(seed=settings.seed + 1000 + d))
        counts.append(sol.distinct)
        certified = certified and sol.certified
    if len(set(counts)) != 1:
        raise RuntimeError(f"critical point counts disagree across draws: {counts}; "
                           "non-generic parameters or tracking failure")
    count = counts[0]
    chi = (-1) ** n * count
    return chi, count, certified
