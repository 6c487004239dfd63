"""Counting complex critical points of log(f^s x^nu) on the torus complement.

The critical equations are cleared to eq_i = prod_k f_k * theta_i log(f^s x^nu)
/ x^{m_i}, x^{m_i} the monomial content and theta_k = x_k d_k the Euler
operators, which multiply x^e by e_k.  They are solved with a total-degree
homotopy H = gamma (1-t) (x_i^{d_i} - r_i) + t eq_i (random start roots,
gamma trick, Euler predictor and Newton corrector).  H is a sum of terms, the
cleared equations' own and the start system's x_i^{d_i} and 1, so H, its
Jacobian theta_k H_i / x_k and dH/dt are read off one power table of them.
Solutions landing on the cleared locus are filtered out by checking the
original rational equations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from . import polytope
from ._lazy import np
from .laurent import (IntegrandSpec, LaurentPoly, omega_components, power_rows,
                      power_table, slice_rows)

# Fixed thresholds of the tracker, the endpoint polish and the solution filter.
# A scaled residual is |residual| / max(1, sum of |term|) at the point.
INITIAL_STEP = 0.05      # first step in t of every path
MAX_STEP = 0.1           # largest step in t
MIN_STEP = 1e-7          # a path whose step shrinks below this has stalled
STALL_WINDOW = 1e-2      # a stall after t = 1 - STALL_WINDOW is not a failure
DIVERGENCE_RADIUS = 1e6  # a path with a coordinate beyond this has diverged
TAIL_RATIO = 3.0         # 1 - t falls by this factor between log-tail estimates
TAIL_GROWTH = 0.5        # least growth exponent of a log tail that stops a path
TAIL_AGREEMENT = 0.2     # relative gap of two log-tail estimates that agree
NEWTON_TOL = 1e-10       # scaled residual accepted by the corrector and at t = 1
MAX_NEWTON = 6           # corrector evaluations per step
POLISH_TOL = 1e-13       # scaled residual that ends the endpoint polish early
POLISH_ITERS = 30        # Newton iterations of the endpoint polish
RESIDUAL_TOL = 1e-8      # scaled residual of the rational equations at a solution
BOUNDARY_TOL = 1e-8      # |x_i| or scaled |f_j| below this puts x off the torus
DEDUP_DISTANCE = 1e-6    # max-norm distance below which two solutions are one
MAX_PATHS = 4096         # most start paths (product of degrees) a solve tracks
MAX_DRAWS = 16           # most random parameter draws `chi` compares


class TooManyPathsError(ValueError):
    """The total-degree start system would have more than MAX_PATHS paths."""


@dataclass(frozen=True)
class PolySystem:
    """Cleared polynomial form of the critical equations."""

    equations: tuple          # n LaurentPoly, no x_k divides any of them
    spec: IntegrandSpec

    @property
    def nvars(self) -> int:
        return self.spec.nvars

    @cached_property
    def _table(self):
        return power_table(self.equations)


class _Homotopy:
    """H(x,t) = gamma (1-t) G(x) + t F(x), G_i = x_i^{d_i} - r_i, on a tracker batch.

    Row r of the batch is in draw `draw[r]`, whose cleared system is
    `systems[draw[r]]`; the systems share one exponent table.  `gamma` (P,)
    and `roots` (P, n) are those of each row.  Equation i's block of the
    table holds F_i's block of `laurent.power_table`, padded to w terms,
    then x_i^{d_i} and 1, whose coefficients are gamma and -gamma r_i.  The weights are kept
    once per run, a block of adjacent rows with one draw, gamma and roots.
    """

    def __init__(self, systems, draw, gamma, degrees, roots):
        n = systems[0].nvars
        key = np.column_stack([draw, gamma, roots])
        new = np.concatenate([[True], (key[1:] != key[:-1]).any(axis=1)])
        first, self.run = np.flatnonzero(new), np.cumsum(new) - 1
        coeffs = np.stack([system._table[1] for system in systems])[draw[first]]
        gamma = np.broadcast_to(gamma[first, None], roots[first].shape)
        start = np.stack([np.diag(degrees), np.zeros((n, n))], axis=1)
        exps = np.concatenate([systems[0]._table[0].reshape(n, -1, n), start], axis=1)
        terms = np.concatenate([coeffs, np.stack([gamma, -gamma * roots[first]],
                                                 axis=-1)], axis=-1)
        self.start = np.arange(terms.shape[-1]) >= coeffs.shape[-1]
        self.exps = exps.reshape(-1, n)
        # per term its c, the weight of H_i, and c e_k, its weight in theta_k
        # H_i; conjugated, as vecdot conjugates its first operand.  Stored
        # term-major, so that vecdot sums in term order, a strided BLAS dot:
        # padding keeps bits
        factors = np.concatenate([np.ones_like(exps[..., :1]), exps], axis=-1)
        self.weights = np.swapaxes(terms[..., None] * factors, -1, -2).conj()
        self.moduli = np.abs(terms)
        # dH_i/dt = F_i - gamma G_i: the start terms change sign
        self.slopes = np.where(self.start, -terms, terms).conj()

    def evaluate(self, x, t, rows):
        """H, dH/dx, dH/dt and the scale at the batch rows `rows`, x (P, n) at t (P,).

        The scale is the sum of |term| over both parts of each H_i.  Per row
        slice of `laurent.power_rows`, its table read as (rows, n, w + 2),
        one vecdot with the rows' runs' weights gives every dH_i/dt; then the
        terms of F are scaled by t and those of G by 1 - t, and one vecdot
        gives every H_i and theta_k H_i, another the scale.  dH/dx is
        theta H / x, so column k is not finite at x_k = 0.  At t = 1 the
        start terms are scaled by 0, so H is F wherever x_i^{d_i} is finite.
        x needs at least one row.
        """
        runs = self.run[rows]
        weights = (self.slopes, self.weights, self.moduli)
        parts = [self._values(x[part], mon, weights, runs[part], self._factor(t[part]))
                 for part, mon in power_rows(x, self.exps)]
        return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))

    def bind(self, rows, t):
        """`evaluate` at the batch rows `rows` and their t (P,), as a function.

        The function takes x and k, x the points of the rows k of `rows`, a
        slice or indices, and gives `evaluate(x, t[k], rows[k])`, the same
        bits.  When `rows` fit in one row slice of `laurent.power_rows`, each
        row's weights and t-factors are gathered here once, so an evaluation
        of all of `rows` (k = slice(None)) gathers nothing; otherwise each
        evaluation gathers them per slice, so memory stays bounded.  As for
        `evaluate`, x needs at least one row.
        """
        if len(t) > slice_rows(self.exps):
            return lambda x, k: self.evaluate(x, t[k], rows[k])
        runs = self.run[rows]
        weights = tuple(w[runs] for w in (self.slopes, self.weights, self.moduli))
        factor = self._factor(t)
        # one slice, so power_rows yields one table, of the whole of x
        return lambda x, k: self._values(x, next(power_rows(x, self.exps))[1],
                                         weights, k, factor[k])

    def _factor(self, t):
        """Each term's factor at t (P,), 1 - t for G's and t for F's."""
        s = t[:, None, None]
        return np.where(self.start, 1 - s, s)

    def _values(self, x, mon, weights, r, factor):
        """`evaluate` at x, the rows of one slice, from their table `mon` of
        `laurent.power_rows`, the weights of dH/dt, of (H, theta H) and of
        the scale, gathered at r as they are used, and the rows' t-factors."""
        slopes, both, moduli = weights
        mon = mon.reshape(len(x), *moduli.shape[1:])
        slope = np.vecdot(slopes[r], mon)
        mon *= factor
        values = np.vecdot(both[r], mon[:, :, None])
        scale = np.vecdot(moduli[r], np.abs(mon))
        with np.errstate(invalid="ignore"):   # 0 / 0 at x_k = 0
            jac = values[..., 1:] / x[:, None, :]
        return values[..., 0], jac, slope, scale


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

    Equation i is sum_j s_j (theta_i f_j) prod_{k!=j} f_k + nu_i prod_k f_k,
    theta_i f_j read off f_j's terms, divided by x^m, m its least exponent in
    each variable, so that no x_k divides it and no exponent is negative.
    On the torus this changes neither the solutions nor their multiplicities,
    and of all monomial shifts it gives the least total degrees, so the
    fewest paths of `solve`.  A coefficient beyond the float range, or
    coefficient arithmetic that leaves it, raises OverflowError.
    """
    n = spec.nvars
    eqs = []
    try:
        prod_all = LaurentPoly.constant(n, 1)
        for fk in spec.f:
            prod_all = prod_all * fk
        for i in range(n):
            acc = LaurentPoly.zero(n)
            for j, fj in enumerate(spec.f):
                term = LaurentPoly(n, {e: e[i] * c for e, c in fj.terms.items()
                                       if e[i]}).scale(spec.s[j])
                for k, fk in enumerate(spec.f):
                    if k != j:
                        term = term * fk
                acc = acc + term
            acc = acc + prod_all.scale(spec.nu[i])
            eqs.append(acc.shift(-m for m in acc.min_exponents()))
        finite = all(math.isfinite(abs(c)) for eq in eqs for c in eq.terms.values())
    except OverflowError:   # an exact coefficient too large to meet a float
        finite = False
    if not finite:
        raise OverflowError("a coefficient of the critical equations is "
                            "beyond the float range")
    return PolySystem(tuple(eqs), spec)


def _solve_stack(a, b):
    """Solve a[k] y = b[k] for every k; also flag the k whose a[k] is singular.

    One singular matrix makes the batched solve raise for the whole stack, so
    the stack is then solved one system at a time.
    """
    try:
        return np.linalg.solve(a, b[..., None])[..., 0], np.zeros(len(b), dtype=bool)
    except np.linalg.LinAlgError:
        y = np.zeros_like(b)
        singular = np.zeros(len(b), dtype=bool)
        for k in range(len(b)):
            try:
                y[k] = np.linalg.solve(a[k], b[k])
            except np.linalg.LinAlgError:
                singular[k] = True
        return y, singular


def _newton(evaluate, x, tols):
    """Newton's method on the rows of the batch x (P, n), stepped in place.

    `evaluate(xk, k)` gives F, its Jacobian, a value not read here (dH/dt of
    `_Homotopy`) and the residual scale at xk, the rows k of x: a slice of
    all of them until a row stops, then their indices.  Evaluation j stops
    each row whose scaled residual is below `tols[j]`, and drops each row
    whose residual is not finite or whose Jacobian is singular.  The rows
    still iterating are stepped after every evaluation but the last, until
    none is left.  Returns the mask of the rows that stopped.
    """
    done = np.zeros(len(x), dtype=bool)
    k = slice(None)
    for j, tol in enumerate(tols):
        r, jac, _, scale = evaluate(x[k], k)
        below = _below(r, scale, tol)
        done[k] |= below
        step = np.isfinite(r).all(axis=1) & ~below
        if j == len(tols) - 1 or not step.any():   # last evaluation, or no row steps
            break
        delta, singular = _solve_stack(jac[step], -r[step])
        step[step] = ~singular
        if not step.all():
            k = np.arange(len(x))[k][step]
            if not k.size:
                break
            delta = delta[~singular]
        x[k] += delta
    return done


def _below(r, scale, tol):
    """Per row, whether every residual is below tol times max(1, its scale)."""
    return (np.abs(r) < tol * np.maximum(1.0, scale)).all(axis=1)


def _norms(v):
    """The 2-norm of each row of v, as `np.linalg.norm(v, axis=1)` computes it."""
    return np.sqrt(np.add.reduce((v.conj() * v).real, axis=1))


# the path states of `_track_paths`, coded by their index
_STATUSES = ("running", "ok", "diverged", "stalled", "dropped")
_RUNNING, _OK, _DIVERGED, _STALLED, _DROPPED = range(len(_STATUSES))


def _track_paths(homotopy, starts, stop):
    """Track the paths of H(x,t) = gamma (1-t) G(x) + t F(x), t: 0 -> 1, in lockstep.

    `homotopy` is the `_Homotopy` of the batch, whose rows may be in several
    runs and draws, and `starts` holds one start root per row, shape (P, n).
    Every path keeps its own t, step, success count, status and
    Euler predictor v = -(dH/dx)^-1 dH/dt, solved at t = 0 and after each
    accepted step from the corrector's last evaluation; a rejected step
    retries with v and half the step.  Each iteration predicts all running
    paths, then corrects them with up to MAX_NEWTON Newton evaluations of H
    bound to their rows and t (`_Homotopy.bind`).

    A path diverges when a coordinate passes DIVERGENCE_RADIUS.  A path
    that grows towards infinity stops earlier by its log tail (after Morgan,
    Sommese and Wampler's power-series endgame).  Inside the stall window it
    keeps an anchor, 1 - t and log|x| at an accepted step.  Each time 1 - t
    has fallen by TAIL_RATIO since the anchor, it estimates the growth
    exponent alpha of |x| ~ (1 - t)^-alpha as
    max_i log(|x_i| / |x_i at the anchor|) / log(fall of 1 - t), and
    re-anchors.  Two consecutive estimates above TAIL_GROWTH that agree
    within the relative gap TAIL_AGREEMENT end the path as "stalled", so
    that the polish decides it: a path that only reaches a large finite root
    late grows like one to infinity until 1 - t is near the root's inverse
    size.  Only growth counts: a coordinate tending to 0 ends no path.

    After each iteration in which paths end "ok", `stop(rows, x)` gets
    those paths and their endpoints; when it returns True, every path still
    running ends as "dropped".

    Returns the status ("ok", "diverged", "stalled" or "dropped"), x and t of
    every path, and the mask of the paths at which H was ever evaluated
    beyond the float range; those evaluations are rejected like any failed
    correction.
    """
    x = np.array(starts, dtype=np.complex128)
    unbounded = np.zeros(len(x), dtype=bool)

    def flag(values, rows, k=slice(None)):
        # the scale bounds |H|, so it is finite where H is
        if not np.isfinite(values[3]).all():
            unbounded[rows[k]] |= ~np.isfinite(values[3]).all(axis=1)
        return values

    t = np.zeros(len(x))
    _, hx, ht, _ = flag(homotopy.evaluate(x, t, slice(None)), np.arange(len(x)))
    v, singular = _solve_stack(hx, -ht)   # a singular dH/dx stalls its path
    status = np.where(singular, _STALLED, _RUNNING).astype(np.int8)
    dt = np.full(len(x), INITIAL_STEP)
    successes = np.zeros(len(x), dtype=int)
    # the log tail: 1 - t and log|x| at each path's anchor (0: none), and its
    # last growth estimate
    anchor, anchor_x = np.zeros(len(x)), np.zeros(x.shape)
    growth = np.zeros(len(x))
    while (a := np.flatnonzero(status == _RUNNING)).size:
        x0, t0 = x[a], t[a]
        dt0 = np.minimum(dt[a], 1.0 - t0)
        dx = v[a] * dt0[:, None]
        xp = x0 + dx
        tp = t0 + dt0
        # Newton corrector; where ok, hxp and htp are the derivatives at (xp, tp)
        hxp, htp = np.empty(xp.shape + xp.shape[1:], complex), np.empty_like(xp)
        bound = homotopy.bind(a, tp)

        def at(xk, k):
            values = flag(bound(xk, k), a, k)
            hxp[k], htp[k] = values[1:3]
            return values

        ok = _newton(at, xp, (NEWTON_TOL,) * MAX_NEWTON)
        # guard against path jumping: the corrected point must stay within the
        # predictor's reach, otherwise shrink the step and retry
        ok &= ~(_norms(xp - (x0 + dx)) > 2.0 * _norms(dx) + 1e-6 * (1.0 + _norms(x0)))
        # the third accepted step in a row doubles the step, a rejected one
        # halves it; a rejected path whose step falls below MIN_STEP stalls
        wins = np.where(ok, successes[a] + 1, 0)
        grow = wins >= 3
        successes[a] = np.where(grow, 0, wins)
        dt1 = np.where(grow, np.minimum(dt0 * 2, MAX_STEP), np.where(ok, dt0, dt0 / 2))
        dt[a] = dt1
        status[a[~ok & (dt1 < MIN_STEP)]] = _STALLED
        acc, xa, ta = a[ok], xp[ok], tp[ok]
        x[acc], t[acc] = xa, ta
        far = np.max(np.abs(xa), axis=1) > DIVERGENCE_RADIUS
        status[acc[far]] = _DIVERGED
        # the log tail of the accepted paths in the stall window
        near = (ta > 1 - STALL_WINDOW) & (ta < 1.0) & ~far
        if near.any():
            tail, gap = acc[near], 1.0 - ta[near]
            # log 0 = -inf at x_i = 0, which no growth estimate counts
            with np.errstate(divide="ignore", invalid="ignore"):
                logx = np.log(np.abs(xa[near]))
                due = gap * TAIL_RATIO <= anchor[tail]
                p = tail[due]
                rate = (np.max(logx[due] - anchor_x[p], axis=1)
                        / np.log(anchor[p] / gap[due]))
                last = growth[p]
                steady = ((rate > TAIL_GROWTH) & (last > TAIL_GROWTH)
                          & (np.abs(rate - last) <= TAIL_AGREEMENT * last))
            status[p[steady]] = _STALLED
            growth[p] = rate
            new = due | (anchor[tail] == 0)
            anchor[tail[new]], anchor_x[tail[new]] = gap[new], logx[new]
        # only an accepted path reaches t = 1
        end = (ta >= 1.0) & ~far
        ended = acc[end]
        status[ended] = _OK
        if ended.size and stop(ended, xa[end]):
            status[status == _RUNNING] = _DROPPED
        # the new direction of the paths that moved and still run
        moved = np.flatnonzero(ok)[status[acc] == _RUNNING]
        if moved.size:
            v[a[moved]], singular = _solve_stack(hxp[moved], -htp[moved])
            status[a[moved[singular]]] = _STALLED
    return np.array(_STATUSES)[status], x, t, unbounded


def _polish(homotopy, x, rows):
    """Newton's method on H(., 1) = F from every row of x, in place.

    x holds the rows `rows` of the batch of `homotopy`.  A row stops as soon
    as its scaled residual is below POLISH_TOL.  A row still iterating after
    POLISH_ITERS steps is kept only if it then passes NEWTON_TOL.  Returns
    the mask of the kept rows.
    """
    return _newton(homotopy.bind(rows, np.ones(len(rows))), x,
                   (POLISH_TOL,) * POLISH_ITERS + (NEWTON_TOL,))


def _start_system(degrees, rng):
    """Random start system x_i^{d_i} = roots_i, its (P, n) start roots and gamma."""
    n = len(degrees)
    angles = rng.uniform(0, 2 * math.pi, size=n)
    radii = rng.uniform(0.5, 1.5, size=n)
    roots = radii * np.exp(1j * angles)
    gamma = np.exp(1j * rng.uniform(0, 2 * math.pi))

    per_var = []
    for i in range(n):
        d = int(degrees[i])
        base = roots[i] ** (1.0 / d)
        per_var.append([base * np.exp(2j * math.pi * k / d) for k in range(d)])
    starts = np.array(list(itertools.product(*per_var)),
                      dtype=np.complex128).reshape(-1, n)
    return starts, gamma, roots


def _batches(systems, sizes):
    """Split the draws into batches of consecutive ones, as lists of indices.

    A batch holds draws whose cleared systems share one exponent table, and
    at most 2 MAX_PATHS rows, `sizes[d]` of them for draw d.
    """
    batch = []
    for d, system in enumerate(systems):
        if batch:
            first = systems[batch[0]]._table[0]
            if (sum(sizes[b] for b in batch) + sizes[d] > 2 * MAX_PATHS
                    or not np.array_equal(system._table[0], first)):
                yield batch
                batch = []
        batch.append(d)
    if batch:
        yield batch


class _Tally:
    """A draw's distinct verified points so far, and the most it can have.

    Endpoints wait unverified while they and the points number fewer than
    the bound, since they cannot fill it (under an infinite bound, for
    good); then each is verified once, into the points (`_add_solutions`).
    `taken` counts the endpoints added and `verified` those verified.
    """

    def __init__(self, spec, bound):
        self.spec, self.bound, self.points, self.waiting = spec, bound, [], []
        self.taken = self.verified = 0

    def add(self, x):
        self.taken += len(x)
        self.waiting.append(x)
        if len(self.points) + sum(map(len, self.waiting)) >= self.bound:
            self.verified += _add_solutions(self.spec, np.concatenate(self.waiting),
                                            self.points)
            self.waiting = []

    @property
    def full(self):
        return len(self.points) >= self.bound

    def solution_set(self, raw_paths, failed_paths):
        """The SolutionSet of the points, every endpoint taken counted as
        converged and each one not verified as filtered."""
        return SolutionSet(solutions=tuple(s for s, _ in self.points),
                           residuals=tuple(r for _, r in self.points),
                           raw_paths=raw_paths, converged=self.taken,
                           filtered=self.taken - self.verified,
                           distinct=len(self.points), failed_paths=failed_paths)


def _decided(tallies):
    """Whether a tally of `tallies` is full."""
    return any(tally.full for tally in tallies)


def _run_tracking(systems, degrees, rngs, attempts, tallies):
    """Total-degree tracking runs of several draws, `attempts` fresh ones per draw.

    Draw d's start systems (random constants and gamma) are drawn from
    `rngs[d]` one after another.  The paths of all runs of a batch of draws
    (`_batches`) are tracked and polished together; a path's trajectory
    depends on its own row alone, so each run ends as it would alone.
    The endpoint of each path that ends "ok" goes to its draw's `_Tally`,
    `tallies[d]`, as it ends.  Once a tally is full, its batch is decided:
    every running path of the batch is dropped, none is polished, and no
    later batch is tracked.
    Returns per draw of the batches tracked before a decided one
    (endpoints, failed, unbounded): the polished endpoints of its converged
    paths, one per row, run after run; the count of the paths of its last
    run that did not diverge, could not be polished and did not stall near
    t = 1; and whether one of those met a value beyond the float range.
    Values beyond it are dropped like any failed correction, without a
    warning.
    """
    starts = [[_start_system(deg, rng) for _ in range(attempts)]
              for deg, rng in zip(degrees, rngs)]
    sizes = [sum(len(x) for x, _, _ in runs) for runs in starts]
    results = []
    for batch in _batches(systems, sizes):
        # one exponent table, so one path count per run
        begun, gammas, roots = map(np.array, zip(*(run for d in batch
                                                   for run in starts[d])))
        run = np.repeat(np.arange(len(begun)), begun.shape[1])
        draw = run // attempts
        counted = [tallies[d] for d in batch]

        def stop(rows, x):
            for i in np.unique(draw[rows]):
                counted[i].add(x[draw[rows] == i])
            return _decided(counted)

        with np.errstate(over="ignore", invalid="ignore"):
            homotopy = _Homotopy([systems[d] for d in batch], draw,
                                 gammas[run], degrees[batch[0]], roots[run])
            status, x, t, unbounded = _track_paths(homotopy, np.concatenate(begun),
                                                   stop)
            if _decided(counted):
                break
            live = np.flatnonzero(status != "diverged")
            x, status, t, run, unbounded = (x[live], status[live], t[live],
                                            run[live], unbounded[live])
            converged = _polish(homotopy, x, live)
        # Paths heading to the toric boundary or to infinity stall with
        # shrinking steps just before t = 1.  Regular target solutions are
        # recovered by Newton polish from the stall point; a failed polish
        # that close to t = 1 means the path has no finite regular limit.
        # Only mid-domain stalls count as genuine tracking failures.
        failed = ~converged & ~((status == "stalled") & (t > 1 - STALL_WINDOW))
        failed &= run % attempts == attempts - 1    # in its draw's last run
        results += [(x[converged & mine], int((failed & mine).sum()),
                     bool((failed & unbounded & mine).any()))
                    for mine in (run // attempts == i for i in range(len(batch)))]
    return results


def _total_degrees(system):
    """The cleared equations' total degrees, once the path count is checked."""
    if len(system.equations) != system.nvars:
        raise ValueError("system must be square")
    total_degrees = [max(1, eq.total_degree()) for eq in system.equations]
    if math.prod(total_degrees) > MAX_PATHS:
        raise TooManyPathsError(
            "the total-degree homotopy needs more start paths (the product of "
            f"the cleared equations' degrees) than critical.MAX_PATHS = {MAX_PATHS}")
    return total_degrees


def solve(system: PolySystem, settings: TrackerSettings | None = None) -> SolutionSet:
    """All distinct critical points in the torus complement, by total-degree homotopy.

    The one-draw case of `solve_draws`.
    """
    settings = settings or TrackerSettings()
    return solve_draws((system,), (settings.seed,))[0]


def solve_draws(systems, seeds, bound=math.inf) -> tuple:
    """`solve` of each draw's cleared system under its own seed, tracked together.

    Per draw, two runs under independent random gammas are tracked, and a
    third when the second leaves failed paths; the strictly verified
    endpoints are pooled.  The verified solution set does not depend on
    gamma, so pooling cannot introduce spurious points.  The runs of all
    draws share batches (`_run_tracking`).  When a path that failed in a
    draw's last run met a value beyond the float range, the count cannot be
    trusted, and FloatingPointError is raised.

    `bound` is the most distinct solutions a draw can have, and each draw's
    `_Tally` holds the endpoints of its paths that ended "ok", in any of its
    runs.  Once one holds that many verified points, the solve is decided:
    tracking stops for every draw, nothing is polished, and no third run or
    later batch starts.  A decided draw's SolutionSet is read off its tally:
    `raw_paths` counts the paths started, `converged` the endpoints taken,
    `filtered` those that failed verification, and `failed_paths` is 0.
    Every other draw then gets None in place of its SolutionSet.  An
    infinite bound never decides, so each draw's SolutionSet is then the one
    it gets alone, verified once from its polished endpoints.
    """
    total_degrees = [_total_degrees(system) for system in systems]
    degrees = [np.array(deg, dtype=np.float64) for deg in total_degrees]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    tallies = [_Tally(system.spec, bound) for system in systems]

    # Two independent runs are always pooled: a path jump or an unresolved
    # stall under one gamma is overwhelmingly unlikely to recur at the same
    # solution under an independent gamma.  A third run is added only when
    # the second reports genuine mid-domain tracking failures.
    draws = _run_tracking(systems, degrees, rngs, 2, tallies)
    again = [] if _decided(tallies) else [d for d, (_, failed, _) in enumerate(draws)
                                          if failed]
    third = _run_tracking([systems[d] for d in again], [degrees[d] for d in again],
                          [rngs[d] for d in again], 1, [tallies[d] for d in again])
    paths = [math.prod(deg) * (2 + (d in again))
             for d, deg in enumerate(total_degrees)]
    if _decided(tallies):
        return tuple(tally.solution_set(raw_paths, 0) if tally.full else None
                     for tally, raw_paths in zip(tallies, paths))
    for d, (ends, failed, unbounded) in zip(again, third):
        draws[d] = np.concatenate([draws[d][0], ends]), failed, unbounded
    if any(unbounded for *_, unbounded in draws):
        raise FloatingPointError("the critical equations reach a value beyond "
                                 "the float range on a path that failed")
    return tuple(_solution_set(system.spec, raw_paths, ends, failed)
                 for system, raw_paths, (ends, failed, _) in zip(systems, paths, draws))


def _solution_set(spec, raw_paths, endpoints, failed_paths):
    """The filtered, deduplicated SolutionSet of an undecided draw's polished
    endpoints, each verified once into a fresh `_Tally`."""
    tally = _Tally(spec, 0)
    tally.add(endpoints)
    return tally.solution_set(raw_paths, failed_paths)


def _add_solutions(spec, x, distinct):
    """Add the verified rows of x (P, n) to `distinct`, a list of (point, residual).

    A row is verified when it lies in the torus complement and satisfies the
    original rational equations: every |x_i| and scaled |f_j| is at least
    BOUNDARY_TOL, and the scaled residual of omega at most RESIDUAL_TOL.  All
    thresholds are relative to the term magnitudes at x, so badly scaled but
    genuine solutions are not rejected.  The verified rows are taken in the
    order of their coordinates rounded to 8 decimals, compared as (re, im)
    of the first coordinate, then of the next, and so on, rows that tie
    in the order given.  Each joins `distinct` unless a point there lies
    within DEDUP_DISTANCE of it in the max norm; so into an empty list the
    points do not depend on the order of the rows.  Returns the count of
    verified rows.
    """
    x = x[~np.any(np.abs(x) < BOUNDARY_TOL, axis=1)]
    grads = [fj.value_and_gradient(x) for fj in spec.f]
    on_torus = np.ones(len(x), dtype=bool)
    for fj, g in zip(spec.f, grads):
        on_torus &= ~(np.abs(g[:, 0]) < BOUNDARY_TOL * np.maximum(1.0, fj.magnitude(x)))
    x = x[on_torus]
    scale = sum(abs(complex(sj)) * np.abs(g[on_torus, 1:])
                / np.abs(g[on_torus, :1]) for sj, g in zip(spec.s, grads))
    scale = scale + np.abs([complex(v) for v in spec.nu]) / np.abs(x)
    resid = np.max(np.abs(omega_components(spec, x)) / np.maximum(1.0, scale),
                   axis=1)
    kept = resid <= RESIDUAL_TOL
    x, resid = x[kept], resid[kept]
    # lexsort's last key is its first: (re, im) of each coordinate, reversed
    order = np.lexsort(np.round(x, 8).view(np.float64)[:, ::-1].T)
    points = np.reshape([y for y, _ in distinct], (-1, x.shape[1]))
    for xk, rk in zip(x[order], resid[order]):
        if (np.max(np.abs(xk - points), axis=1) > DEDUP_DISTANCE).all():
            distinct.append((tuple(xk), float(rk)))
            points = np.vstack([points, xk])
    return len(x)


def _random_parameters(rng, count):
    return tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(count))


def euler_characteristic(spec_or_polys, settings: TrackerSettings | None = None,
                         draws: int = 2):
    """Signed Euler characteristic via critical point counts.

    Accepts either a full IntegrandSpec (its s, nu are replaced by random
    draws) or a bare list of LaurentPoly.  The count is read off `draws`
    independent random parameter draws, which are solved together
    (`solve_draws`).  A Cayley support of affine rank below n + ell - 1 makes
    every f_j quasi-homogeneous for one weight, whose one-parameter subgroup
    acts freely on the complement, so chi = 0 and nothing is tracked.
    Otherwise the critical points are the torus solutions of the Cayley
    polynomial's Euler system, so by Bernstein's theorem a draw has at most
    the support's normalized volume times its lattice index of them, and no
    draw has more isolated ones than random parameters give.  So a draw
    that holds that many verified points, and none holds more, proves the
    count: it is the bound, certified.  The first draw whose tracked
    endpoints hold that many decides the solve, and no other draw is
    waited for (`solve_draws`).  Otherwise the count must agree across the
    draws, and it is certified when no draw's last run has failed paths.
    Draws that agree on an uncertified count below the bound raise
    RuntimeError, as do draws that disagree.
    """
    settings = settings or TrackerSettings()
    if isinstance(spec_or_polys, IntegrandSpec):
        polys = spec_or_polys.f
    else:
        polys = tuple(spec_or_polys)
    n = polys[0].nvars
    ell = len(polys)
    rng = np.random.default_rng(settings.seed)
    specs = [IntegrandSpec(polys, _random_parameters(rng, ell),
                           _random_parameters(rng, n)) for _ in range(draws)]
    report = polytope.normalized_volume(polytope.cayley_support(specs[0]))
    if report.affine_dim < n + ell - 1:
        return 0, 0, True
    bound = report.normalized_volume * report.index
    systems = [build_system(spec) for spec in specs]
    seeds = [settings.seed + 1000 + d for d in range(draws)]
    # a decided solve gives None for each draw it did not wait for
    sols = [sol for sol in solve_draws(systems, seeds, bound) if sol is not None]
    counts = [sol.distinct for sol in sols]
    # a draw that holds the bound's count of points has them all
    if max(counts) == bound:
        return (-1) ** n * bound, bound, True
    if len(set(counts)) != 1:
        raise RuntimeError(f"critical point counts disagree across draws: {counts}; "
                           "non-generic parameters or tracking failure")
    count = counts[0]
    certified = all(sol.certified for sol in sols)
    if count < bound and not certified:
        raise RuntimeError(f"the draws agree on {count} critical points, below the "
                           f"bound {bound} = volume x index, and paths failed")
    chi = (-1) ** n * count
    return chi, count, certified
