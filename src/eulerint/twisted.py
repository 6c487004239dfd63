"""Numerical pairing of twisted cycles and cocycles on a punctured line.

Integrals of the multivalued function f(x)^s x^nu against monomial cocycles
f^a x^(b-1) dx are computed over triangular cycles by tracking a branch of the
function along each triangle edge (Euler predictor on dy/dx = omega(x) y,
Newton corrector onto the algebraic curve y^k = f^{ks} x^{k nu}) and applying
the trapezoidal rule.  The right kernel of the resulting pairing matrix gives
linear relations among the integrals.

Only the one-variable case is implemented; callers with several variables get
a NotImplementedError.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from ._lazy import np
from .laurent import IntegrandSpec, omega_components

NEWTON_CORRECTIONS = 4      # fixed corrector iterations per node
DEFAULT_NODES = 1000        # quadrature nodes per triangle edge
MAX_NODES = 100_000         # most quadrature nodes per triangle edge
MAX_DEGREE = 256            # widest exponent span of an f_j whose roots are found
POLE_GUARD_RADIUS = 1e-8    # minimum allowed node distance to a singularity
CLOSURE_TOL = 1e-6          # branch must return to itself within this
KERNEL_REL_TOL = 1e-6       # kernel: sigma <= KERNEL_REL_TOL * sigma_max, scaled columns
RATIONAL_MAX_DEN = 64       # largest denominator of the nearest fraction


class SegmentError(RuntimeError):
    """A quadrature node is too close to a singularity, or the branch collapsed."""


class CycleClosureError(RuntimeError):
    """The tracked branch does not close up: not a twisted cycle."""


def _require_univariate(spec: IntegrandSpec):
    if spec.nvars != 1:
        raise NotImplementedError(
            "twisted pairing is implemented for one variable only")


@dataclass(frozen=True)
class TwistedCycle:
    """Triangle A -> B -> C -> A with a chosen branch value at A."""

    A: complex
    B: complex
    C: complex
    phi_at_A: complex

    def __post_init__(self):
        pts = (complex(self.A), complex(self.B), complex(self.C))
        if len({pts[0], pts[1], pts[2]}) != 3:
            raise ValueError("triangle vertices must be pairwise distinct")
        object.__setattr__(self, "A", pts[0])
        object.__setattr__(self, "B", pts[1])
        object.__setattr__(self, "C", pts[2])
        object.__setattr__(self, "phi_at_A", complex(self.phi_at_A))

    @property
    def vertices(self):
        return (self.A, self.B, self.C)


@dataclass(frozen=True)
class Cocycle:
    """Exponent shifts (a, b) of the form f^a x^b dx/x."""

    a: tuple
    b: int

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(int(v) for v in self.a))
        object.__setattr__(self, "b", int(self.b))


def _as_fraction(value, what):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, complex):
        if value.imag != 0:
            raise ValueError(f"{what} must be real rational, got {value!r}")
        value = value.real
    if isinstance(value, float):
        frac = Fraction(value)
        if frac.denominator > 10 ** 6:
            raise ValueError(
                f"{what} must be rational with a small denominator, got {value!r}")
        return frac
    raise ValueError(f"{what} must be rational, got {value!r}")


def _power(value, k, what):
    """The integer exponent k * value of the curve, checked to be a float.

    `rhs` raises x to it in floating point, so a power beyond the float range
    is refused here, before any node is tracked.
    """
    power = int(value * k)
    try:
        float(power)
    except OverflowError:
        raise ValueError(f"exponent {what}: k*{what} with k = {k} is beyond the "
                         "float range") from None
    return power


@dataclass(frozen=True)
class BranchCurve:
    """Defining data of the curve y^k = prod_j f_j(x)^{k s_j} x^{k nu}."""

    spec: IntegrandSpec
    k: int
    ks: tuple     # integer exponents k * s_j
    knu: int      # integer exponent k * nu

    @classmethod
    def from_spec(cls, spec: IntegrandSpec) -> "BranchCurve":
        _require_univariate(spec)
        s = [_as_fraction(v, "exponent s") for v in spec.s]
        nu = _as_fraction(spec.nu[0], "exponent nu")
        k = 1
        for v in list(s) + [nu]:
            k = k * v.denominator // gcd(k, v.denominator)
        return cls(spec=spec, k=k,
                   ks=tuple(_power(v, k, f"s_{j + 1}") for j, v in enumerate(s)),
                   knu=_power(nu, k, "nu"))

    def rhs(self, x):
        """The single-valued side prod_j f_j(x)^{k s_j} x^{k nu}.

        x is a point or an array of points; the result is a complex number
        or an array of the same shape.
        """
        x = np.asarray(x, dtype=np.complex128)
        out = x ** self.knu
        for fj, e in zip(self.spec.f, self.ks):
            out = out * fj.evaluate(x[..., None]) ** e
        return complex(out) if x.ndim == 0 else out

    def defining(self, x: complex, y: complex) -> complex:
        """F(x, y) = y^k - prod f^{ks} x^{k nu}; zero along any branch."""
        return y ** self.k - self.rhs(x)


def omega_scalar(spec: IntegrandSpec, x: complex) -> complex:
    """The logarithmic derivative sum_j s_j f_j'(x)/f_j(x) + nu/x."""
    return complex(omega_components(spec, [x])[0])


def principal_branch_value(spec: IntegrandSpec, x: complex) -> complex:
    """x^nu * prod_j f_j(x)^{s_j} with principal logarithms.

    An f_j(x) beyond the float range raises OverflowError, as does the result.
    """
    _require_univariate(spec)
    acc = complex(spec.nu[0]) * cmath.log(complex(x))
    for j, (fj, sj) in enumerate(zip(spec.f, spec.s)):
        with np.errstate(over="ignore", invalid="ignore"):
            value = fj.evaluate([x])
        if not cmath.isfinite(value):
            raise OverflowError(f"f_{j + 1}({x}) is beyond the float range")
        acc += complex(sj) * cmath.log(value)
    return cmath.exp(acc)


def euler_step(x: complex, y: complex, dx: complex, omega) -> tuple:
    """One explicit step of dy/dx = omega(x) y: (x+dx, (1 + omega(x) dx) y)."""
    return x + dx, (1.0 + omega(x) * dx) * y


def newton_step(y: complex, x: complex, curve: BranchCurve) -> complex:
    """One Newton iteration on y^k - prod f^{ks} x^{k nu} at fixed x."""
    k = curve.k
    if k > 1 and y == 0:
        raise ZeroDivisionError("branch collapse: y = 0 on a k-sheeted curve")
    return y - curve.defining(x, y) / (k * y ** (k - 1))


def singular_points(spec: IntegrandSpec) -> np.ndarray:
    """Roots of x * prod_j f_j in the complex plane (poles of omega).

    The roots of f_j are the eigenvalues of a companion matrix of the size of
    its exponent span squared, so a span above MAX_DEGREE raises ValueError.
    """
    _require_univariate(spec)
    pts = [0j]
    for j, fj in enumerate(spec.f):
        exps = sorted(e[0] for e in fj.support())
        lo, hi = exps[0], exps[-1]
        if hi - lo > MAX_DEGREE:
            raise ValueError(f"f_{j + 1} spans {hi - lo} degrees, more than "
                             f"twisted.MAX_DEGREE = {MAX_DEGREE}")
        coeffs = [complex(fj.terms.get((e,), 0)) for e in range(hi, lo - 1, -1)]
        if len(coeffs) > 1:
            pts.extend(np.roots(coeffs))
    return np.array(pts, dtype=np.complex128)


def track_line_segment(Sx: complex, Sy: complex, Tx: complex, N: int,
                       spec: IntegrandSpec, curve: BranchCurve,
                       poles: np.ndarray | None = None) -> tuple:
    """Branch values at N equidistant nodes from Sx to Tx.

    The first value is Sy; each later node applies one Euler predictor step
    and a fixed number of Newton corrections onto the curve.  omega and the
    curve's right-hand side depend on x alone, so both are evaluated once
    over all nodes; only the recurrence in y runs node by node.  Returns
    (nodes, values) as complex arrays.  An Euler factor or a right-hand side
    beyond the float range at a node raises ValueError, since the input
    causes it.
    """
    _require_univariate(spec)
    if N < 2:
        raise ValueError("need at least two nodes per segment")
    if poles is None:
        poles = singular_points(spec)
    nodes = Sx + (Tx - Sx) * np.arange(N) / (N - 1)
    if len(poles) and np.min(np.abs(nodes[:, None] - poles[None, :])) < POLE_GUARD_RADIUS:
        raise SegmentError(
            f"segment hits singularity: a node is within {POLE_GUARD_RADIUS} "
            "of a root of x * prod f_j")
    dx = (Tx - Sx) / (N - 1)
    # Euler factor 1 + omega(x_{i-1}) dx and Newton target rhs(x_i) per step
    with np.errstate(over="ignore", invalid="ignore"):
        growth = 1.0 + omega_components(spec, nodes[:-1, None])[:, 0] * dx
        targets = curve.rhs(nodes[1:])
    if not np.all(np.isfinite(growth)):
        raise ValueError("the Euler factor 1 + omega(x) dx is not finite at a "
                         "node: a value of f_j or f_j' is beyond the float range")
    if not np.all(np.isfinite(targets)):
        raise ValueError("the curve's right-hand side prod_j f_j^(k*s_j) x^(k*nu) "
                         "is beyond the float range at a node")
    growth, targets = growth.tolist(), targets.tolist()
    k = curve.k
    y = complex(Sy)
    values = [y]
    try:
        for g, r in zip(growth, targets):
            y = g * y
            for _ in range(NEWTON_CORRECTIONS):
                y = y - (y ** k - r) / (k * y ** (k - 1))
            values.append(y)
    except ZeroDivisionError:
        raise SegmentError(
            "branch collapse: y = 0 on a k-sheeted curve") from None
    return nodes, np.array(values, dtype=np.complex128)


def integrate_trapezoidal(values, h: complex) -> complex:
    """Trapezoidal rule with constant complex step h."""
    v = np.asarray(values, dtype=np.complex128)
    if v.size < 2:
        raise ValueError("need at least two values")
    return complex(h * (v[0] / 2 + v[1:-1].sum() + v[-1] / 2))


def integrate_line_segment(A: complex, phi_at_A: complex, B: complex, N: int,
                           spec: IntegrandSpec, curve: BranchCurve, cocycles,
                           poles: np.ndarray | None = None) -> tuple:
    """Per-cocycle integrals over the segment AB plus the tracked branch values.

    Each cocycle (a, b) contributes the trapezoidal sum of
    phi(x) * prod f_j(x)^{a_j} * x^{b-1} with step (B-A)/(N-1).  An integral
    beyond the float range while the branch values are finite raises
    ValueError, since the cocycle's shifts cause it; non-finite branch values
    are left to the closure test.
    """
    nodes, values = track_line_segment(A, phi_at_A, B, N, spec, curve, poles)
    h = (B - A) / (N - 1)
    fvals = [fj.evaluate(nodes[:, None]) for fj in spec.f]
    out = np.empty(len(cocycles), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, coc in enumerate(cocycles):
            integrand = values * nodes ** (coc.b - 1)
            for fv, aj in zip(fvals, coc.a):
                if aj:
                    integrand = integrand * fv ** aj
            out[j] = integrate_trapezoidal(integrand, h)
    beyond = [c for c, v in zip(cocycles, out) if not cmath.isfinite(v)]
    if beyond and np.all(np.isfinite(values)):
        raise ValueError(f"the integral of the cocycle a = {list(beyond[0].a)}, "
                         f"b = {beyond[0].b} is beyond the float range")
    return out, values


@dataclass(frozen=True)
class LoopIntegral:
    values: tuple             # one integral per cocycle
    closure_residual: float   # |tracked phi at A after the loop - phi_at_A|


def integrate_loop(cycle: TwistedCycle, N: int, spec: IntegrandSpec,
                   curve: BranchCurve, cocycles) -> LoopIntegral:
    """Sum of the segment integrals AB + BC + CA with chained branch values."""
    _require_univariate(spec)
    for c in cocycles:
        if len(c.a) != spec.npolys:
            raise ValueError(f"cocycle a = {list(c.a)} has length {len(c.a)}, "
                             f"expected one entry per f ({spec.npolys})")
    poles = singular_points(spec)
    for v in cycle.vertices:
        if np.min(np.abs(poles - v)) < POLE_GUARD_RADIUS:
            raise ValueError(f"cycle vertex {v} lies on a singularity")
    total = np.zeros(len(cocycles), dtype=np.complex128)
    y = cycle.phi_at_A
    for S, T in ((cycle.A, cycle.B), (cycle.B, cycle.C), (cycle.C, cycle.A)):
        part, values = integrate_line_segment(S, y, T, N, spec, curve,
                                              cocycles, poles)
        total += part
        y = complex(values[-1])
    closure = abs(y - cycle.phi_at_A)
    if not closure <= CLOSURE_TOL:   # NaN fails too
        raise CycleClosureError(
            f"not a twisted cycle / branch tracking failed: closure residual "
            f"{closure:.3e} exceeds {CLOSURE_TOL:.1e}")
    return LoopIntegral(values=tuple(complex(v) for v in total),
                        closure_residual=closure)


@dataclass(frozen=True)
class PairingMatrix:
    entries: tuple            # rows: cycles, columns: cocycles
    cycles: tuple
    cocycles: tuple
    nodes: int
    closure_residuals: tuple

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.complex128)


def pairing_matrix(cycles, cocycles, N: int, spec: IntegrandSpec) -> PairingMatrix:
    """Matrix of integrals I_{a(j), b(j)} over cycle i."""
    _require_univariate(spec)
    cycles = tuple(cycles)
    cocycles = tuple(cocycles)
    if not cycles or not cocycles:
        raise ValueError("need at least one cycle and one cocycle")
    curve = BranchCurve.from_spec(spec)
    rows = []
    residuals = []
    for cyc in cycles:
        loop = integrate_loop(cyc, N, spec, curve, cocycles)
        rows.append(loop.values)
        residuals.append(loop.closure_residual)
    return PairingMatrix(entries=tuple(rows), cycles=cycles,
                         cocycles=cocycles, nodes=int(N),
                         closure_residuals=tuple(residuals))


@dataclass(frozen=True)
class KernelVector:
    vector: tuple     # complex entries, largest-magnitude entry scaled to 1
    rational: tuple   # (Fraction re, Fraction im) pairs, each the nearest fraction


def _rationalize(vector):
    """Per part, the nearest fraction with denominator <= RATIONAL_MAX_DEN."""
    return tuple((Fraction(z.real).limit_denominator(RATIONAL_MAX_DEN),
                  Fraction(z.imag).limit_denominator(RATIONAL_MAX_DEN))
                 for z in vector)


def nullspace(M):
    """Right-kernel basis of the pairing matrix via SVD.

    Each nonzero column is first divided by its largest entry modulus, so that
    a column far smaller than another is not read as the kernel (unlike a
    2-norm, the modulus squares nothing that could overflow or underflow).
    Singular directions of the scaled matrix with
    sigma <= KERNEL_REL_TOL * sigma_max (directions beyond the row count count
    as sigma = 0) form the kernel.  Each basis vector is divided by the column
    scales, then scaled so its largest-magnitude entry is exactly 1.  Its
    `rational` form is, per part, the nearest fraction with denominator at
    most RATIONAL_MAX_DEN: a rounding, not a recognition.
    """
    a = M.as_array() if isinstance(M, PairingMatrix) else np.asarray(
        M, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    m, n = a.shape
    scales = np.abs(a).max(axis=0, initial=0.0)
    scales[scales == 0] = 1.0
    _, sing, vh = np.linalg.svd(a / scales)
    smax = sing[0] if len(sing) else 0.0
    out = []
    for i in range(n):
        sigma = sing[i] if i < len(sing) else 0.0
        if sigma <= KERNEL_REL_TOL * max(smax, 1e-300):
            v = vh[i].conj() / scales
            pivot = v[int(np.argmax(np.abs(v)))]
            v = v / pivot
            vec = tuple(complex(z) for z in v)
            out.append(KernelVector(vector=vec, rational=_rationalize(vec)))
    return out
