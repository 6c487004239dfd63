"""Hypergeometric structure attached to the integrand's support.

The supports of the f_j, stacked with block indicator rows, form an integer
configuration matrix A whose columns index coefficients of the polynomials.
This module computes the integer kernel lattice of A (binomial relations),
renders the Euler operators A*theta - kappa, tests the parameters for
resonance facet by facet, and bounds the dimension by the normalized volume
of the convex hull of the columns with the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import intlinalg as ila
from . import polytope
from .laurent import IntegrandSpec


@dataclass(frozen=True)
class CayleyConfig:
    """Columns (alpha, e_j) for alpha in supp(f_j), with kappa = (-nu, s)."""

    matrix: tuple      # rows of the (n + ell) x (#columns) integer matrix
    blocks: tuple      # per column: which f_j it belongs to (0-based)
    kappa: tuple       # length n + ell, entries numeric (or Fraction)
    nvars: int
    npolys: int

    @property
    def ncols(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def columns(self):
        return [tuple(row[c] for row in self.matrix) for c in range(self.ncols)]


def cayley_matrix(spec: IntegrandSpec) -> CayleyConfig:
    """Configuration matrix with columns ordered by block, then by exponent."""
    n = spec.nvars
    ell = spec.npolys
    cols = []
    blocks = []
    for j, fj in enumerate(spec.f):
        for alpha in sorted(fj.support()):
            cols.append(tuple(alpha) + tuple(
                1 if i == j else 0 for i in range(ell)))
            blocks.append(j)
    matrix = tuple(tuple(col[r] for col in cols) for r in range(n + ell))
    kappa = tuple(_negate(v) for v in spec.nu) + tuple(spec.s)
    return CayleyConfig(matrix=matrix, blocks=tuple(blocks), kappa=kappa,
                        nvars=n, npolys=ell)


def _negate(v):
    if isinstance(v, (int, float, Fraction)):
        return -v
    return -complex(v)


@dataclass(frozen=True)
class LatticeBasis:
    vectors: tuple     # integer vectors u with A u = 0
    disclaimer: str = ("lattice-basis binomials only; the full toric ideal "
                       "may require saturation")


def lattice_kernel(cfg: CayleyConfig) -> LatticeBasis:
    """Basis of the integer kernel of the configuration matrix (exact)."""
    m = [list(row) for row in cfg.matrix]
    basis = ila.kernel_basis(m)
    return LatticeBasis(vectors=tuple(tuple(v) for v in basis))


def _format_coefficient(c) -> str:
    if c == 1:
        return ""
    if isinstance(c, Fraction) and c.denominator == 1:
        return str(c.numerator)
    return str(c)


def _format_kappa_entry(value, symbol) -> str:
    """Render the constant part, symbolically when no numeric value is given."""
    if value is None:
        return symbol
    z = complex(value)
    if z == 0:
        return "0"
    if z.imag == 0:
        return repr(z.real) if z.real != int(z.real) else str(int(z.real))
    return repr(z)


def euler_operators(cfg: CayleyConfig, symbolic: bool = True):
    """Text form of the operators sum_c A[i][c]*theta_{c+1} - kappa_i.

    With symbolic=True the kappa entries are rendered as nu_1..nu_n, s_1..s_ell
    (the operators are A*theta + nu over the first n rows and A*theta - s over
    the rest); otherwise the stored numeric kappa is substituted.  The kernel
    binomials d^{u+} - d^{u-} are appended, with an explicit disclaimer that
    they generate the lattice but are not saturated.
    """
    n, ell = cfg.nvars, cfg.npolys
    lines = []
    for i, row in enumerate(cfg.matrix):
        parts = []
        for c, a in enumerate(row):
            if a == 0:
                continue
            parts.append(f"{_format_coefficient(a)}theta{c + 1}")
        body = " + ".join(parts) if parts else "0"
        if symbolic:
            const = f"nu{i + 1}" if i < n else f"s{i - n + 1}"
            # kappa_i = -nu_i for the first n rows, s_j afterwards
            tail = f" + {const}" if i < n else f" - {const}"
        else:
            kap = cfg.kappa[i]
            rendered = _format_kappa_entry(kap, "")
            tail = "" if rendered == "0" else f" - ({rendered})"
        lines.append(body + tail)
    binomials = []
    for u in lattice_kernel(cfg).vectors:
        plus = "*".join(f"d{i + 1}" + (f"^{v}" if v > 1 else "")
                        for i, v in enumerate(u) if v > 0) or "1"
        minus = "*".join(f"d{i + 1}" + (f"^{-v}" if v < -1 else "")
                         for i, v in enumerate(u) if v < 0) or "1"
        binomials.append(f"{plus} - {minus}")
    return {"euler": lines, "binomials": binomials,
            "disclaimer": LatticeBasis.disclaimer}


@dataclass(frozen=True)
class ResonanceCertificate:
    facet_normal: tuple
    pairing_subgroup: int       # generator g of {u_F . alpha_c} over the columns
    kappa_pairing: object       # u_F . kappa
    resonant: bool


@dataclass(frozen=True)
class ResonanceReport:
    nonresonant: bool
    certificates: tuple
    lattice_rank: int


def is_nonresonant(cfg: CayleyConfig, tol: float = 1e-9) -> ResonanceReport:
    """Facet-by-facet resonance test for the parameter vector kappa.

    For each facet of the cone over the columns, with primitive inner normal
    u_F, kappa is resonant along that facet iff u_F . kappa lies in the
    subgroup of the integers generated by the pairings u_F . alpha_c.  Exact
    for rational kappa; distance tolerance `tol` for float entries.
    """
    cols = cfg.columns()
    rank = ila.rank([list(c) for c in cols])
    pts = polytope.LatticePointSet(cfg.nvars + cfg.npolys, cols)
    certs = []
    all_good = True
    for u in polytope.facets(pts):
        g = 0
        for c in cols:
            g = gcd(g, abs(sum(a * b for a, b in zip(u, c))))
        pairing = sum(_mul(a, b) for a, b in zip(u, cfg.kappa))
        resonant = _in_subgroup(pairing, g, tol)
        certs.append(ResonanceCertificate(
            facet_normal=tuple(u), pairing_subgroup=g,
            kappa_pairing=pairing, resonant=resonant))
        all_good = all_good and not resonant
    return ResonanceReport(nonresonant=all_good, certificates=tuple(certs),
                           lattice_rank=rank)


def _mul(a, b):
    if isinstance(b, (int, Fraction)):
        return a * b
    return a * complex(b)


def _in_subgroup(value, g: int, tol: float) -> bool:
    """Whether value lies in g*Z (g = 0 means the trivial subgroup {0})."""
    if isinstance(value, (int, Fraction)):
        if g == 0:
            return value == 0
        return Fraction(value) % g == 0
    z = complex(value)
    if abs(z.imag) > tol:
        return False
    if g == 0:
        return abs(z.real) <= tol
    return abs(z.real / g - round(z.real / g)) * g <= tol


def rank_bound(cfg: CayleyConfig) -> int:
    """Generic dimension bound: normalized volume of conv({0} and columns)."""
    pts = polytope.LatticePointSet(cfg.nvars + cfg.npolys, cfg.columns())
    return polytope.normalized_volume(pts).normalized_volume
