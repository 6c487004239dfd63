"""Linear relations among the shifted integrals I_{a,b}.

Two independent producers are implemented: expanding the covariant derivative
of a logarithmic (n-1)-form in the monomial cocycle basis, and translating a
degree-one annihilating differential operator of f^s through the Mellin
transform.  Both yield finite C-linear combinations sum C_{a,b} I_{a,b} = 0;
an agreement check (equality up to global scale) and a numerical verifier
against a twisted cycle complete the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._lazy import np
from .laurent import IntegrandSpec, LaurentPoly
from . import twisted as tw

ANNIHILATOR_TOL = 1e-9   # |coefficient| of s sum p_i df/dx_i + q f counted as 0


@dataclass(frozen=True)
class LogForm:
    """Logarithmic (n-1)-form sum_t g_t f^{a_t} x^{b_t} dx_{k_t hat}/x.

    Each term is (k, g, a, b): the omitted coordinate index k in 1..n, a
    Laurent polynomial g, and integer shift vectors a (length = number of f's)
    and b (length n).  For n = 1 the terms are 0-forms g f^a x^b / x.
    """

    nvars: int
    terms: tuple   # of (k, LaurentPoly, a-tuple, b-tuple)

    def __init__(self, nvars: int, terms):
        canon = []
        for k, g, a, b in terms:
            k = int(k)
            if not 1 <= k <= nvars:
                raise ValueError(f"omitted index {k} out of range 1..{nvars}")
            if g.nvars != nvars:
                raise ValueError("term polynomial has wrong variable count")
            if g.is_zero():
                continue
            canon.append((k, g, tuple(int(v) for v in a),
                          tuple(int(v) for v in b)))
        if len({len(t[2]) for t in canon}) > 1:
            raise ValueError("inconsistent f-shift lengths")
        for t in canon:
            if len(t[3]) != nvars:
                raise ValueError("x-shift length must equal nvars")
        object.__setattr__(self, "nvars", int(nvars))
        object.__setattr__(self, "terms", tuple(
            sorted(canon, key=lambda t: (t[0], t[2], t[3], sorted(t[1].terms)))))

    @classmethod
    def zero(cls, nvars: int) -> "LogForm":
        return cls(nvars, [])

    @classmethod
    def from_function(cls, g: LaurentPoly, a, b) -> "LogForm":
        """A 0-form g f^a x^b on the line, rewritten over the basis 1/x dx-hat.

        Since dx_{1 hat}/x is the function 1/x, the function g f^a x^b equals
        the term (g, a, b + 1) in this representation.
        """
        if g.nvars != 1:
            raise ValueError("from_function applies to one variable only")
        return cls(1, [(1, g, tuple(a), tuple(int(v) + 1 for v in b))])

    def __add__(self, other: "LogForm") -> "LogForm":
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        return LogForm(self.nvars, self.terms + other.terms)


@dataclass(frozen=True)
class Relation:
    """Finite C-linear combination sum C_{a,b} I_{a,b} = 0.

    Keys are (a, b) integer shift pairs; values are nonzero coefficients,
    exact ints or Fractions when every input was rational.  Two relations
    are the same statement when they differ by a global nonzero scale.
    """

    terms: tuple   # sorted ((a, b), coeff) pairs, no zero coefficients

    def __init__(self, terms):
        acc = {}
        for (a, b), c in terms:
            key = (tuple(int(v) for v in a), tuple(int(v) for v in b))
            cur = acc.get(key)
            acc[key] = c if cur is None else cur + c
        cleaned = [(k, v) for k, v in acc.items() if v != 0]
        object.__setattr__(self, "terms", tuple(sorted(cleaned)))

    def as_dict(self) -> dict:
        return dict(self.terms)

    @property
    def support(self):
        return tuple(k for k, _ in self.terms)

    @property
    def cocycles(self):
        """The cocycle f^a x^b dx/x of each term, for one variable."""
        return [tw.Cocycle(a, b[0]) for a, b in self.support]

    def is_empty(self) -> bool:
        return not self.terms

    def __add__(self, other: "Relation") -> "Relation":
        return Relation(list(self.terms) + list(other.terms))

    def scaled(self, c) -> "Relation":
        return Relation([(k, v * c) for k, v in self.terms])

    def normalize(self) -> "Relation":
        """Scale so the largest-magnitude coefficient becomes exactly 1."""
        if not self.terms:
            return self
        pivot = max((v for _, v in self.terms), key=lambda c: abs(complex(c)))
        return self.scaled(Fraction(1) / pivot)


def nabla_apply(phi: LogForm, spec: IntegrandSpec) -> Relation:
    """Expand the covariant derivative of phi in the basis f^a x^b dx/x.

    For a term g f^a x^b dx_{k hat}/x the derivative contributes, with sign
    (-1)^(k-1):
      * each monomial c x^beta of g: beta_k * c at shift (a, b + beta - e_k),
      * each monomial of (a_j + s_j) g d(f_j)/dx_k at (a - e_j, b + beta),
      * each monomial c x^beta of g: (b_k + nu_k - 1) * c at (a, b + beta - e_k).
    The first and third lines are integration by parts of d/dx_k against
    f^{s+a} x^{nu+b}; the second is the product rule through the f_j factors.
    """
    if phi.nvars != spec.nvars:
        raise ValueError("form and integrand have different variable counts")
    n = spec.nvars
    ell = spec.npolys
    out = []
    for k, g, a, b in phi.terms:
        if len(a) != ell:
            raise ValueError("f-shift length does not match the integrand")
        sign = 1 if (k - 1) % 2 == 0 else -1
        bk = tuple(v - (1 if i == k - 1 else 0) for i, v in enumerate(b))
        # derivative of g plus the x-exponent shift, both at b + beta - e_k
        for beta, c in g.terms.items():
            factor = beta[k - 1] + b[k - 1] + spec.nu[k - 1] - 1
            w = c * (factor * sign)
            if w != 0:
                out.append(((a, _vadd(bk, beta)), w))
        # f-shift part: (a_j + s_j) g df_j/dx_k, one f-division each
        for j, fj in enumerate(spec.f):
            factor = a[j] + spec.s[j]
            if factor == 0:
                continue
            prod = g * fj.partial(k)
            aj = tuple(v - (1 if i == j else 0) for i, v in enumerate(a))
            for beta, c in prod.terms.items():
                w = c * (factor * sign)
                if w != 0:
                    out.append(((aj, _vadd(b, beta)), w))
    return Relation(out)


def _vadd(b, beta):
    return tuple(x + y for x, y in zip(b, beta))


@dataclass(frozen=True)
class AnnOperator:
    """First-order operator P = sum_i p_i(x) d/dx_i + q(x) with P f^s = 0.

    Membership in the annihilator (for a single f and numeric s) is the
    polynomial identity s * sum_i p_i df/dx_i + q f = 0, which also encodes
    the division by f needed when translating P through the Mellin transform.
    """

    p: tuple     # n Laurent polynomials
    q: LaurentPoly

    def __init__(self, p, q):
        p = tuple(p)
        if not p:
            raise ValueError("need at least one coefficient polynomial")
        n = p[0].nvars
        if any(pi.nvars != n for pi in p) or q.nvars != n:
            raise ValueError("coefficient polynomials disagree on variables")
        if len(p) != n:
            raise ValueError("need exactly one p_i per variable")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def nvars(self) -> int:
        return len(self.p)

    def annihilates(self, spec: IntegrandSpec) -> bool:
        """Check s * sum_i p_i df/dx_i + q f == 0 for the single f of spec."""
        if spec.npolys != 1:
            raise ValueError("operator check requires a single f")
        f = spec.f[0]
        n = self.nvars
        acc = LaurentPoly.zero(n)
        for i, pi in enumerate(self.p):
            acc = acc + (pi * f.partial(i + 1)).scale(spec.s[0])
        acc = acc + self.q * f
        if acc.is_zero():
            return True
        return all(abs(complex(c)) <= ANNIHILATOR_TOL
                   for c in acc.terms.values())


def operator_form(P: AnnOperator) -> LogForm:
    """The (n-1)-form sum_i (-1)^(i-1) p_i dx_{i hat}/x matched to P."""
    n = P.nvars
    terms = []
    for i, pi in enumerate(P.p):
        g = pi if i % 2 == 0 else pi.scale(-1)
        terms.append((i + 1, g, (0,), (0,) * n))
    return LogForm(n, terms)


def mellin_relation(P: AnnOperator, spec: IntegrandSpec) -> Relation:
    """Relation among the I_{a,b} induced by a first-order annihilator of f^s.

    Under the Mellin transform, multiplication by x_i becomes a shift of b and
    x_i d/dx_i becomes multiplication by -nu_i; eliminating the derivative and
    dividing once by f (legitimate because the membership identity
    s sum p_i df/dx_i + q f = 0 holds) leaves
      - sum_i (nu_i - 1) p_i shifted by -e_i
      - sum_i d(p_i)/dx_i
      - s / f * sum_i p_i df/dx_i  (one f-division, shift a by -1),
    all evaluated at the fixed numeric exponents and expanded monomial by
    monomial into shifts of (a, b).
    """
    if spec.npolys != 1:
        raise ValueError("Mellin translation implemented for a single f")
    if spec.nvars != P.nvars:
        raise ValueError("operator and integrand variable counts differ")
    if not P.annihilates(spec):
        raise ValueError("operator does not annihilate f^s")
    n = spec.nvars
    f = spec.f[0]
    out = []
    for i, pi in enumerate(P.p):
        # (nu_i - 1) p_i, with shift b -> b + beta - e_i
        factor = spec.nu[i] - 1
        for beta, c in pi.terms.items():
            w = c * factor
            if w != 0:
                shifted = tuple(v - (1 if j == i else 0)
                                for j, v in enumerate(beta))
                out.append((((0,), shifted), -w))
        # d(p_i)/dx_i
        for beta, c in pi.partial(i + 1).terms.items():
            out.append((((0,), beta), -c))
        # s * p_i df/dx_i with a single division by f
        prod = pi * f.partial(i + 1)
        for beta, c in prod.terms.items():
            w = c * spec.s[0]
            if w != 0:
                out.append((((-1,), beta), -w))
    return Relation(out)


def relations_agree(r1: Relation, r2: Relation, tol: float = 1e-9) -> bool:
    """True iff the relations have equal support and parallel coefficients."""
    s1, s2 = r1.support, r2.support
    if s1 != s2:
        return False
    if not s1:
        return True
    c1 = np.array([complex(v) for _, v in r1.terms])
    c2 = np.array([complex(v) for _, v in r2.terms])
    scale = max(np.max(np.abs(c1)), np.max(np.abs(c2)))
    minors = c1[:, None] * c2[None, :] - c1[None, :] * c2[:, None]
    return bool(np.max(np.abs(minors)) <= tol * scale * scale)


def residual(r: Relation, integrals) -> complex:
    """sum C_{a,b} I_{a,b} on one cycle, where integrals[Cocycle(a, b)] = I_{a,b}."""
    return complex(sum(complex(c) * integrals[coc]
                       for coc, (_, c) in zip(r.cocycles, r.terms)))


def verify_numeric(r: Relation, cycle: tw.TwistedCycle, spec: IntegrandSpec,
                   N: int = tw.DEFAULT_NODES) -> complex:
    """`residual` of r on the pairing matrix of one cycle with r's cocycles."""
    if r.is_empty():
        return 0j
    M = tw.pairing_matrix([cycle], r.cocycles, N, spec)
    return residual(r, dict(zip(M.cocycles, M.entries[0])))
