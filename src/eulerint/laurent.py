"""Sparse multivariate Laurent polynomials over C and the log-derivative form.

Coefficients may be ints, Fractions, floats, or complex numbers.  Arithmetic
on int/Fraction inputs stays exact; `evaluate` always returns a complex number.
Values are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from ._lazy import np

TABLE_ENTRIES = 2 ** 20  # most rows x monomials x variables of one power table


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LaurentPoly:
    """A finite map from integer exponent vectors to nonzero coefficients."""

    __slots__ = ("nvars", "terms", "_cache")

    def __init__(self, nvars: int, terms: Mapping[tuple, object]):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        clean = {}
        for exp, c in terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} has wrong length for nvars={nvars}")
            if c != 0:
                clean[exp] = clean.get(exp, 0) + c if exp in clean else c
        clean = {e: c for e, c in clean.items() if c != 0}
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, exp: Iterable[int], c=1) -> "LaurentPoly":
        exp = tuple(int(e) for e in exp)
        return cls(len(exp), {exp: c})

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if self.nvars != other.nvars:
            raise ValueError("nvars mismatch")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) + c
        return LaurentPoly(self.nvars, t)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = t.get(e, 0) + c1 * c2
        return LaurentPoly(self.nvars, t)

    def scale(self, c) -> "LaurentPoly":
        if c == 0:
            return LaurentPoly.zero(self.nvars)
        return LaurentPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def shift(self, exp: Iterable[int]) -> "LaurentPoly":
        """Multiply by the monomial x^exp."""
        exp = tuple(int(e) for e in exp)
        return LaurentPoly(self.nvars, {tuple(a + b for a, b in zip(e, exp)): c
                                        for e, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"LaurentPoly({self.nvars}, {format_poly(self)!r})"

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def support(self):
        return sorted(self.terms.keys())

    def min_exponents(self):
        """Per-variable minimum exponent over the support (0 for the zero poly)."""
        if not self.terms:
            return (0,) * self.nvars
        return tuple(min(e[i] for e in self.terms) for i in range(self.nvars))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def has_negative_exponents(self) -> bool:
        return any(x < 0 for e in self.terms for x in e)

    # -- calculus and evaluation -------------------------------------------

    def partial(self, i: int) -> "LaurentPoly":
        """Formal partial derivative with respect to variable i (1-based)."""
        if not 1 <= i <= self.nvars:
            raise ValueError(f"variable index {i} out of range 1..{self.nvars}")
        k = i - 1
        t = {}
        for e, c in self.terms.items():
            if e[k] == 0:
                continue
            ne = tuple(x - 1 if j == k else x for j, x in enumerate(e))
            t[ne] = t.get(ne, 0) + e[k] * c
        return LaurentPoly(self.nvars, t)

    def _tables(self, gradient):
        """The power table (`power_table`) of f, or with `gradient` that of f,
        d_1 f, ..., d_n f; and the variables with a negative exponent.

        Each table is built on first use.
        """
        cache = self._cache
        if gradient not in cache:
            polys = [self] + ([self.partial(i + 1) for i in range(self.nvars)]
                              if gradient else [])
            cache[gradient] = (power_table(polys),
                               np.flatnonzero(np.array(self.min_exponents()) < 0))
        return cache[gradient]

    def _dot(self, x, gradient=False, modulus=False):
        """Each polynomial of a power table dotted with the powers x^e.

        The table is f's, or with `gradient` that of f and its partials.  A
        point (n,) is taken as a batch of one row; the result has x's leading
        shape and one entry per polynomial: (k,) at a point, (P, k) on a batch
        (P, n).  With `modulus`, |c| |x^e| replaces c x^e.  Per row slice,
        one stacked matmul (k, rows, w) @ (k, w, 1) dots every block.
        """
        x = np.asarray(x, dtype=np.complex128)
        if x.ndim not in (1, 2) or x.shape[-1] != self.nvars:
            raise ValueError(f"point has dimension {x.shape}, expected "
                             f"({self.nvars},) or (P, {self.nvars})")
        (exps, coeffs, moduli), negative = self._tables(gradient)
        if len(negative) and (x[..., negative] == 0).any():
            i = int(negative[np.nonzero(x[..., negative] == 0)[-1][0]])
            raise ZeroDivisionError(f"coordinate {i + 1} is zero but appears "
                                    "with negative exponent")
        weights = (moduli if modulus else coeffs)[:, :, None]
        points = x.reshape(-1, self.nvars)
        out = np.empty((len(points), len(weights)), dtype=weights.dtype)
        for rows, mon in power_rows(points, exps):
            if modulus:
                mon = np.abs(mon)
            blocks = mon.reshape(len(mon), *coeffs.shape).swapaxes(0, 1)
            out[rows] = (blocks @ weights)[..., 0].T
        return out.reshape(x.shape[:-1] + (len(weights),))

    def evaluate(self, x):
        """Evaluate at a point of shape (n,), or at each row of a batch (P, n).

        A point gives a complex number, a batch a complex array of shape (P,).
        A zero in a variable with a negative exponent raises ZeroDivisionError.
        """
        values = self._dot(x)[..., 0]
        return complex(values) if values.ndim == 0 else values

    def value_and_gradient(self, x):
        """f, d_1 f, ..., d_n f on the last axis: shape (n + 1,) or (P, n + 1).

        One power table over the stacked exponents serves all of them.  At a
        point, f's entry equals `evaluate` bit for bit.  A partial's block is
        padded to f's term count, so its entry may differ in the last bits
        once f has 8 terms or more, which OpenBLAS sums in SIMD blocks.
        """
        return self._dot(x, gradient=True)

    def magnitude(self, x):
        """Sum of |c_k| |x^{e_k}| over the terms, the scale of rounding in f(x).

        A point gives a float, a batch a float array of shape (P,).
        """
        return self._dot(x, modulus=True)[..., 0][()]


def slice_rows(exps):
    """The most rows of one slice of `power_rows` over the exponents `exps`."""
    return max(1, TABLE_ENTRIES // max(1, exps.size))


def power_rows(points, exps):
    """Yield (rows, table) over row slices of a batch of points (P, n).

    `table` holds the monomial x^e of each point x of the slice `rows` for
    each exponent e in `exps` (m, n), built as the running product over k of
    x_k^{e_k}.  A slice has at most `slice_rows(exps)`, TABLE_ENTRIES // (m n),
    rows, so a batch of any size takes bounded memory.
    """
    step = slice_rows(exps)
    for lo in range(0, len(points), step):
        x = points[lo:lo + step]
        table = x[:, :1] ** exps[:, 0]
        for k in range(1, exps.shape[1]):
            # np.multiply, not `*=` or `*`: numpy runs a one-entry product in
            # place as a reduction, and `*` multiplies into a large temporary
            # with the operands swapped; either would make a row's last bit
            # depend on the table's size
            table = np.multiply(table, x[:, k:k + 1] ** exps[:, k])
        yield slice(lo, lo + step), table


def power_table(polys):
    """The one power table of `polys`, which share nvars, and its coefficients.

    Polynomial i's block holds its terms in sorted order, then terms of
    exponent 0 and coefficient 0 up to w, the most terms of any of them.
    Returns the exponents of the k blocks (k w, n), cast to the complex dtype
    they are raised in, and the complex coefficients and their moduli (k, w).
    """
    n = polys[0].nvars
    terms = [sorted(p.terms.items()) for p in polys]
    w = max(map(len, terms))
    rows = [term for t in terms for term in t + [((0,) * n, 0)] * (w - len(t))]
    # through int64, so an exponent beyond it raises OverflowError, not rounds
    exps = np.array([e for e, _ in rows], dtype=np.int64).reshape(-1, n)
    coeffs = np.array([complex(c) for _, c in rows],
                      dtype=np.complex128).reshape(len(polys), w)
    return exps.astype(np.complex128), coeffs, np.abs(coeffs)


@dataclass(frozen=True)
class IntegrandSpec:
    """The family data (f_1..f_l, s, nu) behind the multivalued integrand f^s x^nu."""

    f: tuple
    s: tuple
    nu: tuple

    def __init__(self, f, s, nu):
        f = tuple(f)
        if len(f) < 1:
            raise ValueError("need at least one polynomial")
        n = f[0].nvars
        for p in f:
            if p.nvars != n:
                raise ValueError("all polynomials must share the same nvars")
            if p.is_zero():
                raise ValueError("zero polynomial not allowed")
            if p.is_monomial():
                raise ValueError("monomial (unit) polynomial not allowed")
        s = tuple(s)
        nu = tuple(nu)
        if len(s) != len(f):
            raise ValueError(f"s has length {len(s)}, expected {len(f)}")
        if len(nu) != n:
            raise ValueError(f"nu has length {len(nu)}, expected {n}")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "nu", nu)

    @property
    def nvars(self) -> int:
        return self.f[0].nvars

    @property
    def npolys(self) -> int:
        return len(self.f)


class OutsideDomainError(ValueError):
    """Raised when a point lies on V(f) or a coordinate hyperplane."""


def omega_components(spec: IntegrandSpec, x) -> np.ndarray:
    """Components of dlog(f^s x^nu): sum_j s_j (d_i f_j)/f_j + nu_i/x_i.

    x is a point of shape (n,) or a batch of points (P, n); the result has the
    same shape.  Every point must lie off V(f) and the coordinate hyperplanes.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = spec.nvars
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise ValueError(f"point has dimension {x.shape}, expected ({n},) "
                         f"or (P, {n})")
    if np.any(x == 0):
        raise OutsideDomainError("point has a zero coordinate")
    grads = [p.value_and_gradient(x) for p in spec.f]
    if any(np.any(g[..., 0] == 0) for g in grads):
        raise OutsideDomainError("point lies on the vanishing locus of f")
    out = sum(complex(sj) * g[..., 1:] / g[..., :1]
              for sj, g in zip(spec.s, grads))
    return out + np.array([complex(v) for v in spec.nu]) / x


# -- text grammar ----------------------------------------------------------
#
# terms joined by +/-; term = [coefficient][*]monomials, each * between a
# coefficient or monomial and a var; monomial = var^int (negative allowed); variables x1..xn, aliases x,y,z
# for nvars <= 3.

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<sign>[+-])
  | (?P<cpx>\([^)]*\))
  | (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?(?:/\d+)?)
  | (?P<var>x\d+|[xyz])
  | (?P<caret>\^)
  | (?P<star>\*)
""", re.VERBOSE)

_ALIAS = {"x": 1, "y": 2, "z": 3}


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return out


def _parse_number(tok, pos):
    if "/" in tok:
        num, den = tok.split("/")
        if int(den) == 0:
            raise ParseError("zero denominator", pos)
        if "." in num or "e" in num or "E" in num:
            return float(num) / float(den)
        return Fraction(int(num), int(den))
    if "." in tok or "e" in tok or "E" in tok:
        return float(tok)
    return int(tok)


def _parse_complex(tok, pos):
    try:
        return complex(tok.strip("()").replace(" ", ""))
    except ValueError:
        raise ParseError(f"bad complex coefficient {tok!r}", pos) from None


def parse_poly(text: str, nvars: int | None = None) -> LaurentPoly:
    """Parse the text grammar into a LaurentPoly.

    When nvars is omitted it is inferred from the largest variable index used
    (at least 1).
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    terms = []  # (coeff, {varindex: exponent})
    i = 0
    maxvar = 1
    while i < len(tokens):
        if terms and tokens[i][0] != "sign":
            raise ParseError("expected + or - before a term", tokens[i][2])
        sign = 1
        while i < len(tokens) and tokens[i][0] == "sign":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise ParseError("dangling sign", tokens[-1][2])
        coeff = 1
        seen_any = False
        if tokens[i][0] == "num":
            coeff = _parse_number(tokens[i][1], tokens[i][2])
            i += 1
            seen_any = True
        elif tokens[i][0] == "cpx":
            coeff = _parse_complex(tokens[i][1], tokens[i][2])
            i += 1
            seen_any = True
        exps = {}
        while i < len(tokens) and tokens[i][0] in ("star", "var"):
            if tokens[i][0] == "star":
                if not seen_any:
                    raise ParseError("expected a coefficient or variable "
                                     "before '*'", tokens[i][2])
                i += 1
                if i >= len(tokens) or tokens[i][0] != "var":
                    raise ParseError("expected a variable after '*'",
                                     tokens[i][2] if i < len(tokens) else len(text))
                continue
            name = tokens[i][1]
            vpos = tokens[i][2]
            vidx = _ALIAS[name] if name in _ALIAS else int(name[1:])
            if vidx < 1:
                raise ParseError(f"bad variable {name!r}", vpos)
            maxvar = max(maxvar, vidx)
            i += 1
            e = 1
            if i < len(tokens) and tokens[i][0] == "caret":
                i += 1
                esign = 1
                if i < len(tokens) and tokens[i][0] == "sign":
                    esign = -1 if tokens[i][1] == "-" else 1
                    i += 1
                if i >= len(tokens) or tokens[i][0] != "num" or not tokens[i][1].isdigit():
                    raise ParseError("expected integer exponent",
                                     tokens[i][2] if i < len(tokens) else len(text))
                e = esign * int(tokens[i][1])
                i += 1
            exps[vidx] = exps.get(vidx, 0) + e
            seen_any = True
        if not seen_any:
            raise ParseError("expected a term", tokens[i][2])
        terms.append((sign * coeff if sign < 0 else coeff, exps))
    n = nvars if nvars is not None else maxvar
    if maxvar > n:
        raise ParseError(f"variable index {maxvar} exceeds nvars={n}", 0)
    tmap = {}
    for coeff, exps in terms:
        key = tuple(exps.get(v + 1, 0) for v in range(n))
        tmap[key] = tmap.get(key, 0) + coeff
    return LaurentPoly(n, tmap)


def _grlex_key(exp):
    return (sum(exp), exp)


def _format_coeff(c):
    if isinstance(c, complex):
        if c.imag == 0:
            c = c.real
        else:
            return f"({c.real:+g}{c.imag:+g}j)".replace("(+", "(")
    if isinstance(c, Fraction):
        return str(c)
    if isinstance(c, float) and c.is_integer():
        return str(int(c))
    return str(c)


def format_poly(p: LaurentPoly) -> str:
    """Canonical text rendering: graded-lex descending term order."""
    if not p.terms:
        return "0"
    names = (["x", "y", "z"][: p.nvars] if p.nvars <= 3
             else [f"x{i + 1}" for i in range(p.nvars)])
    parts = []
    for exp in sorted(p.terms, key=_grlex_key, reverse=True):
        c = p.terms[exp]
        mono = "*".join(f"{names[i]}^{e}" if e != 1 else names[i]
                        for i, e in enumerate(exp) if e != 0)
        neg = False
        if not isinstance(c, complex) and c < 0:
            neg = True
            c = -c
        cs = _format_coeff(c)
        if mono and cs == "1":
            body = mono
        elif mono:
            body = f"{cs}*{mono}"
        else:
            body = cs
        parts.append(("- " if neg else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]

