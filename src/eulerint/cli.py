"""Command-line interface: JSON problem files in, JSON results out.

Subcommands: chi (critical-point count / Euler characteristic), vol
(normalized volume of the support polytope), integrate (pairing matrix over
twisted cycles), relations (symbolic and numeric linear relations), gkz
(configuration matrix, kernel lattice, Euler operators, resonance test).

Exit codes: 0 success, 3 invalid input, 2 numerical failure.  `main` alone
maps a failure to its code: ValueError (InputError among them),
OverflowError and FloatingPointError are the input's fault (3); RuntimeError,
and with it NotImplementedError, SegmentError and CycleClosureError, is a
numerical failure (2).  Any other exception is a bug and propagates.  An
--out path that cannot be written is invalid input, reported on stdout.

Parsing needs only `laurent`.  Each command imports the modules it calls
where it calls them, so `vol` never loads `critical` or `twisted`, and an
input refused at parse time loads none of them.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from fractions import Fraction
from importlib import import_module

from .laurent import IntegrandSpec, LaurentPoly, ParseError, parse_poly


class InputError(ValueError):
    """Problem-file validation failure (exit code 3)."""


# -- problem file parsing ---------------------------------------------------

def finite(v) -> bool:
    """Whether the number v is finite as a (complex) float."""
    try:
        return cmath.isfinite(complex(v))
    except OverflowError:   # an int or Fraction beyond the float range
        return False


def parse_scalar(v, what="number"):
    """Accept finite int, float, "p/q" strings, and [re, im] pairs."""
    if isinstance(v, bool):
        raise InputError(f"{what}: booleans are not numbers")
    if isinstance(v, (list, tuple)) and len(v) == 2:
        if any(isinstance(u, (list, tuple)) for u in v):
            raise InputError(f"{what}: the parts of [re, im] must be real, "
                             f"got {v!r}")
        re, im = (parse_scalar(u, what) for u in v)
        return complex(float(re), float(im))
    if isinstance(v, str):
        try:
            value = Fraction(v)
        except ZeroDivisionError:
            raise InputError(f"{what}: bad rational {v!r}: zero denominator") from None
        except ValueError as exc:
            raise InputError(f"{what}: bad rational {v!r}: {exc}") from None
    elif isinstance(v, (int, float)):
        value = v
    else:
        raise InputError(f"{what}: expected int, float, \"p/q\", or [re, im], "
                         f"got {v!r}")
    if not finite(value):
        raise InputError(f"{what}: {v!r} is not a finite float")
    return value


def parse_integer(v, what):
    """Accept an int or an integral float; reject bools, strings and fractions."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise InputError(f"{what}: expected an integer, got {v!r}")


def parse_exponents(exp):
    if not isinstance(exp, (list, tuple)):
        raise InputError(f"exponent vector: expected a list, got {exp!r}")
    return tuple(parse_integer(e, "exponent") for e in exp)


def parse_polynomial(v, nvars=None):
    if isinstance(v, str):
        try:
            poly = parse_poly(v, nvars)
        except ParseError as exc:
            raise InputError(f"bad polynomial {v!r}: {exc}") from None
    elif isinstance(v, list):
        # term list: [[exp...], coeff] pairs; a repeated exponent adds up
        terms = {}
        for item in v:
            if not (isinstance(item, (list, tuple)) and len(item) == 2):
                raise InputError(f"bad term {item!r}: expected [[exp..], coeff]")
            exp, c = parse_exponents(item[0]), parse_scalar(item[1], "coefficient")
            terms[exp] = terms[exp] + c if exp in terms else c
        if not terms:
            raise InputError("empty term list")
        try:
            poly = LaurentPoly(len(next(iter(terms))), terms)
        except ValueError as exc:
            raise InputError(f"bad polynomial {v!r}: {exc}") from None
    else:
        raise InputError(f"bad polynomial entry {v!r}")
    # text can spell 1e400 or NaN, and equal terms add up
    if not all(finite(c) for c in poly.terms.values()):
        raise InputError(f"bad polynomial {v!r}: a coefficient is not a finite float")
    return poly


def load_problem(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise InputError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise InputError("problem file must be a JSON object")
    return obj


def list_field(obj: dict, key: str, default=(), objects=False) -> list:
    """The list obj[key], or `default` when absent; with `objects`, of JSON objects."""
    value = obj.get(key, list(default))
    if not isinstance(value, list):
        raise InputError(f"\"{key}\" must be a list, got {value!r}")
    if objects and not all(isinstance(item, dict) for item in value):
        raise InputError(f"\"{key}\" must be a list of objects, got {value!r}")
    return value


def build_spec(obj: dict) -> IntegrandSpec:
    try:
        raw = obj["f"]
    except KeyError:
        raise InputError("problem file needs an \"f\" entry") from None
    if not isinstance(raw, list) or not raw:
        raise InputError("\"f\" must be a nonempty list of polynomials")
    # the common variable count is the largest; shorter entries are padded
    polys = [parse_polynomial(p) for p in raw]
    nvars = max(q.nvars for q in polys)
    polys = [q if q.nvars == nvars else
             LaurentPoly(nvars, {tuple(e) + (0,) * (nvars - q.nvars): c
                                 for e, c in q.terms.items()})
             for q in polys]
    s = [parse_scalar(v, "s") for v in list_field(obj, "s", ["1/2"] * len(polys))]
    nu = [parse_scalar(v, "nu") for v in list_field(obj, "nu", ["1/2"] * nvars)]
    return IntegrandSpec(polys, s, nu)


def differentiable_spec(obj: dict) -> IntegrandSpec:
    """build_spec, with the coefficients e_i c of each d_i f_j in the float range."""
    spec = build_spec(obj)
    if not all(finite(k * c) for fj in spec.f for e, c in fj.terms.items()
               for k in e):
        raise InputError("a coefficient of a derivative of f is beyond the float range")
    return spec


def build_cycles(obj: dict, spec: IntegrandSpec):
    from . import twisted
    cycles = []
    for item in list_field(obj, "cycles", objects=True):
        try:
            A = complex(parse_scalar(item["A"], "A"))
            B = complex(parse_scalar(item["B"], "B"))
            C = complex(parse_scalar(item["C"], "C"))
        except KeyError as exc:
            raise InputError(f"cycle missing vertex {exc}") from None
        phi = item.get("phi", "principal")
        if phi == "principal":
            try:
                phi = twisted.principal_branch_value(spec, A)
            except ValueError:   # log of 0: A is a root of x * prod f_j
                raise InputError(f"cycle vertex {A} lies on a singularity") from None
            except OverflowError:
                raise InputError(f"the principal branch value at {A} is beyond "
                                 "the float range") from None
        else:
            phi = complex(parse_scalar(phi, "phi"))
        cycles.append(twisted.TwistedCycle(A, B, C, phi))
    return cycles


def build_cocycles(obj: dict):
    from . import twisted
    out = []
    for item in list_field(obj, "cocycles", objects=True):
        try:
            out.append(twisted.Cocycle(parse_exponents(item["a"]),
                                       parse_integer(item["b"], "b")))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad cocycle {item!r}: {exc}") from None
    return out


def build_forms(obj: dict, spec: IntegrandSpec):
    forms = []
    for item in list_field(obj, "forms", objects=True):
        try:
            forms.append(_build_form(item, spec))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad form {item!r}: {exc}") from None
    return forms


def _build_form(item: dict, spec: IntegrandSpec):
    from . import relations
    if "function" in item:
        g = parse_polynomial(item["function"], spec.nvars)
        return relations.LogForm.from_function(
            g, parse_exponents(item.get("a", [0] * spec.npolys)),
            parse_exponents(item.get("b", [0] * spec.nvars)))
    terms = []
    for t in list_field(item, "terms", objects=True):
        g = parse_polynomial(t["g"], spec.nvars)
        terms.append((parse_integer(t.get("k", 1), "k"), g,
                      parse_exponents(t.get("a", [0] * spec.npolys)),
                      parse_exponents(t.get("b", [0] * spec.nvars))))
    return relations.LogForm(spec.nvars, terms)


def build_operators(obj: dict, spec: IntegrandSpec):
    from . import relations
    ops = []
    for item in list_field(obj, "operators", objects=True):
        try:
            p = [parse_polynomial(v, spec.nvars) for v in list_field(item, "p")]
            q = parse_polynomial(item["q"], spec.nvars)
        except KeyError as exc:
            raise InputError(f"operator missing field {exc}") from None
        try:
            ops.append(relations.AnnOperator(p, q))
        except ValueError as exc:
            raise InputError(f"bad operator {item!r}: {exc}") from None
    return ops


# least value of each integer setting, and the module and constant that cap it
LIMITS = {"nodes": (2, "twisted", "MAX_NODES"),
          "draws": (1, "critical", "MAX_DRAWS")}


def in_limits(key: str, n: int) -> int:
    """n if it lies within LIMITS[key]."""
    least, module, cap = LIMITS[key]
    most = getattr(import_module(f".{module}", __package__), cap)
    if n < least:
        raise InputError(f"{key}: need at least {least}, got {n}")
    if n > most:
        raise InputError(f"{key}: at most {module}.{cap} = {most}, got {n}")
    return n


def setting(obj: dict, key: str, default) -> int:
    """Integer settings.<key> of the problem file, within LIMITS[key]."""
    settings = obj.get("settings", {})
    if not isinstance(settings, dict):
        raise InputError("\"settings\" must be a JSON object")
    return in_limits(key, parse_integer(settings.get(key, default), key))


def node_count(obj: dict, args) -> int:
    """Quadrature nodes per segment: --nodes, else settings.nodes, else the default."""
    from . import twisted
    if args.nodes is None:
        return setting(obj, "nodes", twisted.DEFAULT_NODES)
    return in_limits("nodes", args.nodes)


# -- serialization ----------------------------------------------------------

def jnum(z):
    """Complex values as [re, im], even when real; other scalars as numbers."""
    if isinstance(z, complex):
        return [z.real, z.imag]
    return z if isinstance(z, int) else float(z)


def kernel_to_json(kernel):
    return [{"vector": [jnum(z) for z in k.vector],
             "rational": [[str(re), str(im)] for re, im in k.rational]}
            for k in kernel]


def relation_to_json(r):
    """The terms of a relations.Relation as JSON objects."""
    if not all(finite(c) for _, c in r.terms):
        raise InputError("a relation coefficient is beyond the float range")
    return [{"a": list(a), "b": list(b),
             "re": float(complex(c).real), "im": float(complex(c).imag)}
            for (a, b), c in r.terms]


def emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text, flush=True)


# -- subcommands ------------------------------------------------------------

def cmd_chi(obj: dict, args) -> dict:
    from . import critical
    spec = build_spec(obj)
    settings = critical.TrackerSettings(seed=args.seed)
    draws = setting(obj, "draws", 2)
    chi, count, certified = critical.euler_characteristic(spec, settings,
                                                          draws=draws)
    return {"chi": chi, "count": count, "certified": certified,
            "draws": draws, "seed": args.seed}


def cmd_vol(obj: dict, args) -> dict:
    from . import polytope
    spec = build_spec(obj)
    pts = polytope.cayley_support(spec)
    rep = polytope.normalized_volume(pts)
    return {"normalized_volume": rep.normalized_volume,
            "affine_dim": rep.affine_dim,
            "lattice_index_note": rep.lattice_index_note,
            "points": [list(p) for p in pts.points],
            "seed": args.seed}


def cmd_integrate(obj: dict, args) -> dict:
    from . import twisted
    spec = differentiable_spec(obj)
    cycles = build_cycles(obj, spec)
    cocycles = build_cocycles(obj)
    if not cycles or not cocycles:
        raise InputError("integrate needs \"cycles\" and \"cocycles\"")
    N = node_count(obj, args)
    M = twisted.pairing_matrix(cycles, cocycles, N, spec)
    return {"matrix": [[jnum(z) for z in row] for row in M.entries],
            "cocycles": [{"a": list(c.a), "b": c.b} for c in M.cocycles],
            "nodes": M.nodes,
            "closure_residuals": list(M.closure_residuals),
            "kernel": kernel_to_json(twisted.nullspace(M)),
            "seed": args.seed}


def cmd_relations(obj: dict, args) -> dict:
    from . import relations, twisted
    spec = differentiable_spec(obj)
    forms = build_forms(obj, spec)
    operators = build_operators(obj, spec)
    produced = ([("form", relations.nabla_apply(phi, spec)) for phi in forms]
                + [("operator", relations.mellin_relation(P, spec))
                   for P in operators])
    # before the agreement test, which takes the coefficients as floats
    rels = [{"source": source, "terms": relation_to_json(r)}
            for source, r in produced]
    agreement = [{"i": i, "j": j, "agree": relations.relations_agree(
                      produced[i][1], produced[j][1],
                      tol=1e-9 if args.tol is None else args.tol)}
                 for i in range(len(produced))
                 for j in range(i + 1, len(produced))]
    out = {"relations": rels, "agreement": agreement, "seed": args.seed}

    cycles = build_cycles(obj, spec)
    cocycles = build_cocycles(obj)
    N = node_count(obj, args) if cycles else None
    # one pairing pass per cycle; the kernel and the residuals read its columns
    checked = produced if cycles else []
    columns = dict.fromkeys(cocycles + [c for _, r in checked for c in r.cocycles])
    M = (twisted.pairing_matrix(cycles, list(columns), N, spec)
         if cycles and columns else None)
    rows = ([dict(zip(M.cocycles, row)) for row in M.entries] if M
            else [{}] * len(cycles))
    if cycles and cocycles:
        out["kernel"] = kernel_to_json(twisted.nullspace(
            [[row[c] for c in cocycles] for row in rows]))
    if checked:
        out["residuals"] = [{"source": source, "residuals": [
            abs(relations.residual(r, row)) for row in rows]} for source, r in checked]
    return out


def cmd_gkz(obj: dict, args) -> dict:
    from . import gkz
    spec = build_spec(obj)
    cfg = gkz.cayley_matrix(spec)
    kernel = gkz.lattice_kernel(cfg)
    ops = gkz.euler_operators(cfg)
    report = gkz.is_nonresonant(cfg, tol=1e-9 if args.tol is None else args.tol)
    return {"matrix": [list(r) for r in cfg.matrix],
            "blocks": list(cfg.blocks),
            "kappa": [jnum(v) for v in cfg.kappa],
            "kernel_basis": [list(v) for v in kernel.vectors],
            "kernel_disclaimer": kernel.disclaimer,
            "operators": ops,
            "nonresonant": report.nonresonant,
            "lattice_rank": report.lattice_rank,
            "certificates": [
                {"facet_normal": list(c.facet_normal),
                 "subgroup_generator": c.pairing_subgroup,
                 "kappa_pairing": jnum(c.kappa_pairing),
                 "resonant": c.resonant}
                for c in report.certificates],
            "rank_bound": gkz.rank_bound(cfg),
            "seed": args.seed}


COMMANDS = {"chi": cmd_chi, "vol": cmd_vol, "integrate": cmd_integrate,
            "relations": cmd_relations, "gkz": cmd_gkz}


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="euler",
        description="Dimension counts and linear relations for generalized "
                    "Euler integrals")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("problem", help="problem JSON file, or - for stdin")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--nodes", type=int, default=None,
                    help="quadrature nodes per segment")
    ap.add_argument("--tol", type=float, default=None)
    ap.add_argument("--out", default=None, help="write JSON here instead of stdout")
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.tol is not None and not 0 <= args.tol < math.inf:
            raise InputError(f"--tol: expected a finite value >= 0, got {args.tol}")
        obj = load_problem(args.problem)
        payload, code = COMMANDS[args.command](obj, args), 0
    except (ValueError, OverflowError, FloatingPointError) as exc:
        payload, code = _error("invalid-input", exc), 3
    except RuntimeError as exc:
        payload, code = _error("numerical-failure", exc), 2
    try:
        emit(payload, args.out)
    except OSError as exc:
        if args.out:
            emit(_error("invalid-input", f"cannot write {args.out}: {exc}"), None)
            return 3
        if not isinstance(exc, BrokenPipeError):   # stdout itself failed
            raise
        # the reader closed stdout early; the flush at exit must not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def _error(kind: str, message) -> dict:
    return {"error": {"type": kind, "message": str(message)}}


if __name__ == "__main__":
    sys.exit(main())
