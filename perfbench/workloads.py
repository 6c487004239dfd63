"""Workload generation and per-operation oracles for the benchmark.

A workload is a list of operations.  Each operation is one
``eulerint.cli.main([command, problem, "--seed", S])`` call on a problem file
that is either shipped in ``problems/`` or generated here from the benchmark
seed.  The program only ever sees the JSON files; the expected answers stay
in the benchmark.

Generated inputs are drawn from fixed shape schedules (variable count, number
of polynomials, degrees, term counts, pole pairs) so that every seed costs
about the same; the seed picks supports, coefficients, exponents and pole
positions.  Inputs are redrawn only for geometric degeneracy of the input
itself (a Cayley configuration that is not full-dimensional), never because
of how the program handles them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np

# Entrywise reference for `integrate problems/two_points.json` (criterion 3).
REFERENCE_M = np.array([
    [-3.496j, 4.144j, -0.648j],
    [3.496 + 0j, 0.648 + 0j, -4.144 + 0j],
])
REFERENCE_TOL = 5e-3
CLOSURE_TOL = 1e-6
RELATION_TOL = 1e-3      # residual <= RELATION_TOL * integral scale (criterion 7)
PAIRING_NODES = 1000

# Critical-point counts and volumes of the shipped problems.
SHIPPED_COUNT = {"hexagon": 6, "lines": 2, "two_points": 2}
SHIPPED_VOLUME = {"hexagon": 6, "lines": 6, "two_points": 2,
                  "quadratic_operator": 2}

# homotopy: (n, total degree of each f_j, terms of each f_j); Bezout number
# of the cleared system is (sum of degrees)^n.
CHI_SHAPES = [
    (1, (2, 2), (3, 3)),
    (2, (2,), (4,)),
    (2, (1, 1), (3, 3)),
    (3, (1, 1), (4, 4)),
    (3, (2,), (6,)),
    (2, (3,), (6,)),
    (2, (1, 2), (3, 5)),
    (2, (4,), (8,)),
]

# pairing: number of pole pairs per generated problem.  Three pairs (six
# factors, three cycles) would cost about 13 s per pass on its own.
PAIR_COUNTS = [1, 2]

# exact: (n, ell, total points, maximal exponent).
EXACT_SHAPES = [
    (2, 1, 12, 3),
    (2, 2, 14, 2),
    (3, 1, 12, 2),
    (3, 1, 14, 2),
    (2, 2, 16, 2),
    (3, 2, 12, 2),
    (4, 1, 10, 1),
    (2, 1, 20, 4),
    (2, 2, 20, 3),
]

WORKLOADS = ("homotopy", "pairing", "exact")


@dataclass
class Op:
    """One CLI call plus what its answer must satisfy."""

    name: str                 # "<command>:<problem>", unique in a workload
    command: str
    problem: Path
    expect: dict = field(default_factory=dict)
    props: dict = field(default_factory=dict)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _cayley_rank(supports) -> int:
    ell = len(supports)
    rows = [list(a) + [1 if k == j else 0 for k in range(ell)]
            for j, sup in enumerate(supports) for a in sup]
    return int(np.linalg.matrix_rank(np.array(rows, dtype=float)))


def _random_support(rng, n: int, degree: int, terms: int):
    """`terms` distinct exponents with |e| <= degree, one of them of degree exactly `degree`."""
    pool = sorted({tuple(np.bincount(c, minlength=n + 1)[1:])
                   for k in range(degree + 1)
                   for c in combinations_with_replacement(range(n + 1), k)})
    pool = [e for e in pool if sum(e) <= degree]
    top = [e for e in pool if sum(e) == degree]
    first = top[rng.integers(len(top))]
    rest = [e for e in pool if e != first]
    pick = rng.choice(len(rest), size=min(terms, len(pool)) - 1, replace=False)
    return [first] + [rest[i] for i in sorted(pick)]


def _box_support(rng, n: int, count: int, top: int):
    pool = [tuple(int(v) for v in np.unravel_index(i, (top + 1,) * n))
            for i in range((top + 1) ** n)]
    pick = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in sorted(pick)]


def _term_list(support, coeffs):
    return [[list(map(int, e)), c] for e, c in zip(support, coeffs)]


def _write(path: Path, obj: dict) -> Path:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _euler_count(problem: dict) -> int:
    """|chi| for generic coefficients: the Cayley volume in the ambient lattice.

    `polytope.normalized_volume` measures against the lattice the points
    generate; the critical points live on the whole torus, so the oracle
    multiplies by that lattice's index in Z^(n+ell).  Computed once at
    generation, outside the timed region.
    """
    from eulerint import cli, intlinalg, polytope
    pts = polytope.cayley_support(cli.build_spec(problem))
    volume = polytope.normalized_volume(pts).normalized_volume
    basis = intlinalg.lattice_basis([list(p) for p in pts.points])
    return volume * abs(intlinalg.det_bareiss(basis))


def homotopy_ops(seed: int, root: Path, outdir: Path, shapes=CHI_SHAPES):
    probs = root / "problems"
    ops = [Op(f"chi:{p}", "chi", probs / f"{p}.json",
              expect={"count": c}, props={"shipped": True})
           for p, c in SHIPPED_COUNT.items()]
    for slot, (n, degrees, terms) in enumerate(shapes):
        rng = _rng(seed, 1, slot)
        while True:
            supports = [_random_support(rng, n, d, t)
                        for d, t in zip(degrees, terms)]
            if _cayley_rank(supports) == n + len(degrees):
                break
        f = [_term_list(sup, [[float(rng.uniform(0.5, 2)),
                               float(rng.uniform(-1, 1))] for _ in sup])
             for sup in supports]
        problem = {"f": f, "s": ["1/2"] * len(f),
                   "nu": ["1/3", "1/5", "1/7"][:n]}
        name = f"gen{slot}"
        count = _euler_count(problem)
        ops.append(Op(f"chi:{name}", "chi",
                      _write(outdir / f"{name}.json", problem),
                      expect={"count": count},
                      props={"n": n, "ell": len(f),
                             "terms": sum(len(s) for s in supports),
                             "bezout": sum(degrees) ** n, "volume": count}))
    return ops


def _pair_problem(rng, m: int):
    """m pole pairs (x-a)^(p/q) (x-b)^(1-p/q), one triangle around each pair.

    The exponents of a pair add up to 1, so the branch returns to itself
    around a triangle that encloses both poles of the pair and no other
    singularity; nu = 1/2 and the origin stays outside every triangle.
    """
    f, s, cycles = [], [], []
    for j in range(m):
        centre = 2.5 + 3.0 * j + float(rng.uniform(-0.3, 0.3))
        half = float(rng.uniform(0.2, 0.5))
        tilt = float(rng.uniform(0, math.pi))
        a = centre - half * complex(math.cos(tilt), math.sin(tilt))
        b = centre + half * complex(math.cos(tilt), math.sin(tilt))
        q = int(rng.integers(2, 7))
        p = int(rng.choice([k for k in range(1, q) if math.gcd(k, q) == 1]))
        for root, exp in ((a, Fraction(p, q)), (b, 1 - Fraction(p, q))):
            f.append([[[1], 1], [[0], [-root.real, -root.imag]]])
            s.append(str(exp))
        rot = float(rng.uniform(0, 2 * math.pi / 3))
        A, B, C = (centre + 1.3 * complex(math.cos(rot + 2 * math.pi * k / 3),
                                          math.sin(rot + 2 * math.pi * k / 3))
                   for k in range(3))
        cycles.append({"A": [A.real, A.imag], "B": [B.real, B.imag],
                       "C": [C.real, C.imag], "phi": "principal"})
    ell = len(f)
    cocycles = [{"a": [-1 if k == j else 0 for k in range(ell)], "b": 1}
                for j in range(ell)] + [{"a": [0] * ell, "b": 0}]
    return {"f": f, "s": s, "nu": ["1/2"], "cycles": cycles,
            "cocycles": cocycles,
            "forms": [{"function": "1", "a": [0] * ell, "b": [0]}],
            "settings": {"nodes": PAIRING_NODES}}


def pairing_ops(seed: int, root: Path, outdir: Path, pairs=PAIR_COUNTS):
    probs = root / "problems"
    ops = []
    shipped = {"two_points": 2, "quadratic_operator": 1}
    two_points = {"integrate": {"reference": True},
                  "relations": {"relation": [0.5, 0.5, 0.5]}}
    for p, ncyc in shipped.items():
        for cmd in ("integrate", "relations"):
            ops.append(Op(f"{cmd}:{p}", cmd, probs / f"{p}.json",
                          expect=two_points[cmd] if p == "two_points" else {},
                          props={"shipped": True, "cycles": ncyc,
                                 "nodes_x_cycles": 3 * PAIRING_NODES * ncyc}))
    for slot, m in enumerate(pairs):
        problem = _pair_problem(_rng(seed, 2, slot), m)
        path = _write(outdir / f"pairs{slot}.json", problem)
        # the derivative of the constant form: sum_j s_j I_{-e_j,1} + nu I_{0,0} = 0
        relation = [float(Fraction(v)) for v in problem["s"]] + [0.5]
        props = {"pairs": m, "cycles": m, "cocycles": 2 * m + 1,
                 "relations": 1, "nodes_x_cycles": 3 * PAIRING_NODES * m}
        for cmd in ("integrate", "relations"):
            ops.append(Op(f"{cmd}:pairs{slot}", cmd, path,
                          expect={"relation": relation}, props=dict(props)))
    return ops


def exact_ops(seed: int, root: Path, outdir: Path, shapes=EXACT_SHAPES):
    probs = root / "problems"
    ops = []
    for p, vol in SHIPPED_VOLUME.items():
        for cmd in ("vol", "gkz"):
            ops.append(Op(f"{cmd}:{p}", cmd, probs / f"{p}.json",
                          expect={"volume": vol}, props={"shipped": True}))
    for slot, (n, ell, total, top) in enumerate(shapes):
        rng = _rng(seed, 3, slot)
        sizes = [total // ell + (1 if j < total % ell else 0)
                 for j in range(ell)]
        while True:
            supports = [_box_support(rng, n, k, top) for k in sizes]
            if _cayley_rank(supports) == n + ell:
                break
        f = [_term_list(sup, [int(rng.integers(1, 6)) for _ in sup])
             for sup in supports]
        problem = {"f": f, "s": ["1/2"] * ell,
                   "nu": ["1/3", "1/5", "1/7", "1/11"][:n]}
        path = _write(outdir / f"cayley{slot}.json", problem)
        props = {"n": n, "ell": ell, "points": total, "cayley_dim": n + ell}
        for cmd in ("vol", "gkz"):
            ops.append(Op(f"{cmd}:cayley{slot}", cmd, path,
                          expect={"volume": None}, props=dict(props)))
    return ops


# Shipped operations kept in smoke mode: the cheapest one of each workload.
SMOKE_SHIPPED = {"chi:two_points", "integrate:quadratic_operator",
                 "vol:two_points", "gkz:two_points"}


def make_ops(workload: str, seed: int, root: Path, outdir: Path,
             smoke: bool = False):
    """The operations of one workload pass; `smoke` shrinks them to seconds."""
    outdir.mkdir(parents=True, exist_ok=True)
    if workload == "homotopy":
        ops = homotopy_ops(seed, root, outdir,
                           CHI_SHAPES[:2] if smoke else CHI_SHAPES)
    elif workload == "pairing":
        ops = pairing_ops(seed, root, outdir, [1] if smoke else PAIR_COUNTS)
    elif workload == "exact":
        ops = exact_ops(seed, root, outdir,
                        EXACT_SHAPES[:1] if smoke else EXACT_SHAPES)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if smoke:
        ops = [op for op in ops
               if not op.props.get("shipped") or op.name in SMOKE_SHIPPED]
    return ops


# -- oracles -----------------------------------------------------------------

class CheckState:
    """What the checks of one run share: per-pass volumes, cached scales."""

    def __init__(self):
        self.volumes = {}
        self.scales = {}

    def relation_scale(self, problem: Path, terms, cycle: int) -> float:
        """max |I_{a,b}| over the relation's cocycles on one cycle (criterion 7).

        Computed once per run by branch tracking, outside the timed region.
        """
        key = (str(problem), json.dumps(terms, sort_keys=True), cycle)
        if key not in self.scales:
            from eulerint import cli, twisted
            obj = cli.load_problem(str(problem))
            spec = cli.build_spec(obj)
            cyc = cli.build_cycles(obj, spec)[cycle]
            nodes = int(obj.get("settings", {}).get("nodes",
                                                    twisted.DEFAULT_NODES))
            cocycles = [twisted.Cocycle(t["a"], t["b"][0]) for t in terms]
            loop = twisted.integrate_loop(cyc, nodes, spec,
                                          twisted.BranchCurve.from_spec(spec),
                                          cocycles)
            self.scales[key] = max(abs(v) for v in loop.values)
        return self.scales[key]


def _cplx(v) -> complex:
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def _relation_mismatch(terms, expected) -> float:
    """Distance of the produced relation from the expected one, up to scale."""
    got = {(tuple(t["a"]), tuple(t["b"])): complex(t["re"], t["im"])
           for t in terms}
    ell = len(expected) - 1
    want = {(tuple(-1 if k == j else 0 for k in range(ell)), (1,)): c
            for j, c in enumerate(expected[:-1])}
    want[((0,) * ell, (0,))] = expected[-1]
    if set(got) != set(want):
        return math.inf
    g = np.array([got[k] for k in sorted(want)])
    w = np.array([want[k] for k in sorted(want)], dtype=complex)
    pivot = int(np.argmax(np.abs(w)))
    return float(np.max(np.abs(g - g[pivot] / w[pivot] * w))
                 / np.max(np.abs(g)))


def check(op: Op, payload: dict, state: CheckState):
    """Return (failure reason or None, relative error or None)."""
    expect = op.expect
    if op.command == "chi":
        if payload["count"] != expect["count"]:
            return f"count {payload['count']} != {expect['count']}", None
        return None, None
    if op.command == "vol":
        vol = payload["normalized_volume"]
        state.volumes[str(op.problem)] = vol
        if expect["volume"] is not None and vol != expect["volume"]:
            return f"volume {vol} != {expect['volume']}", None
        return None, None
    if op.command == "gkz":
        bound = payload["rank_bound"]
        want = expect["volume"]
        if want is None:
            want = state.volumes.get(str(op.problem))
        if bound != want:
            return f"rank_bound {bound} != normalized volume {want}", None
        a = np.array(payload["matrix"], dtype=np.int64)
        kernel = np.array(payload["kernel_basis"], dtype=np.int64).reshape(
            -1, a.shape[1])
        if (np.any(a @ kernel.T)
                or len(kernel) != a.shape[1] - np.linalg.matrix_rank(a)):
            return "kernel basis is not a basis of ker A", None
        return None, None
    if op.command == "integrate":
        worst = max(payload["closure_residuals"])
        if worst >= CLOSURE_TOL:
            return f"closure residual {worst:.2e} >= {CLOSURE_TOL}", None
        m = np.array([[_cplx(v) for v in row] for row in payload["matrix"]])
        if expect.get("reference"):
            ref = REFERENCE_M + expect.get("reference_shift", 0.0)
            dev = float(np.max(np.abs(m - ref)))
            if dev >= REFERENCE_TOL:
                return f"matrix deviates {dev:.2e} from the reference", None
            kern = payload["kernel"]
            vec = np.array([_cplx(v) for v in kern[0]["vector"]]) if kern else None
            if len(kern) != 1 or np.max(np.abs(vec - vec[0])) > 1e-3:
                return "kernel is not spanned by (1, 1, 1)", None
            return None, dev / float(np.max(np.abs(REFERENCE_M)))
        if "relation" in expect:
            coeffs = np.array(expect["relation"], dtype=complex)
            rel = 0.0
            for row in m:
                res = abs(row @ coeffs) / float(np.max(np.abs(row)))
                if res > RELATION_TOL:
                    return f"known relation residual {res:.2e} on the matrix", None
                rel = max(rel, res)
            return None, rel
        return None, None
    if op.command == "relations":
        rel = 0.0
        for entry, produced in zip(payload["residuals"], payload["relations"]):
            for cycle, res in enumerate(entry["residuals"]):
                scale = state.relation_scale(op.problem, produced["terms"], cycle)
                if res > RELATION_TOL * scale:
                    return (f"{entry['source']} relation residual {res:.2e} > "
                            f"{RELATION_TOL} x {scale:.3g}"), None
                rel = max(rel, res / scale)
        if "relation" in expect:
            gap = _relation_mismatch(payload["relations"][0]["terms"],
                                     expect["relation"])
            if gap > 1e-9:
                return f"form relation differs from the expected one ({gap:.2e})", None
        return None, rel
    raise ValueError(f"no oracle for {op.command}")


def corrupted(op: Op):
    """A copy of `op` whose expected answer is wrong, or None if it has none."""
    e = dict(op.expect)
    if "count" in e:
        e["count"] += 1
    elif e.get("volume") is not None:
        e["volume"] += 1
    elif e.get("reference"):
        e["reference_shift"] = 0.1
    elif "relation" in e:
        e["relation"] = [e["relation"][0] + 0.1] + e["relation"][1:]
    else:
        return None
    return Op(op.name, op.command, op.problem, e, op.props)
