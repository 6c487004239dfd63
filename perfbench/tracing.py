"""Tracing of eulerint's public functions from outside the program.

The wrappers live here and are installed only for a traced pass.  Each one
replaces a name where its caller looks it up (a module attribute, a method
on `LaurentPoly`, or `numpy.linalg.solve`), so the program's source is not
touched.

Two kinds of frames share one stack, so self times nest correctly:

* spans (coarse calls such as `critical.solve`) are recorded one by one with
  id, parent id, operation id, name, start and end;
* leaves (hot calls such as `LaurentPoly.evaluate`, hundreds of thousands per
  pass) are aggregated per operation and name into calls, inclusive seconds
  and self seconds, so that memory stays bounded.

A frame's self time is its duration minus the durations of the frames it
directly contains.  The layer of a frame is the part of its name before the
first dot.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "laurent", "critical", "twisted", "relations", "polytope",
          "intlinalg", "gkz")

# Each per-unit cost and the count it divides by.
BASES = {"critical.us_per_path": "critical.paths",
         "critical.us_per_linsolve": "critical.linsolve_calls",
         "twisted.us_per_node": "twisted.nodes",
         "intlinalg.us_per_nullspace": "intlinalg.nullspace_calls"}


class Tracer:
    def __init__(self):
        self.spans = []                  # (id, parent, op, name, start, end, self_s)
        self.leaves = defaultdict(lambda: [0, 0.0, 0.0])  # (op, name) -> calls, s, self_s
        self.stack = []                  # open frames: [id, name, start, covered]
        self.open_names = defaultdict(int)
        self.facts = defaultdict(int)    # counts read from arguments and results
        self.closure_max = 0.0
        self.op = None
        self._next_id = 0
        self._patches = []

    # -- frames ------------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        frame = [self._next_id, name, perf_counter(), 0.0]
        self.stack.append(frame)
        self.open_names[name] += 1
        return frame

    def _exit(self, frame, leaf):
        end = perf_counter()
        self.stack.pop()
        self.open_names[frame[1]] -= 1
        dur = end - frame[2]
        own = dur - frame[3]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        if leaf:
            agg = self.leaves[(self.op, frame[1])]
            agg[0] += 1
            agg[1] += dur
            agg[2] += own
        else:
            self.spans.append((frame[0], parent[0] if parent else None,
                               self.op, frame[1], frame[2], end, own))

    def wrap(self, name, fn, leaf=False, on_call=None, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args, kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, leaf)
            if on_result is not None:
                on_result(tracer, result)
            return result
        return traced

    def patch(self, owner, attr, name, **kw):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def patch_dict(self, mapping, key, name, **kw):
        original = mapping[key]
        self._patches.append((mapping, key, original))
        mapping[key] = self.wrap(name, original, **kw)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def run_op(self, op_name, call):
        """Run one operation under a top-level `cli.main` span."""
        self.op = op_name
        frame = self._enter("cli.main")
        try:
            return call()
        finally:
            self._exit(frame, leaf=False)
            self.op = None

    # -- installation ------------------------------------------------------

    def install(self):
        from eulerint import (cli, critical, gkz, intlinalg, laurent, polytope,
                              relations, twisted)

        for attr in ("load_problem", "build_spec", "build_cycles",
                     "build_cocycles", "build_forms", "build_operators"):
            self.patch(cli, attr, f"cli.parse.{attr}")
        self.patch(cli, "emit", "cli.emit")
        for key in list(cli.COMMANDS):
            self.patch_dict(cli.COMMANDS, key, f"cli.cmd_{key}")

        self.patch(laurent.LaurentPoly, "evaluate", "laurent.evaluate", leaf=True)
        self.patch(laurent.LaurentPoly, "partial", "laurent.partial", leaf=True)
        self.patch(critical, "omega_components", "laurent.omega.critical",
                   leaf=True)
        self.patch(twisted, "omega_components", "laurent.omega.twisted",
                   leaf=True)

        self.patch(critical, "euler_characteristic",
                   "critical.euler_characteristic")
        self.patch(critical, "build_system", "critical.build_system")
        self.patch(critical, "solve", "critical.solve", on_result=_count_paths)
        solve = self.wrap("critical.linsolve", np.linalg.solve, leaf=True)
        original_solve = np.linalg.solve
        tracer = self

        def linalg_solve(*args, **kwargs):
            if tracer.open_names["critical.solve"]:
                return solve(*args, **kwargs)
            return original_solve(*args, **kwargs)
        self._patches.append((np.linalg, "solve", original_solve))
        np.linalg.solve = linalg_solve

        self.patch(twisted, "pairing_matrix", "twisted.pairing_matrix")
        self.patch(twisted, "integrate_loop", "twisted.integrate_loop",
                   on_result=_closure)
        self.patch(twisted, "integrate_line_segment",
                   "twisted.integrate_line_segment")
        self.patch(twisted, "track_line_segment", "twisted.track_line_segment",
                   on_call=_count_nodes)
        self.patch(twisted, "nullspace", "twisted.nullspace")
        self.patch(twisted, "singular_points", "twisted.singular_points",
                   leaf=True)
        self.patch(twisted, "newton_step", "twisted.newton_step", leaf=True)

        for attr in ("nabla_apply", "mellin_relation", "relations_agree",
                     "verify_numeric"):
            self.patch(relations, attr, f"relations.{attr}")

        for attr in ("cayley_support", "normalized_volume", "facets"):
            self.patch(polytope, attr, f"polytope.{attr}")

        for attr in ("hnf_row", "rank", "lattice_basis", "kernel_basis",
                     "lattice_coords", "in_lattice", "det_bareiss",
                     "rational_nullspace", "solve_rational",
                     "primitive_integer", "lattice_index_in_saturation"):
            self.patch(intlinalg, attr, f"intlinalg.{attr}", leaf=True)

        for attr in ("cayley_matrix", "lattice_kernel", "euler_operators",
                     "is_nonresonant", "rank_bound"):
            self.patch(gkz, attr, f"gkz.{attr}")

    # -- output ------------------------------------------------------------

    def dump(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for sid, parent, op, name, start, end, own in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end,
                                     "self_s": own}) + "\n")
            for (op, name), (calls, total, own) in sorted(self.leaves.items()):
                fh.write(json.dumps({"op": op, "leaf": name, "calls": calls,
                                     "s": total, "self_s": own}) + "\n")

    def metrics(self):
        """Per-layer metrics of everything recorded so far."""
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for _, _, _, name, start, end, s in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += s
        for (_, name), (c, t, s) in self.leaves.items():
            calls[name] += c
            total[name] += t
            own[name] += s
        layer_self = defaultdict(float)
        for name, s in own.items():
            layer_self[name.split(".")[0]] += s

        def pick(prefix):
            return sum(v for k, v in total.items() if k.startswith(prefix))

        def per(num, den, scale=1e6):
            return num * scale / den if den else 0.0

        f = self.facts
        linsolve_s = total["critical.linsolve"]
        m = {
            "cli.parse_s": pick("cli.parse."),
            "cli.emit_s": total["cli.emit"],
            "laurent.evaluate_calls": calls["laurent.evaluate"],
            "laurent.evaluate_s": total["laurent.evaluate"],
            "laurent.partial_calls": calls["laurent.partial"],
            "laurent.omega_calls": (calls["laurent.omega.critical"]
                                    + calls["laurent.omega.twisted"]),
            "laurent.omega_s": pick("laurent.omega."),
            "critical.build_system_s": total["critical.build_system"],
            "critical.solve_s": total["critical.solve"],
            "critical.solve_calls": calls["critical.solve"],
            "critical.paths": f["paths"],
            "critical.paths_converged": f["converged"],
            "critical.paths_filtered": f["filtered"],
            "critical.paths_failed": f["failed"],
            "critical.solutions": f["solutions"],
            "critical.useful_ratio": per(f["solutions"], f["paths"], 1.0),
            "critical.us_per_path": per(total["critical.solve"], f["paths"]),
            "critical.linsolve_calls": calls["critical.linsolve"],
            "critical.us_per_linsolve": per(linsolve_s,
                                            calls["critical.linsolve"]),
            "critical.filter_s": total["laurent.omega.critical"],
            "twisted.pairing_s": total["twisted.pairing_matrix"],
            "twisted.track_s": total["twisted.track_line_segment"],
            "twisted.nodes": f["nodes"],
            "twisted.us_per_node": per(total["twisted.track_line_segment"],
                                       f["nodes"]),
            "twisted.newton_calls": calls["twisted.newton_step"],
            "twisted.quadrature_s": own["twisted.integrate_line_segment"],
            "twisted.nullspace_s": total["twisted.nullspace"],
            "twisted.singular_points_calls": calls["twisted.singular_points"],
            "twisted.closure_max": self.closure_max,
            "relations.nabla_s": total["relations.nabla_apply"],
            "relations.mellin_s": total["relations.mellin_relation"],
            "relations.agree_s": total["relations.relations_agree"],
            "relations.verify_s": total["relations.verify_numeric"],
            "relations.verify_calls": calls["relations.verify_numeric"],
            "polytope.volume_s": total["polytope.normalized_volume"],
            "polytope.volume_calls": calls["polytope.normalized_volume"],
            "polytope.facets_s": total["polytope.facets"],
            "polytope.facets_calls": calls["polytope.facets"],
            "intlinalg.nullspace_calls": calls["intlinalg.rational_nullspace"],
            "intlinalg.us_per_nullspace": per(
                total["intlinalg.rational_nullspace"],
                calls["intlinalg.rational_nullspace"]),
            "intlinalg.det_calls": calls["intlinalg.det_bareiss"],
            "intlinalg.hnf_calls": calls["intlinalg.hnf_row"],
            "intlinalg.solve_rational_calls": calls["intlinalg.solve_rational"],
            "gkz.nonresonant_s": total["gkz.is_nonresonant"],
            "gkz.rank_bound_s": total["gkz.rank_bound"],
            "gkz.kernel_s": total["gkz.lattice_kernel"],
            "gkz.kernel_calls": calls["gkz.lattice_kernel"],
            "gkz.operators_s": total["gkz.euler_operators"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        m["trace.self_sum_s"] = sum(layer_self.values())
        return m


def _count_paths(tracer, sol):
    f = tracer.facts
    f["paths"] += sol.raw_paths
    f["converged"] += sol.converged
    f["filtered"] += sol.filtered
    f["failed"] += sol.failed_paths
    f["solutions"] += sol.distinct


def _count_nodes(tracer, args, kwargs):
    tracer.facts["nodes"] += int(kwargs.get("N", args[3]))


def _closure(tracer, loop):
    tracer.closure_max = max(tracer.closure_max, loop.closure_residual)
