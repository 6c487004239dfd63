#!/usr/bin/env python3
"""Run `chi`, `vol` and `gkz` over fixed inputs and print a digest of each payload.

Usage (from the repository root):

    python3 scripts/payload_sweep.py > sweep.txt    # all 911 runs

One line per run: the command, the input, the `--seed`, the exit code and
the sha256 of what the command printed.  Running it on two trees and diffing
the outputs checks that a change keeps every payload, bit for bit.  The 823
`chi` runs are

- `hexagon`, `lines` and `two_points` at `--seed` 0-40;
- the `homotopy` benchmark inputs `gen*` of seeds 1-40, each at `--seed` 0
  and at `--seed` equal to its seed;
- `cayley0`-`cayley8` but `cayley5` (seconds a run) of the `exact`
  benchmark seeds 4242, 977 and 13207, at `--seed` 0-1;
- `1e8*x^2*y^2 + x + y + 1`, the same with 1e30, and a support that is not
  full-dimensional (chi = 0), at `--seed` 0-3.

The 44 `vol` runs and the 44 `gkz` runs, at `--seed` 0, are

- the four shipped problems;
- `cayley0`-`cayley8` of the `exact` benchmark seeds 4242, 977, 13207 and
  27182;
- the three inputs above and a one-term polynomial, refused at parse time.

Generated inputs are written by perfbench/workloads.py into a temporary
directory; nothing is written under perfbench/.  All runs share this
process, with BLAS pinned to one thread, as in the benchmark.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True     # no __pycache__ under perfbench/

import workloads  # noqa: E402
from eulerint import cli  # noqa: E402

HOMOTOPY_SEEDS = range(1, 41)
CHI_EXACT_SEEDS = (4242, 977, 13207)
EXACT_SEEDS = (4242, 977, 13207, 27182)
SHIPPED = ("hexagon", "lines", "quadratic_operator", "two_points")
EXTRA = {"wide1e8": {"f": ["1e8*x^2*y^2 + x + y + 1"]},
         "wide1e30": {"f": ["1e30*x^2*y^2 + x + y + 1"]},
         "flat": {"f": [[[[1, 0, 2], 1], [[2, 0, 2], -5], [[0, 3, 3], 5]]]}}
REFUSED = {"monomial": {"f": ["3*x^2*y"]}}


def _cayleys(tmp, seeds, skip=()):
    """(name, problem file) of each generated `exact` input of the seeds."""
    for bench in seeds:
        (outdir := tmp / f"exact{bench}").mkdir()
        ops = workloads.exact_ops(bench, ROOT, outdir)
        problems = sorted({op.problem for op in ops if not op.props.get("shipped")
                           and op.problem.stem not in skip})
        for problem in problems:
            yield f"{problem.stem}@{bench}", problem


def _inline(tmp, problems):
    for name, problem in problems.items():
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(problem), encoding="utf-8")
        yield name, path


def chi_runs(tmp):
    """(name, problem file, --seed) of every `chi` run, in a fixed order."""
    for name in ("hexagon", "lines", "two_points"):
        for seed in range(41):
            yield name, ROOT / "problems" / f"{name}.json", seed
    for bench in HOMOTOPY_SEEDS:
        (outdir := tmp / f"homotopy{bench}").mkdir()
        ops = workloads.homotopy_ops(bench, ROOT, outdir)
        for op in ops:
            if not op.props.get("shipped"):
                for seed in (0, bench):
                    yield f"{op.problem.stem}@{bench}", op.problem, seed
    for name, problem in _cayleys(tmp, CHI_EXACT_SEEDS, skip=("cayley5",)):
        for seed in (0, 1):
            yield name, problem, seed
    for name, problem in _inline(tmp, EXTRA):
        for seed in range(4):
            yield name, problem, seed


def exact_runs(tmp):
    """(name, problem file, --seed) of every `vol` or `gkz` run."""
    for name in SHIPPED:
        yield name, ROOT / "problems" / f"{name}.json", 0
    for name, problem in _cayleys(tmp, EXACT_SEEDS):
        yield name, problem, 0
    for name, problem in _inline(tmp, EXTRA | REFUSED):
        yield name, problem, 0


RUNS = {"chi": chi_runs, "vol": exact_runs, "gkz": exact_runs}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for command, runs in RUNS.items():
            (where := Path(tmp) / command).mkdir()
            for name, problem, seed in runs(where):
                buf = io.StringIO()
                try:
                    with contextlib.redirect_stdout(buf):
                        code = cli.main([command, str(problem), "--seed", str(seed)])
                except Exception as exc:   # a traceback is a result too
                    traceback.print_exc()
                    code = type(exc).__name__
                digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
                print(f"{command} {name} --seed {seed} exit {code} {digest}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
