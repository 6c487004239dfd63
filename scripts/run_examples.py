#!/usr/bin/env python3
"""Run every shipped problem file through the relevant CLI commands.

Usage:  python3 scripts/run_examples.py [--seed N] [--nodes N]

Prints one summary line per (problem, command) pair and exits nonzero if any
invocation fails.  Useful as a smoke test and as a usage demonstration.
"""

import argparse
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

from eulerint.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]

# which commands make sense for which problem file
PLAN = [
    ("hexagon.json", ["chi", "vol", "gkz"]),
    ("lines.json", ["chi", "vol", "gkz"]),
    ("two_points.json", ["chi", "vol", "integrate", "relations", "gkz"]),
    ("quadratic_operator.json", ["chi", "vol", "relations", "gkz"]),
]

SUMMARY_KEYS = ["chi", "count", "normalized_volume", "rank_bound",
                "nonresonant", "nodes"]


def run_one(problem: Path, command: str, extra) -> tuple:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main([command, str(problem)] + extra)
    payload = json.loads(buf.getvalue())
    return code, payload


def summarize(payload: dict) -> str:
    bits = [f"{k}={payload[k]}" for k in SUMMARY_KEYS if k in payload]
    if "matrix" in payload and "closure_residuals" in payload:
        bits.append(f"matrix={len(payload['matrix'])}x"
                    f"{len(payload['matrix'][0])}")
        bits.append(f"max_closure={max(payload['closure_residuals']):.1e}")
    if "kernel" in payload:
        bits.append(f"kernel_dim={len(payload['kernel'])}")
    if "relations" in payload:
        bits.append(f"relations={len(payload['relations'])}")
        worst = max((r for e in payload.get("residuals", [])
                     for r in e["residuals"]), default=0.0)
        bits.append(f"max_residual={worst:.1e}")
    return ", ".join(bits)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--nodes", type=int, default=None)
    args = ap.parse_args()
    extra = ["--seed", str(args.seed)]
    if args.nodes:
        extra += ["--nodes", str(args.nodes)]
    failures = 0
    for name, commands in PLAN:
        problem = ROOT / "problems" / name
        for command in commands:
            code, payload = run_one(problem, command, extra)
            if code == 0:
                print(f"ok    {name:<24} {command:<10} {summarize(payload)}")
            else:
                failures += 1
                print(f"FAIL  {name:<24} {command:<10} exit {code}: "
                      f"{payload.get('error', {}).get('message', '?')}")
    print(f"\n{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
