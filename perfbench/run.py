#!/usr/bin/env python3
"""Closed-loop benchmark of the `euler` CLI on three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload homotopy --seed 1 --seconds 30 --trace 0

One client in one process and one thread, BLAS pinned to one thread, runs
the workload's operations back to back, one pass after another, until
`--seconds` have passed (never fewer than two passes, so that same-seed
payloads can be compared).  Every answer is checked against an oracle.
With `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced passes and reports per-layer metrics.  The
last line of standard output is one JSON object; the lines before it give
every metric by name with its unit, the per-operation table and any failed
operation by name.  The full result, and the spans of a traced run, are
written under perfbench/out/.  `--smoke` shrinks every workload to seconds.
"""

import os

# Pin BLAS before numpy is imported anywhere in this process or its children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
SETUP_CODE = ("import sys\n"
              "from eulerint import cli\n"
              "for path in sys.argv[1:]:\n"
              "    cli.build_spec(cli.load_problem(path))\n")
COMMANDS = ("chi", "vol", "gkz", "integrate", "relations")
# Timed values are rescaled to this probe() time; see README.md.
REFERENCE_PROBE_S = 0.002
_PROBE_X = np.array([1.1 + 0.2j, 0.7 - 0.3j])
_PROBE_E = np.array([[1, 2], [2, 1], [0, 3]], dtype=np.int64)
_PROBE_C = np.array([1 + 1j, 2 - 1j, 0.5j])


def load_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def import_program():
    """Import eulerint from this checkout's src/, and nothing else."""
    if not (SRC / "eulerint" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'eulerint'} is missing; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import eulerint
    if Path(eulerint.__file__).resolve().parent != SRC / "eulerint":
        raise SystemExit(f"error: imported eulerint from {eulerint.__file__}")
    return eulerint


def probe():
    """Seconds taken by a fixed piece of reference work.

    The work mixes what eulerint spends its time on (numpy calls on tiny
    arrays, complex and Fraction arithmetic, small dicts) but never calls
    eulerint, so a change to the program cannot change it.  Other tenants
    of a shared host slow it down together with the program.
    """
    t0 = time.perf_counter()
    acc, frac = 0j, Fraction(0)
    for i in range(150):
        acc += complex(_PROBE_C @ np.prod(_PROBE_X[None, :] ** _PROBE_E, axis=1))
        frac += Fraction(i % 7, 3 + i % 5)
        acc += sum({(i % 3, 1): 1.5, (0, i % 2): 2.0}.values())
    return time.perf_counter() - t0


def measure_setup(problems):
    """Median time of a fresh interpreter importing eulerint and parsing every input.

    Returns the median rescaled to the reference probe speed and the raw times.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = probe()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, *problems],
                       env=env, cwd=ROOT, check=True)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * 2 * REFERENCE_PROBE_S / (before + probe()))
    return statistics.median(scaled), raw


def run_pass(ops, seed, tracer=None):
    """One pass over the operations.

    Returns per operation (seconds, exit code, stdout, speed factor).  A probe
    runs before the first operation and after each one, outside the timed
    region; the factor rescales the operation's seconds to the reference probe
    speed, using the mean of the probes on either side of it.
    """
    from eulerint import cli
    results = []
    last = probe()
    for op in ops:
        argv = [op.command, str(op.problem), "--seed", str(seed)]
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.run_op(op.name, lambda: cli.main(argv))
        except Exception as exc:  # a traceback is a failed operation, not a crash
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        now = probe()
        results.append((seconds, code, buf.getvalue(),
                         2 * REFERENCE_PROBE_S / (last + now)))
        last = now
    return results


class Ledger:
    """Checks every operation of every pass and keeps the outcome."""

    def __init__(self, ops):
        self.ops = ops
        self.state = workloads.CheckState()
        self.first = {}
        self.failures = []          # (pass, op name, reason)
        self.attempted = 0
        self.max_rel_err = 0.0

    def record(self, index, results):
        self.state.volumes.clear()
        for op, (_, code, text, _) in zip(self.ops, results):
            self.attempted += 1
            reason = self._reason(op, code, text)
            if reason:
                self.failures.append((index, op.name, reason))

    def _reason(self, op, code, text):
        if code != 0:
            return f"exit {code}: {text.strip()[:200]}"
        if self.first.setdefault(op.name, text) != text:
            return "payload differs from the first pass with the same seed"
        reason, rel = workloads.check(op, json.loads(text), self.state)
        if rel is not None:
            self.max_rel_err = max(self.max_rel_err, rel)
        return reason

    def negative_control(self, results):
        """Every corruptible expectation must turn a passing answer into a failure."""
        caught = 0
        for op, (_, code, text, _) in zip(self.ops, results):
            bad = workloads.corrupted(op)
            if bad is None or code != 0:
                continue
            reason, _ = workloads.check(bad, json.loads(text), self.state)
            if reason is None:
                raise SystemExit(f"error: oracle accepted a corrupted "
                                 f"expectation for {op.name}")
            caught += 1
        if not caught:
            raise SystemExit("error: no operation has a negative control")
        return caught


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def end_to_end(passes, ops, setup_s):
    """End-to-end metrics of the untraced passes, at the reference probe speed.

    Each operation's time is the median over passes of its rescaled seconds;
    `wall_s` sums them over the operations.
    """
    per_op = [statistics.median(p[i][0] * p[i][3] for p in passes)
              for i in range(len(ops))]
    per_cmd = {f"{cmd}_s": sum(t for op, t in zip(ops, per_op)
                               if op.command == cmd)
               for cmd in COMMANDS if any(op.command == cmd for op in ops)}
    return {
        "setup_s": setup_s,
        "wall_s": sum(per_op),
        "op_p50_s": percentile(per_op, 50),
        "op_p90_s": percentile(per_op, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, per_cmd


def pass_wall(results):
    """Raw seconds of one pass."""
    return sum(r[0] for r in results)


def op_table(ops, passes):
    return [{"op": op.name,
             "scaled_s": statistics.median(p[i][0] * p[i][3] for p in passes),
             "raw_s": [p[i][0] for p in passes],
             "speed_factor": [p[i][3] for p in passes], **op.props}
            for i, op in enumerate(ops)]


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def environment():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "blas_threads": os.environ["OMP_NUM_THREADS"],
            "platform": platform.platform(), "commit": git_commit()}


def print_report(report, e2e, layer, ledger):
    """Every metric by name with its unit, the per-op table and each failure."""
    n = len(report["ops"])
    passes = report["passes"]["untraced"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  passes {passes} untraced + "
          f"{report['passes']['traced']} traced  operations {n}")
    for row in report["ops"]:
        extra = " ".join(f"{k}={v}" for k, v in row.items()
                         if k not in ("op", "scaled_s", "raw_s", "speed_factor"))
        print(f"  op {row['op']:<32} {row['scaled_s']:9.4f} s  {extra}")
    lines = [(name, value, "s", "") for name, value
             in sorted(report["per_command_s"].items())]
    lines += [
        ("setup_s", e2e["setup_s"], "s",
         f"median of {len(report['setup_runs_s'])} fresh interpreters, "
         f"rescaled; raw median {statistics.median(report['setup_runs_s']):.4f} s"),
        ("wall_s", e2e["wall_s"], "s",
         f"rescaled, median of {passes} passes; raw median "
         f"{statistics.median(report['pass_wall_s']):.4f} s"),
        ("op_p50_s", e2e["op_p50_s"], "s", f"{n} operations x {passes} passes"),
        ("op_p90_s", e2e["op_p90_s"], "s", f"{n} operations x {passes} passes"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", ""),
        ("fail_frac", report["fail_frac"], "ratio",
         f"{len(ledger.failures)} of {ledger.attempted} operations"),
        ("max_rel_err", report["max_rel_err"], "ratio", ""),
    ]
    if layer is not None:
        for name, value in layer.items():
            base = tracing.BASES.get(name)
            note = f"per {base} = {layer[base]:g}" if base else ""
            lines.append((name, value, report["units"][name], note))
    for name, value, unit, note in lines:
        print(f"  {name:<32} {value:<14.6g} {unit:<6} {note}".rstrip())
    if layer is not None:
        gap = abs(layer["trace.self_sum_s"] - layer["trace.untraced_wall_s"])
        print(f"  self times sum to {layer['trace.self_sum_s']:.4f} s against "
              f"untraced wall {layer['trace.untraced_wall_s']:.4f} s: gap "
              f"{gap:.4f} s, tracing overhead {layer['trace.overhead_s']:.4f} s")
    print(f"  negative controls caught: {report['negative_controls']}")
    for failure in report["failures"]:
        print(f"  FAILED pass {failure['pass']} {failure['op']}: "
              f"{failure['reason']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for checking the harness itself")
    args = ap.parse_args(argv)

    bench, units = load_benchmark()
    import_program()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs = OUT / f"{args.workload}-seed{args.seed}"
    ops = workloads.make_ops(args.workload, args.seed, ROOT, inputs,
                             smoke=args.smoke)
    setup_s, setup_runs = measure_setup(sorted({str(op.problem) for op in ops}))

    ledger = Ledger(ops)
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results = run_pass(ops, args.seed)
        plain.append(results)
        ledger.record(len(plain) + len(traced), results)
        if len(plain) == 1:
            controls = ledger.negative_control(results)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                results = run_pass(ops, args.seed, tracer)
            finally:
                tracer.restore()
            traced.append(results)
            tracers.append(tracer)
            ledger.record(len(plain) + len(traced), results)
        cycle = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        enough = len(plain) + len(traced) >= 2
        if enough and elapsed + cycle > args.seconds:
            break

    e2e, per_cmd = end_to_end(plain, ops, setup_s)
    failed = len(ledger.failures)
    fail_frac = failed / ledger.attempted
    if args.trace:
        layer = {}
        per_pass = [t.metrics() for t in tracers]
        for name in per_pass[0]:
            layer[name] = statistics.median_low(m[name] for m in per_pass)
        # medians of whole passes, like the layer metrics above
        traced_wall = statistics.median(pass_wall(p) for p in traced)
        plain_wall = statistics.median(pass_wall(p) for p in plain)
        layer["trace.wall_s"] = traced_wall
        layer["trace.untraced_wall_s"] = plain_wall
        layer["trace.overhead_s"] = traced_wall - plain_wall
        for cmd in COMMANDS:
            layer[f"cmd.{cmd}_s"] = per_cmd.get(f"{cmd}_s", 0.0)
        layer["check.fail_frac"] = fail_frac
        layer["check.max_rel_err"] = ledger.max_rel_err
        wanted = [m["name"] for m in bench["per_layer"]]
        source = layer
        tracers[-1].dump(OUT / f"spans-{tag}.jsonl",
                         {"workload": args.workload, "seed": args.seed})
    else:
        wanted = [m["name"] for m in bench["end_to_end"]]
        source = e2e
    metrics = {name: {"value": source[name], "unit": units[name]}
               for name in wanted}

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "environment": environment(),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "pass_wall_s": [pass_wall(p) for p in plain],
        "setup_runs_s": setup_runs,
        "per_command_s": per_cmd, "fail_frac": fail_frac,
        "max_rel_err": ledger.max_rel_err, "negative_controls": controls,
        "failures": [{"pass": p, "op": name, "reason": why}
                     for p, name, why in ledger.failures],
        "ops": op_table(ops, plain), "metrics": metrics, "units": units,
    }
    if args.trace:
        report["layer_metrics"] = layer
    (OUT / f"result-{tag}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print_report(report, e2e, layer if args.trace else None, ledger)
    print(json.dumps({"correct": failed == 0, "attempted": ledger.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
