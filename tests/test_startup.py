"""numpy is imported on first use: checks in fresh interpreters.

The rest of the suite imports numpy before eulerint, so it never takes the
lazy path; these tests start a new interpreter for it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eulerint
from eulerint.cli import main

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
SRC = Path(eulerint.__file__).resolve().parents[1]
COMMANDS = ("chi", "vol", "gkz", "integrate", "relations")

# parse every shipped problem, run vol and gkz on each, and run every command
# on inputs refused at parse time; print the exit codes and whether numpy's
# __init__ ran (it imports numpy._core)
_NO_NUMERIC_WORK = """
import contextlib, io, json, sys
from eulerint import cli
problems, refused = json.loads(sys.argv[1]), json.loads(sys.argv[2])
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for path in problems:
        cli.build_spec(cli.load_problem(path))
        codes += [cli.main([command, path]) for command in ("vol", "gkz")]
    codes += [cli.main([command, path]) for command in %r for path in refused]
print(json.dumps({"codes": codes, "numpy_ran": "numpy._core" in sys.modules}))
""" % (COMMANDS,)


def _fresh(args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.stderr == ""
    return done


def test_vol_gkz_and_refused_inputs_never_run_numpy(tmp_path):
    problems = sorted(str(p) for p in PROBLEMS.glob("*.json"))
    assert problems
    bad_json = tmp_path / "bad_json.json"
    bad_json.write_text("{not json")
    bad_poly = tmp_path / "bad_poly.json"
    bad_poly.write_text(json.dumps({"f": ["x +* 1"], "s": [1], "nu": [1]}))
    refused = [str(tmp_path / "missing.json"), str(bad_json), str(bad_poly)]
    done = _fresh(["-c", _NO_NUMERIC_WORK, json.dumps(problems),
                   json.dumps(refused)])
    result = json.loads(done.stdout)
    assert result["codes"] == ([0] * (2 * len(problems))
                               + [3] * (len(COMMANDS) * len(refused)))
    assert result["numpy_ran"] is False


@pytest.mark.parametrize("command, problem", [
    ("chi", "hexagon"), ("integrate", "two_points"),
    ("relations", "two_points")])
def test_fresh_interpreter_prints_the_same(capsys, command, problem):
    path = str(PROBLEMS / f"{problem}.json")
    assert main([command, path]) == 0
    in_process = capsys.readouterr().out
    done = _fresh(["-m", "eulerint.cli", command, path])
    assert done.returncode == 0
    assert done.stdout == in_process
