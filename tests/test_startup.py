"""eulerint's modules and numpy are imported on first use: checks in fresh
interpreters.

The rest of the suite imports numpy and every module of eulerint up front,
so it never takes the lazy path, and an import missing where a module is
first used would not show there; these tests start a new interpreter for it.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eulerint
from eulerint.cli import main

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"
SRC = Path(eulerint.__file__).resolve().parents[1]
COMMANDS = ("chi", "vol", "gkz", "integrate", "relations")


# the (command, problem) pairs that scripts/run_examples.py runs
_spec = importlib.util.spec_from_file_location(
    "run_examples", ROOT / "scripts" / "run_examples.py")
_examples = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_examples)
PLAN = [(command, Path(name).stem)
        for name, commands in _examples.PLAN for command in commands]

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


# every run of scripts/run_examples.py, each in its own interpreter
@pytest.mark.parametrize("command, problem", PLAN)
def test_fresh_interpreter_prints_the_same(capsys, command, problem):
    path = str(PROBLEMS / f"{problem}.json")
    code = main([command, path])
    in_process = capsys.readouterr().out
    done = _fresh(["-m", "eulerint.cli", command, path])
    assert (done.returncode, done.stdout) == (code, in_process)


# import eulerint, import cli and parse every shipped problem; print the
# eulerint modules loaded after each step
_PARSE_ONLY = """
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m.startswith("eulerint"))
import eulerint
steps = [loaded()]
from eulerint import cli
for path in sys.argv[1:]:
    cli.build_spec(cli.load_problem(path))
print(json.dumps(steps + [loaded()]))
"""


def test_parsing_loads_no_command_module():
    problems = sorted(str(p) for p in PROBLEMS.glob("*.json"))
    done = _fresh(["-c", _PARSE_ONLY, *problems])
    assert json.loads(done.stdout) == [
        ["eulerint"],
        ["eulerint", "eulerint._lazy", "eulerint.cli", "eulerint.laurent"]]


# run one command; print the eulerint modules it loaded
_ONE_COMMAND = """
import contextlib, io, json, sys
from eulerint import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("eulerint."))]))
"""


# the modules each command loads besides _lazy, cli and laurent
_LOADS = {"chi": ["critical", "intlinalg", "polytope"],
          "vol": ["intlinalg", "polytope"],
          "gkz": ["gkz", "intlinalg", "polytope"],
          "integrate": ["twisted"],
          "relations": ["relations", "twisted"]}


@pytest.mark.parametrize("command", _LOADS)
def test_command_loads_only_its_modules(command):
    done = _fresh(["-c", _ONE_COMMAND, command,
                   str(PROBLEMS / "two_points.json")])
    code, loaded = json.loads(done.stdout)
    assert code == 0
    assert loaded == sorted(f"eulerint.{m}"
                            for m in ["_lazy", "cli", "laurent", *_LOADS[command]])


def test_public_names_resolve_to_their_modules():
    assert eulerint.__all__ == [
        "AnnOperator", "BranchCurve", "CayleyConfig", "Cocycle",
        "IntegrandSpec", "LatticePointSet", "LaurentPoly", "LogForm",
        "OutsideDomainError", "PairingMatrix", "ParseError", "PolySystem",
        "Relation", "SolutionSet", "TrackerSettings", "TwistedCycle",
        "VolumeReport", "build_system", "cayley_matrix", "cayley_support",
        "critical", "euler_characteristic", "euler_operators", "facets",
        "format_poly", "gkz", "integrate_loop", "intlinalg", "is_nonresonant",
        "lattice_kernel", "laurent", "mellin_relation", "nabla_apply",
        "normalized_volume", "nullspace", "omega_components", "operator_form",
        "pairing_matrix", "parse_poly", "polytope", "principal_branch_value",
        "rank_bound", "relations", "relations_agree", "solve", "twisted",
        "verify_numeric"]
    for name in eulerint.__all__:
        value = getattr(eulerint, name)
        if inspect.ismodule(value):
            assert value is importlib.import_module(f"eulerint.{name}")
        else:
            home = importlib.import_module(value.__module__)
            assert value is getattr(home, name)
    with pytest.raises(AttributeError):
        eulerint.no_such_name
