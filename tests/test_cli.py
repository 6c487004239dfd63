import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eulerint import cli, critical, gkz, polytope, relations, twisted
from eulerint.cli import main
from eulerint.laurent import parse_poly

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def run(capsys, argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# -- happy paths over the shipped problem files ----------------------------

def test_chi_lines(capsys):
    code, out = run(capsys, ["chi", PROBLEMS / "lines.json", "--seed", "1"])
    assert code == 0
    assert out["chi"] == 2
    assert out["count"] == 2
    assert out["certified"] is True


def test_chi_hexagon(capsys):
    code, out = run(capsys, ["chi", PROBLEMS / "hexagon.json"])
    assert code == 0
    assert (out["chi"], out["count"]) == (6, 6)


def test_vol_hexagon(capsys):
    code, out = run(capsys, ["vol", PROBLEMS / "hexagon.json"])
    assert code == 0
    assert out["normalized_volume"] == 6
    assert out["affine_dim"] == 2


def test_integrate_reference(capsys):
    code, out = run(capsys, ["integrate", PROBLEMS / "two_points.json"])
    assert code == 0
    def as_complex(v):
        return complex(*v) if isinstance(v, list) else complex(v)

    M = np.array([[as_complex(v) for v in row] for row in out["matrix"]])
    ref = np.array([[-3.496j, 4.144j, -0.648j], [3.496, 0.648, -4.144]])
    assert np.max(np.abs(M - ref)) < 5e-3
    assert max(out["closure_residuals"]) < 1e-6
    kernel = out["kernel"]
    assert len(kernel) == 1


def test_relations_operator_problem(capsys):
    code, out = run(capsys, ["relations", PROBLEMS / "quadratic_operator.json"])
    assert code == 0
    assert out["relations"]
    assert out["relations"][0]["source"] == "operator"
    for entry in out["residuals"]:
        assert all(r < 1e-3 for r in entry["residuals"])


def test_gkz_hexagon(capsys):
    code, out = run(capsys, ["gkz", PROBLEMS / "hexagon.json"])
    assert code == 0
    assert out["matrix"] == [[1, 1, 2, 2, 3, 3], [2, 3, 1, 3, 1, 2],
                             [1, 1, 1, 1, 1, 1]]
    assert out["rank_bound"] == 6
    assert len(out["kernel_basis"]) == 3
    assert len(out["operators"]["euler"]) == 3


@pytest.mark.parametrize("command", ["gkz", "vol", "chi"])
def test_each_call_places_once(monkeypatch, capsys, command):
    # gkz reads its facets and its rank bound off one placing; nothing is
    # kept from one call for the next
    place, calls = polytope._place, []

    def spy(points):
        calls.append(points)
        return place(points)

    monkeypatch.setattr(polytope, "_place", spy)
    for made in (1, 2):
        assert main([command, str(PROBLEMS / "hexagon.json")]) == 0
        assert len(calls) == made
    capsys.readouterr()


@pytest.mark.parametrize("problem", [
    *(json.loads((PROBLEMS / f"{name}.json").read_text())
      for name in ("hexagon", "lines", "quadratic_operator", "two_points")),
    # the flat support of ROADMAP "Re-checked": affine_dim 2, volume 1
    {"f": [[[[1, 0, 2], 1], [[2, 0, 2], -5], [[0, 3, 3], 5]]]},
    {"f": ["x^3*y + x*y^2 + 2*y + x + 1"]},
    {"f": ["x^2 - 3*x + 2", "x + 5"]},
    {"f": ["x*y*z + x^2 + y^2*z + z^3 + 1"]},
    {"f": ["x^2 + x*y + y + 1", "x*y^2 + 2*x + 3"]}])
def test_gkz_bound_and_facets_match_vol_and_polytope(tmp_path, capsys, problem):
    path = _problem(tmp_path, problem)
    code, vol = run(capsys, ["vol", path])
    assert code == 0
    code, out = run(capsys, ["gkz", path])
    assert code == 0
    assert out["rank_bound"] == vol["normalized_volume"]
    points = polytope.cayley_support(cli.build_spec(problem))
    assert [tuple(c["facet_normal"]) for c in out["certificates"]] == (
        polytope.facets(points))


# x + x^-1 - 3 is cleared by the shift x^1; both spellings have the two roots
# of x^2 - 3x + 1 in C*
@pytest.mark.parametrize("text, chi", [("x^2 - 3*x + 1", -2),
                                       ("x + x^-1 - 3", -2),
                                       ("1.5/2*x - 1", -1)])
def test_chi_one_variable(tmp_path, capsys, text, chi):
    code, out = run(capsys, ["chi", _problem(tmp_path, {"f": [text]})])
    assert code == 0
    assert out["chi"] == chi


# the Cayley points (1,0,2,1), (2,0,2,1) and (0,3,3,1) span a plane, short of
# n + ell - 1 = 3 dimensions: chi = 0 exactly, read off without tracking
@pytest.mark.parametrize("seed", range(4))
def test_chi_flat_support_is_zero(tmp_path, capsys, monkeypatch, seed):
    monkeypatch.setattr(critical, "solve_draws", None)
    problem = {"f": [[[[1, 0, 2], 1], [[2, 0, 2], -5], [[0, 3, 3], 5]]]}
    code, out = run(capsys, ["chi", _problem(tmp_path, problem), "--seed", seed])
    assert code == 0
    assert (out["chi"], out["count"], out["certified"]) == (0, 0, True)


def test_chi_transient_overflow_is_silent(tmp_path, capsys):
    # correctors overshoot past |x|^150 ~ 1e308 and recover; no path fails
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(capsys, ["chi", _problem(tmp_path, {"f": ["x^150 - 2"]})])
    assert code == 0
    assert (out["count"], out["certified"]) == (150, True)
    assert not caught


# -- the first draw at the volume bound vol x index decides ----------------

def test_chi_bound_saves_evaluations(capsys, monkeypatch):
    values = critical._Homotopy._values
    calls = []

    def counted(self, *args):
        calls.append(1)
        return values(self, *args)

    monkeypatch.setattr(critical._Homotopy, "_values", counted)
    argv = ["chi", PROBLEMS / "hexagon.json", "--seed", 0]
    bounded, evaluations = run(capsys, argv), len(calls)
    solve_draws = critical.solve_draws
    monkeypatch.setattr(critical, "solve_draws",
                        lambda systems, seeds, bound: solve_draws(systems, seeds))
    calls.clear()
    payload = {"certified": True, "chi": 6, "count": 6, "draws": 2, "seed": 0}
    assert run(capsys, argv) == bounded == (0, payload)
    assert evaluations < len(calls)


# vol 1 x index 5; without the bound, each draw's third run leaves failed paths
@pytest.mark.parametrize("seed", range(4))
def test_chi_at_the_bound_is_certified(tmp_path, capsys, seed):
    problem = {"f": [[[[1, 0, 1], -2], [[0, 1, 2], -9], [[2, 1, 3], -9],
                      [[2, 2, 2], 7]]]}
    code, out = run(capsys, ["chi", _problem(tmp_path, problem), "--seed", seed])
    assert code == 0
    assert (out["count"], out["certified"]) == (5, True)


# One draw holding vol x index points decides chi.  Each of these exited 2
# on disagreeing draws when every draw had to reach the bound: gen3 of the
# perfbench homotopy workload at seed 7101, run at --seed 7101, on [4, 3],
# and cayley1 of the exact workload at seed 977, run at --seed 0, on [22, 21].
_GEN3_7101 = {"f": [[[[0, 1, 0], [0.8516119600831107, 0.653529154224537]],
                     [[0, 0, 0], [1.7033800916967201, -0.27526829911565964]],
                     [[0, 0, 1], [1.122645880888749, 0.3744008445977711]],
                     [[1, 0, 0], [1.9195105392633398, -0.33000613730078454]]],
                    [[[0, 0, 1], [0.7516456618025082, 0.864966471823535]],
                     [[0, 0, 0], [1.0608612932265642, 0.5158441943142169]],
                     [[0, 1, 0], [1.1871835767237027, 0.7260518392827993]],
                     [[1, 0, 0], [1.5445367682719318, 0.8056081277779197]]]],
              "s": ["1/2", "1/2"], "nu": ["1/3", "1/5", "1/7"]}
_CAYLEY1_977 = {"f": [[[[0, 0], 2], [[0, 1], 3], [[0, 2], 1], [[1, 2], 4],
                       [[2, 0], 2], [[2, 1], 3], [[2, 2], 3]],
                      [[[0, 2], 5], [[1, 0], 1], [[1, 1], 5], [[1, 2], 3],
                       [[2, 0], 2], [[2, 1], 3], [[2, 2], 5]]],
                "s": ["1/2", "1/2"], "nu": ["1/3", "1/5"]}


@pytest.mark.parametrize("problem, seed, count", [(_GEN3_7101, 7101, 4),
                                                  (_CAYLEY1_977, 0, 22)])
def test_chi_one_draw_at_the_bound_decides(tmp_path, capsys, problem, seed, count):
    path = _problem(tmp_path, problem)
    code, vol = run(capsys, ["vol", path])
    assert (code, vol["normalized_volume"]) == (0, count)   # index 1
    code, out = run(capsys, ["chi", path, "--seed", seed])
    assert code == 0
    assert (out["count"], out["certified"]) == (count, True)


# the four critical points lie at |x| about (0.73, 6e-16) and (2e-16, 6.8),
# which the filter drops
@pytest.mark.parametrize("seed", range(4))
def test_chi_short_uncertified_count_exit_2(tmp_path, capsys, seed):
    problem = {"f": ["1e30*x^2*y^2 + x + y + 1"]}
    code, out = run(capsys, ["chi", _problem(tmp_path, problem), "--seed", seed])
    assert code == 2
    assert out["error"] == {"type": "numerical-failure", "message":
                            "the draws agree on 0 critical points, below the "
                            "bound 4 = volume x index, and paths failed"}


def test_terms_form_agrees_with_function_form(tmp_path, capsys):
    # the function g f^a x^b is the term (k = 1, g, a, b + 1)
    forms = [{"function": "x - 3", "a": [1, 0], "b": [0]},
             {"terms": [{"k": 1, "g": "x - 3", "a": [1, 0], "b": [1]}]}]
    path = _two_points(tmp_path, forms=forms, cycles=None)
    code, out = run(capsys, ["relations", path])
    assert code == 0
    first, second = out["relations"]
    assert first["terms"] and first["terms"] == second["terms"]
    assert out["agreement"] == [{"i": 0, "j": 1, "agree": True}]


def test_term_list_repeats_add_up_as_text_does():
    # keeping only the last coefficient of the exponent (1,) would give 3x + 1
    listed = cli.parse_polynomial([[[1], 2], [[1], 3], [[0], 1]])
    assert listed == cli.parse_polynomial("2*x + 3*x + 1") == parse_poly("5*x + 1")


def test_real_pairs_match_rational_exponents(tmp_path, capsys):
    code, rational = run(capsys, ["integrate", PROBLEMS / "two_points.json"])
    assert code == 0
    code, pairs = run(capsys, ["integrate",
                               _two_points(tmp_path, s=[[0.5, 0], [0.5, 0]])])
    assert code == 0
    assert pairs == rational


def test_gkz_complex_exponent(tmp_path, capsys):
    # u . kappa = 1 + 0.1i on the facet u = (-1, 1): off the real line
    code, out = run(capsys, ["gkz", _problem(tmp_path, {"f": ["x - 1"],
                                                        "s": [[0.5, 0.1]]})])
    assert code == 0
    assert out["kappa"] == [-0.5, [0.5, 0.1]]
    pairings = {tuple(c["facet_normal"]): c["kappa_pairing"]
                for c in out["certificates"]}
    assert pairings == {(-1, 1): [1.0, 0.1], (1, 0): [-0.5, 0.0]}
    assert out["nonresonant"] is True


# -- determinism and IO plumbing -------------------------------------------

def test_chi_deterministic_for_fixed_seed(capsys):
    _, a = run(capsys, ["chi", PROBLEMS / "hexagon.json", "--seed", "7"])
    _, b = run(capsys, ["chi", PROBLEMS / "hexagon.json", "--seed", "7"])
    assert a == b


def test_stdin_input(capsys, monkeypatch):
    payload = (PROBLEMS / "hexagon.json").read_text()
    monkeypatch.setattr(sys, "stdin", __import__("io").StringIO(payload))
    code, out = run(capsys, ["vol", "-"])
    assert code == 0
    assert out["normalized_volume"] == 6


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code = main(["vol", str(PROBLEMS / "hexagon.json"), "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["normalized_volume"] == 6


# a path that cannot be written is refused on stdout, for a result and for
# an error payload alike
@pytest.mark.parametrize("problem", ["hexagon.json", "no_such_file.json"])
@pytest.mark.parametrize("target", ["missing_dir/x.json", "."])
def test_unwritable_out_exit_3(tmp_path, capsys, problem, target):
    out_path = tmp_path / target
    code, out = run(capsys, ["vol", PROBLEMS / problem, "--out", out_path])
    assert code == 3
    assert out["error"]["type"] == "invalid-input"
    assert out["error"]["message"].startswith(f"cannot write {out_path}: ")
    assert not (tmp_path / "missing_dir").exists()


@pytest.mark.parametrize("obj, read, code", [
    # an error payload of about 200 KB, of which the reader takes 10 bytes
    ({"f": [[list(range(30000))]]}, 10, 3),
    # a short result payload, written after the reader has gone
    ({"f": ["x^2 - 3*x + 1"]}, 0, 0)])
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_reader_closing_stdout_early_keeps_exit_code(tmp_path, obj, read, code,
                                                     unbuffered):
    # a fresh interpreter, so that stdout is a real pipe and the flush at exit runs
    (tmp_path / "p.json").write_text(json.dumps(obj))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               PYTHONUNBUFFERED=unbuffered)
    with subprocess.Popen([sys.executable, "-m", "eulerint.cli", "vol",
                           str(tmp_path / "p.json")], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        assert proc.wait(timeout=300) == code
        assert proc.stderr.read() == b""


# -- error handling --------------------------------------------------------

def test_missing_file_exit_3(capsys):
    code, out = run(capsys, ["chi", PROBLEMS / "no_such_file.json"])
    assert code == 3
    assert out["error"]["type"] == "invalid-input"


@pytest.mark.parametrize("from_stdin", [False, True])
def test_deeply_nested_json_exit_3(tmp_path, capsys, monkeypatch, from_stdin):
    text = "[" * 100_000
    if from_stdin:
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        argv = ["chi", "-"]
    else:
        (tmp_path / "deep.json").write_text(text)
        argv = ["chi", tmp_path / "deep.json"]
    code, out = run(capsys, argv)
    assert code == 3
    assert out["error"] == {"type": "invalid-input",
                            "message": "invalid JSON: nested too deeply"}


def test_invalid_json_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(capsys, ["chi", bad])
    assert code == 3


def test_bad_polynomial_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"f": ["x +* 1"], "s": [1], "nu": [1]}))
    code, out = run(capsys, ["chi", bad])
    assert code == 3


def test_non_annihilating_operator_exit_3(tmp_path, capsys):
    obj = json.loads((PROBLEMS / "quadratic_operator.json").read_text())
    obj["operators"][0]["q"] = "x"
    bad = tmp_path / "bad_op.json"
    bad.write_text(json.dumps(obj))
    code, out = run(capsys, ["relations", bad])
    assert code == 3


def test_open_cycle_exit_2(tmp_path, capsys):
    # a triangle around only one half-integer branch point cannot close
    obj = json.loads((PROBLEMS / "two_points.json").read_text())
    obj["cycles"] = [{"A": [0.7, 0.3], "B": [0.7, -0.3], "C": [1.4, 0.0],
                      "phi": "principal"}]
    bad = tmp_path / "open.json"
    bad.write_text(json.dumps(obj))
    code, out = run(capsys, ["integrate", bad])
    assert code == 2
    assert out["error"]["type"] == "numerical-failure"


def test_integrate_multivariate_exit_2(tmp_path, capsys):
    obj = json.loads((PROBLEMS / "hexagon.json").read_text())
    obj["cycles"] = [{"A": [0.5, 1.0], "B": [0.5, -1.0], "C": [3.0, 0.0],
                      "phi": "principal"}]
    obj["cocycles"] = [{"a": [0], "b": 0}]
    bad = tmp_path / "multi.json"
    bad.write_text(json.dumps(obj))
    code, out = run(capsys, ["integrate", bad])
    assert code == 2


def test_draw_disagreement_exit_2(tmp_path, capsys, monkeypatch):
    def solve_draws(systems, seeds, bound):
        return tuple(critical.SolutionSet(solutions=(), residuals=(), raw_paths=0,
                                          converged=0, filtered=0,
                                          distinct=count, failed_paths=0)
                     for count in (3, 4))

    monkeypatch.setattr(critical, "solve_draws", solve_draws)
    code, out = run(capsys, ["chi", _problem(tmp_path, {"f": ["x - 1"]})])
    assert code == 2
    assert out["error"]["type"] == "numerical-failure"
    assert "[3, 4]" in out["error"]["message"]


# -- main alone maps an exception class to an exit code --------------------

# one library call that each command makes
_LIBRARY_CALL = {"chi": (critical, "euler_characteristic"),
                 "vol": (polytope, "normalized_volume"),
                 "integrate": (twisted, "pairing_matrix"),
                 "relations": (relations, "nabla_apply"),
                 "gkz": (gkz, "is_nonresonant")}


def _raising(monkeypatch, command, exc):
    def fail(*args, **kwargs):
        raise exc("raised by the library")

    monkeypatch.setattr(*_LIBRARY_CALL[command], fail)


@pytest.mark.parametrize("command", sorted(_LIBRARY_CALL))
@pytest.mark.parametrize("exc, code, kind", [
    (ValueError, 3, "invalid-input"),
    (OverflowError, 3, "invalid-input"),
    (FloatingPointError, 3, "invalid-input"),
    (RuntimeError, 2, "numerical-failure"),
    (twisted.SegmentError, 2, "numerical-failure"),
    (twisted.CycleClosureError, 2, "numerical-failure"),
    (NotImplementedError, 2, "numerical-failure")])
def test_exception_class_sets_exit_code(capsys, monkeypatch, command, exc, code,
                                        kind):
    _raising(monkeypatch, command, exc)
    assert run(capsys, [command, PROBLEMS / "two_points.json"]) == (
        code, {"error": {"type": kind, "message": "raised by the library"}})


@pytest.mark.parametrize("command", sorted(_LIBRARY_CALL))
@pytest.mark.parametrize("exc", [TypeError, ZeroDivisionError])
def test_programming_error_propagates(monkeypatch, command, exc):
    _raising(monkeypatch, command, exc)
    with pytest.raises(exc, match="raised by the library"):
        main([command, str(PROBLEMS / "two_points.json")])


# -- exit codes of the pairing path ----------------------------------------

def _two_points(tmp_path, **changes):
    obj = json.loads((PROBLEMS / "two_points.json").read_text())
    for key, value in changes.items():
        if value is None:
            del obj[key]
        else:
            obj[key] = value
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(obj))
    return path


def test_single_node_setting_exit_3(tmp_path, capsys):
    path = _two_points(tmp_path, settings={"nodes": 1})
    for command in ("integrate", "relations"):
        code, out = run(capsys, [command, path])
        assert code == 3
        assert out["error"]["type"] == "invalid-input"


def test_single_node_option_exit_3(capsys):
    code, out = run(capsys, ["integrate", PROBLEMS / "two_points.json",
                             "--nodes", "1"])
    assert code == 3
    assert out["error"]["type"] == "invalid-input"


def test_non_integer_nodes_exit_3(tmp_path, capsys):
    path = _two_points(tmp_path, settings={"nodes": "many"})
    code, out = run(capsys, ["integrate", path])
    assert code == 3


def test_irrational_exponent_exit_3(tmp_path, capsys):
    path = _two_points(tmp_path, s=[0.1, "1/2"])
    for command in ("integrate", "relations"):
        code, out = run(capsys, [command, path])
        assert code == 3
        assert out["error"]["type"] == "invalid-input"


def test_form_term_without_g_exit_3(tmp_path, capsys):
    path = _two_points(tmp_path, forms=[{"terms": [{"k": 1, "a": [0, 0],
                                                    "b": [0]}]}])
    code, out = run(capsys, ["relations", path])
    assert code == 3
    assert out["error"]["type"] == "invalid-input"


def test_default_exponents_are_one_half(tmp_path, capsys):
    # two_points.json spells out s = (1/2, 1/2) and nu = 1/2, the defaults
    code, full = run(capsys, ["integrate", PROBLEMS / "two_points.json"])
    assert code == 0
    code, out = run(capsys, ["integrate", _two_points(tmp_path, s=None,
                                                      nu=None)])
    assert code == 0
    assert out["matrix"] == full["matrix"]


@pytest.mark.parametrize("a", [[-1], [-1, 0, 5]])
def test_cocycle_wrong_length_exit_3(tmp_path, capsys, a):
    path = _two_points(tmp_path, cocycles=[{"a": a, "b": 1}])
    code, out = run(capsys, ["integrate", path])
    assert code == 3
    assert out["error"]["type"] == "invalid-input"


def test_branch_collapse_exit_2(tmp_path, capsys):
    path = _two_points(tmp_path, cycles=[{"A": [0.5, 1.0], "B": [0.5, -1.0],
                                          "C": [3.0, 0.0], "phi": 0}])
    code, out = run(capsys, ["integrate", path])
    assert code == 2
    assert out["error"]["type"] == "numerical-failure"


@pytest.mark.parametrize("phi", ["principal", 1.0])
def test_vertex_on_singularity_exit_3(tmp_path, capsys, phi):
    path = _two_points(tmp_path, cycles=[{"A": [1.0, 0.0], "B": [0.5, -1.0],
                                          "C": [3.0, 0.0], "phi": phi}])
    code, out = run(capsys, ["integrate", path])
    assert code == 3
    assert out["error"]["type"] == "invalid-input"


def test_overflowing_branch_exit_2(tmp_path, capsys):
    # y^2 overflows, the tracked values turn NaN and cannot close
    path = _two_points(tmp_path, cycles=[{"A": [0.5, 1.0], "B": [0.5, -1.0],
                                          "C": [3.0, 0.0], "phi": [1e300, 0]}])
    code, out = run(capsys, ["integrate", path])
    assert code == 2
    assert out["error"]["type"] == "numerical-failure"


# -- one pairing pass per cycle for the kernel and the residuals -----------

def test_relations_tracks_each_cycle_once(capsys, monkeypatch):
    calls = []
    track = twisted.track_line_segment

    def counted(*args, **kwargs):
        calls.append(args)
        return track(*args, **kwargs)

    monkeypatch.setattr(twisted, "track_line_segment", counted)
    code, out = run(capsys, ["relations", PROBLEMS / "two_points.json"])
    assert code == 0 and out["kernel"] and out["residuals"]
    assert len(calls) == 3 * 2    # three edges of each of the two triangles


@pytest.mark.parametrize("obj", [
    dict(json.loads((PROBLEMS / "two_points.json").read_text()),
         forms=[{"function": "1"}, {"function": "x"}]),
    json.loads((PROBLEMS / "quadratic_operator.json").read_text())])
def test_residuals_equal_verify_numeric(tmp_path, capsys, obj):
    code, out = run(capsys, ["relations", _problem(tmp_path, obj)])
    assert code == 0
    spec = cli.differentiable_spec(obj)
    produced = ([relations.nabla_apply(phi, spec) for phi in cli.build_forms(obj, spec)]
                + [relations.mellin_relation(P, spec)
                   for P in cli.build_operators(obj, spec)])
    cycles = cli.build_cycles(obj, spec)
    N = obj.get("settings", {}).get("nodes", twisted.DEFAULT_NODES)
    assert [entry["residuals"] for entry in out["residuals"]] == [
        [abs(relations.verify_numeric(r, cyc, spec, N)) for cyc in cycles]
        for r in produced]


@pytest.mark.parametrize("changes, keys", [
    ({"cocycles": None}, {"relations", "agreement", "residuals", "seed"}),
    ({"forms": None}, {"relations", "agreement", "kernel", "seed"}),
    ({"cycles": None}, {"relations", "agreement", "seed"}),
    ({"cocycles": None, "forms": [{"function": "0"}]},
     {"relations", "agreement", "residuals", "seed"}),
    ({"forms": [{"function": "0"}]},
     {"relations", "agreement", "kernel", "residuals", "seed"}),
])
def test_relations_payload_keys(tmp_path, capsys, changes, keys):
    code, out = run(capsys, ["relations", _two_points(tmp_path, **changes)])
    assert code == 0
    assert set(out) == keys
    if changes.get("forms"):   # a zero form: a zero relation, residuals 0.0
        assert out["relations"][0]["terms"] == []
        assert out["residuals"] == [{"source": "form", "residuals": [0.0, 0.0]}]


def test_relations_multivariate_exit_2(tmp_path, capsys):
    hexagon = json.loads((PROBLEMS / "hexagon.json").read_text())
    # cocycles; or a relation to check on a cycle, and no cocycles
    form = {"terms": [{"k": 1, "g": "x", "a": [0], "b": [0, 0]}]}
    for obj in (dict(hexagon, cycles=_TWO_POINTS["cycles"],
                     cocycles=[{"a": [0], "b": 0}]),
                dict(hexagon, cycles=[dict(_TWO_POINTS["cycles"][0], phi=1.0)],
                     forms=[form])):
        code, out = run(capsys, ["relations", _problem(tmp_path, obj)])
        assert code == 2
        assert out["error"]["type"] == "numerical-failure"


# -- input validation ------------------------------------------------------

def _problem(tmp_path, obj):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(obj))
    return path


_QUADRATIC = json.loads((PROBLEMS / "quadratic_operator.json").read_text())
_TWO_POINTS = json.loads((PROBLEMS / "two_points.json").read_text())
# a rational with a zero denominator, refused with a message that says so
_ZERO_DENOMINATOR = ("gkz", {"f": ["x - 1"], "nu": ["-2/0"]})
# a string that is no rational at all, and an empty "f"
_NOT_RATIONAL = [("vol", {"f": ["x - 1"], "s": ["abc"]}),
                 ("gkz", {"f": ["x - 1"], "nu": ["abc"]})]
_EMPTY_F = ("chi", {"f": []})
# finite coefficients whose relation has one beyond the float range
_HUGE_RELATION = ("relations", {"f": ["1e200*x - 1"],
                                "forms": [{"function": "1e200*x"}]})
# the same in a polynomial's text
_ZERO_DENOMINATOR_TEXT = [("vol", {"f": ["3/0*x + 1"]}),
                          ("chi", {"f": ["1.5/0*x + 1"]}),
                          ("relations", dict(_TWO_POINTS,
                                             forms=[{"function": "1/0*x"}]))]
# an exact coefficient inside the float range whose derivative, 100 times it,
# is not; float coefficients whose product in the critical equations is not
_HUGE_COEFFICIENT = [(command, dict(_TWO_POINTS,
                                    f=[[[[100], 10 ** 307], [[0], 1]], "x - 2"]))
                     for command in ("chi", "relations", "integrate")] + [
    ("chi", dict(_TWO_POINTS, f=[[[[1], 1e300], [[0], 1]]] * 2))]
# a finite coefficient whose f_1 = 1e300 x^200 + 1 is beyond the float range
# at the cycle vertex (principal branch) or at the nodes (explicit branch)
_HUGE_VALUE = [(command, dict(_TWO_POINTS, f=[[[[200], 1e300], [[0], 1]], "x - 2"],
                              cycles=cycles))
               for cycles in (_TWO_POINTS["cycles"],
                              [dict(c, phi=[1.0, 0.0]) for c in _TWO_POINTS["cycles"]])
               for command in ("integrate", "relations")] + [
    # the critical equations' coefficients are finite, but tracking leaves
    # the float range
    ("chi", {"f": [[[[200], 1e300], [[0], 1]], "x - 2"]})] + [
    # finite branch values, but x^(b-1) or f_1^a_1 takes the integral beyond it
    (command, dict(_TWO_POINTS, cocycles=[cocycle], cycles=[
        {"A": [0.5, 1.0], "B": [0.5, -1.0], "C": [3.0, 0.0]}]))
    for cocycle in ({"a": [0, 0], "b": 800}, {"a": [-5000, 0], "b": 1})
    for command in ("integrate", "relations")]


@pytest.mark.parametrize("command, obj", [
    ("vol", {"f": [[[[1.5], 1], [[0], 1]]]}),
    ("vol", {"f": [[[["a"], 1], [[0], 1]]]}),
    ("vol", {"f": [[[[True], 1], [[0], 1]]]}),
    ("vol", {"f": [[[[1, 0], 1], [[0], 1]]]}),
    # a polynomial object is refused: polynomials are text or term lists
    ("vol", {"f": [{"nvars": 1, "terms": [{"exp": [1.5], "re": 1},
                                          {"exp": [0], "re": 1}]}]}),
    ("vol", {"f": [{"nvars": 1, "terms": [{"exp": ["a"], "re": 1}]}]}),
    ("relations", dict(_QUADRATIC, operators=[
        {"p": ["x^2 - 3*x + 2", "x"], "q": "-x + 3/2"}])),
    ("chi", {"f": ["x*y - 1"], "settings": {"draws": "many"}}),
    ("chi", {"f": ["x*y - 1"], "settings": 5}),
    ("chi", {"f": ["x*y - 1"], "settings": {"draws": 0}}),
    # a string is not a list: "3" used to be read as ["3"], kappa = (-2, 3)
    ("gkz", {"f": ["x - 1"], "s": "3", "nu": "2"}),
    ("integrate", dict(_TWO_POINTS, cocycles=[{"a": "00", "b": 1}])),
    ("integrate", dict(_TWO_POINTS, cocycles=[{"a": [0, 0], "b": 1.5}])),
    ("relations", dict(_TWO_POINTS, forms=[{"function": "1", "b": []}])),
    ("relations", dict(_TWO_POINTS, forms=[{"function": "1", "a": [0]}])),
    ("relations", dict(_QUADRATIC, operators=[{"p": None, "q": "x"}])),
] + [(command, dict(_TWO_POINTS, **{key: value}))
     for command in ("vol", "gkz", "integrate", "relations")
     for key in ("s", "nu") for value in (5, None)
] + [(command, dict(_TWO_POINTS, **{key: value}))
     for command, key in (("integrate", "cycles"), ("integrate", "cocycles"),
                          ("relations", "cycles"), ("relations", "cocycles"),
                          ("relations", "forms"), ("relations", "operators"))
     for value in (5, None, "ab", {"a": 1}, [5], [[1]])
# JSON text 1e400 reads as inf, NaN as nan; neither is a usable number
] + [("gkz", {"f": ["x*y - 1"], "nu": nu})
     for nu in ([math.inf, 0.5], [math.nan, 0.5], [[0.5, math.inf], 0.5],
                ["1e400", 0.5])
] + [(command, {"f": [f]})
     for command in ("chi", "vol")
     for f in ([[[1, 0], math.inf], [[0, 1], 1], [[0, 0], -1]],
               [[[1, 0], 10 ** 400], [[0, 0], -1]],
               "1e400*x + y - 1", "(nan+1j)*x - 1",
               {"nvars": 1, "terms": [{"exp": [1], "re": math.inf}]},
               {"nvars": 1, "terms": [{"exp": [1], "re": 10 ** 400}]},
               {"nvars": 1, "terms": [{"exp": [1], "im": "nan"}]})
] + [(command, dict(_TWO_POINTS, **changes))
     for command in ("integrate", "relations")
     for changes in (
         {"s": [math.inf, 0.5]}, {"s": [math.nan, 0.5]},
         {"cycles": [dict(_TWO_POINTS["cycles"][0], A=[math.inf, 0])]},
         {"cycles": [dict(_TWO_POINTS["cycles"][0], C=math.nan)]},
         {"cycles": [dict(_TWO_POINTS["cycles"][0], phi=[0, math.inf])]},
         {"cycles": [dict(_TWO_POINTS["cycles"][0], phi=math.nan)]})
# degree 10^300: more total-degree paths than critical.MAX_PATHS
] + [("chi", {"f": [[[[1e300], 1], [[0], 1]]]})
# settings over their caps
] + [("chi", {"f": ["x*y - 1"], "settings": {"draws": critical.MAX_DRAWS + 1}})
] + [(command, dict(_TWO_POINTS, settings={"nodes": twisted.MAX_NODES + 1}))
     for command in ("integrate", "relations")
# a pair inside a pair; a finite kappa whose pairing with a facet normal is
# beyond the float range; nu whose branch value or power is beyond it
] + [("vol", {"f": ["x - 1"], "s": [[[1, 2], 3]]}),
     ("gkz", {"f": ["x^2 - 3*x + 2"], "s": [1e308], "nu": ["1/2"]}),
     ("gkz", {"f": ["x^2 - 3*x + 2"], "s": [1e308], "nu": [-1e308]})
] + [(command, dict(_TWO_POINTS, nu=[1e308], cycles=cycles))
     for command in ("integrate", "relations")
     for cycles in (_TWO_POINTS["cycles"],
                    [dict(c, phi=[1.0, 0.0]) for c in _TWO_POINTS["cycles"]])
# k*nu = 2e300 is a float, but x^(k*nu) is not at any node
] + [(command, dict(_TWO_POINTS, nu=[1e300],
                    cycles=[dict(c, phi=[1.0, 0.0]) for c in _TWO_POINTS["cycles"]]))
     for command in ("integrate", "relations")
# malformed numbers, polynomials, cycles, operators and forms
] + [("vol", {"f": ["x - 1"], "s": [True]}),
     ("vol", {"f": ["x - 1"], "s": ["1/0"]}),
     ("vol", {"f": [[[[], 1]]]}),
     ("integrate", dict(_TWO_POINTS, cycles=[]))
] + [("vol", {"f": f}) for f in ([[5]], [[]], [5], ["x"])
] + [("vol", {"f": [text]})
     for text in ("x^", "x + -", "x0 - 1", "(abc)*x - 1")
] + [("integrate", dict(_TWO_POINTS, cycles=[cycle]))
     for cycle in ({k: v for k, v in _TWO_POINTS["cycles"][0].items() if k != "C"},
                   dict(_TWO_POINTS["cycles"][0], B=_TWO_POINTS["cycles"][0]["A"]))
] + [("relations", dict(problem, operators=[operator]))
     for problem, operator in (
         (_QUADRATIC, {"p": ["x"]}),
         (_QUADRATIC, {"p": [], "q": "x"}),
         (_QUADRATIC, {"p": [[[[1, 0], 1]]], "q": "x"}),
         (_QUADRATIC, {"p": [[[[1, 0], 1]], [[[0, 1], 1]]], "q": [[[0, 0], 1]]}),
         (_TWO_POINTS, {"p": ["x"], "q": "1"}))
] + [("relations", dict(problem, forms=[form]))
     for problem, form in (
         (_TWO_POINTS, {"terms": [{"k": 5, "g": "1"}]}),
         (_TWO_POINTS, {"terms": [{"g": "1", "a": [0, 0]}, {"g": "1", "a": [0]}]}),
         (_TWO_POINTS, {"terms": [{"g": [[[1, 0], 1]]}]}),
         ({"f": ["x*y - 1"]}, {"function": "x"}),
         ({"f": ["x*y - 1"]}, {"function": [[[1], 1]], "b": [0]}),
         (_TWO_POINTS, {"function": "y"}))
# a well-formed polynomial object (x - 1) is refused as well
] + [("vol", {"f": [{"nvars": 1, "terms": [{"exp": [1], "re": 1},
                                          {"exp": [0], "re": -1}]}]})
] + [_ZERO_DENOMINATOR] + _ZERO_DENOMINATOR_TEXT + _HUGE_COEFFICIENT
   + _HUGE_VALUE
# a term not joined by + or -, a * not followed by a variable
   + [("chi", {"f": [text]}) for text in ("x*2 - 1", "2*3*x", "x**2", "x*-1",
                                          "2 3", "(1+2j)(3)x", "x*")]
# repeated exponents of a term list add up, here to the constant 1
   + [("vol", {"f": [[[[1], 2], [[1], -2], [[0], 1]]]})]
# a * with no coefficient or variable before it
   + [("vol", {"f": [text]}) for text in ("*x - 1", "*x + 1", "x + *y + 1")]
   + _NOT_RATIONAL + [_EMPTY_F, _HUGE_RELATION])
def test_invalid_input_exit_3(tmp_path, capsys, command, obj):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(capsys, [command, _problem(tmp_path, obj)])
    assert code == 3
    assert out["error"]["type"] == "invalid-input"
    # an invalid input is refused before any numerical work warns
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if (command, obj) == _ZERO_DENOMINATOR:
        assert out["error"]["message"] == "nu: bad rational '-2/0': zero denominator"
    if (command, obj) in _ZERO_DENOMINATOR_TEXT:
        assert "zero denominator" in out["error"]["message"]
    if (command, obj) in _HUGE_COEFFICIENT:
        assert "coefficient" in out["error"]["message"]
        assert "beyond the float range" in out["error"]["message"]
    if (command, obj) in _HUGE_VALUE:
        assert "beyond the float range" in out["error"]["message"]
    if (command, obj) in _NOT_RATIONAL:
        assert "bad rational 'abc'" in out["error"]["message"]
    if (command, obj) == _EMPTY_F:
        assert out["error"]["message"] == '"f" must be a nonempty list of polynomials'
    if (command, obj) == _HUGE_RELATION:
        assert out["error"]["message"] == ("a relation coefficient is beyond the "
                                           "float range")


# an exponent whose power k*s_j or k*nu is beyond the float range is named
# before any node is tracked
@pytest.mark.parametrize("command", ["integrate", "relations"])
@pytest.mark.parametrize("key, value, name", [("nu", [1e308], "nu"),
                                              ("s", [1e308, "1/2"], "s_1"),
                                              ("s", ["1/2", -1e308], "s_2")])
def test_exponent_beyond_float_range_is_named(tmp_path, capsys, command, key,
                                              value, name):
    cycles = [dict(c, phi=[1.0, 0.0]) for c in _TWO_POINTS["cycles"]]
    obj = dict(_TWO_POINTS, cycles=cycles, **{key: value})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(capsys, [command, _problem(tmp_path, obj)])
    assert code == 3
    assert out["error"]["message"] == (
        f"exponent {name}: k*{name} with k = 2 is beyond the float range")
    assert not caught


@pytest.mark.parametrize("argv, cap", [
    (["chi", {"f": ["x*y - 1"], "settings": {"draws": critical.MAX_DRAWS + 1}}],
     "critical.MAX_DRAWS"),
    (["integrate", _TWO_POINTS, "--nodes", twisted.MAX_NODES + 1], "twisted.MAX_NODES"),
    (["relations", dict(_TWO_POINTS, settings={"nodes": twisted.MAX_NODES + 1})],
     "twisted.MAX_NODES"),
    # an f_j whose exponents span one more degree than the root finder takes
    (["integrate", dict(_TWO_POINTS, f=[f"x^{twisted.MAX_DEGREE + 1} - 2", "x - 2"])],
     "twisted.MAX_DEGREE"),
    (["relations", dict(_TWO_POINTS, f=["x - 1", f"x^{twisted.MAX_DEGREE} - 2*x^-1"])],
     "twisted.MAX_DEGREE"),
])
def test_setting_cap_names_constant(tmp_path, capsys, argv, cap):
    command, obj, *options = argv
    code, out = run(capsys, [command, _problem(tmp_path, obj), *options])
    assert code == 3
    assert cap in out["error"]["message"]


def test_settings_at_their_caps_are_accepted():
    obj = {"settings": {"draws": critical.MAX_DRAWS, "nodes": twisted.MAX_NODES}}
    assert cli.setting(obj, "draws", 2) == critical.MAX_DRAWS
    assert cli.setting(obj, "nodes", 1000) == twisted.MAX_NODES


def test_path_cap_names_constant(tmp_path, capsys):
    code, out = run(capsys, ["chi", _problem(tmp_path,
                                             {"f": [[[[1e300], 1], [[0], 1]]]})])
    assert code == 3
    assert "MAX_PATHS" in out["error"]["message"]


def test_build_spec_parses_each_entry_once():
    obj = {"f": ["x - 1", "x*y - 2", [[[1, 0, 1], 1], [[0, 0, 0], 2]]]}
    with mock.patch.object(cli, "parse_polynomial",
                           wraps=cli.parse_polynomial) as parse:
        spec = cli.build_spec(obj)
    assert parse.call_count == 3
    assert spec.f[:2] == (parse_poly("x - 1", 3), parse_poly("x*y - 2", 3))
    assert spec.f[2] == parse_poly("x*z + 2", 3)


def test_integral_float_exponent_accepted(tmp_path, capsys):
    code, out = run(capsys, ["vol", _problem(tmp_path,
                                             {"f": [[[[2.0], 1], [[0], 1]]]})])
    assert code == 0
    assert out["normalized_volume"] == 1


@pytest.mark.parametrize("command, problem", [
    ("relations", "quadratic_operator"), ("gkz", "hexagon")])
@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_bad_tolerance_exit_3(capsys, command, problem, tol):
    code, out = run(capsys, [command, PROBLEMS / f"{problem}.json",
                             f"--tol={tol}"])
    assert code == 3
    assert out["error"]["type"] == "invalid-input"


def test_zero_tolerance_is_used(tmp_path, capsys):
    # u . kappa lies 1e-12 from the subgroup on both facets: resonant at the
    # default 1e-9, nonresonant at an exact comparison
    path = _problem(tmp_path, {"f": ["x - 1"], "s": [1], "nu": [1e-12]})
    code, out = run(capsys, ["gkz", path])
    assert code == 0 and out["nonresonant"] is False
    assert out["kappa"] == [-1e-12, 1]    # real inputs stay numbers
    # a float in kappa makes each pairing complex
    assert all(len(c["kappa_pairing"]) == 2 for c in out["certificates"])
    code, out = run(capsys, ["gkz", path, "--tol", "0"])
    assert code == 0 and out["nonresonant"] is True


def test_complex_results_are_pairs(capsys):
    code, out = run(capsys, ["integrate", PROBLEMS / "two_points.json"])
    assert code == 0
    entries = [v for row in out["matrix"] for v in row]
    entries += [v for k in out["kernel"] for v in k["vector"]]
    assert all(isinstance(v, list) and len(v) == 2 for v in entries)


def test_tol_leaves_kernel_cutoff_alone(capsys):
    # --tol sets the agreement tolerance only; the kernel keeps its cutoff
    path = PROBLEMS / "two_points.json"
    code, integrated = run(capsys, ["integrate", path, "--tol", "1"])
    assert code == 0
    code, related = run(capsys, ["relations", path, "--tol", "1"])
    assert code == 0
    assert len(integrated["kernel"]) == 1
    assert related["kernel"] == integrated["kernel"]


@pytest.mark.parametrize("cocycles", [
    # the b = 30 column is about 1e9 times larger than the b = 0 column,
    # whose integrals are 0.648 and 4.144 in modulus
    [{"a": [0, 0], "b": 30}, {"a": [0, 0], "b": 0}],
    # entries near 3^399 ~ 1e190, whose squares overflow
    [{"a": [0, 0], "b": 400}]])
def test_columns_of_unequal_scale_have_no_relation(tmp_path, capsys, cocycles):
    path = _two_points(tmp_path, cocycles=cocycles)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(capsys, ["integrate", path])
    assert code == 0
    assert not caught
    assert out["kernel"] == []


# -- the exit-code contract for arbitrary problem objects --------------------

# Integers and floats stay within +-3: an integer can land in settings.nodes
# or a cocycle exponent, where a large one asks for millions of quadrature
# nodes or overflows a power.  The contract concerns types and shapes.
_SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(-3, 3, allow_nan=False) | st.text("xy012/-^ ", max_size=5)
    | st.sampled_from(["principal", "x - 1", "1/2"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=8)
_SHIPPED = [json.loads(p.read_text()) for p in sorted(PROBLEMS.glob("*.json"))]
_KEYS = ["f", "s", "nu", "cycles", "cocycles", "forms", "operators",
         "settings"]


def _mutated(entry):
    """A shipped entry with some of its fields replaced by small JSON."""
    return st.fixed_dictionaries(
        {}, optional={key: _SMALL_JSON for key in entry}).map(
            lambda changes: {**entry, **changes})


# term lists whose exact coefficients reach the end of the float range, where
# a derivative or a product of two of them leaves it
_TERMS = st.lists(st.tuples(
    st.lists(st.integers(-3, 3), min_size=1, max_size=2),
    st.sampled_from([10 ** 307, -10 ** 308]) | st.integers(-3, 3)),
    min_size=1, max_size=3)

# cocycles whose large shifts can take an integral beyond the float range
_SHIFTS = st.fixed_dictionaries({
    "a": st.lists(st.integers(-6000, 3), min_size=1, max_size=2),
    "b": st.integers(-1000, 1000)})


def _field(key):
    if key == "settings":
        return _SMALL_JSON | _mutated({"nodes": 1000})
    if key == "f":
        return st.lists(_TERMS, min_size=1, max_size=2) | _SMALL_JSON | st.lists(
            _SMALL_JSON, min_size=1, max_size=3)
    entries = [e for obj in _SHIPPED for e in obj.get(key, [])
               if isinstance(e, dict)]
    items = st.sampled_from(entries).flatmap(_mutated) if entries else _SMALL_JSON
    if key == "cocycles":
        items = items | _SHIFTS
    return _SMALL_JSON | st.lists(items, min_size=1, max_size=3)


# a shipped problem with up to two of its fields replaced
_PROBLEM_OBJECTS = st.builds(
    lambda base, changes: {**base, **changes},
    st.sampled_from(_SHIPPED),
    st.lists(st.sampled_from(_KEYS), max_size=2, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({k: _field(k) for k in keys})))


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["chi", "vol", "gkz", "integrate", "relations"]),
       obj=_PROBLEM_OBJECTS | _SMALL_JSON)
# the draws above reach a large-shift cocycle on a cycle in few runs; these
# take an integral beyond the float range on every run
@example(command="integrate",
         obj=dict(_TWO_POINTS, cocycles=[{"a": [0, 0], "b": 800}]))
@example(command="relations",
         obj=dict(_TWO_POINTS, cocycles=[{"a": [-5000, 0], "b": 1}]))
def test_any_problem_exits_cleanly(command, obj):
    stdout = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(obj))), \
            contextlib.redirect_stdout(stdout):
        code = main([command, "-"])
    assert code in (0, 2, 3)
    assert isinstance(json.loads(stdout.getvalue()), dict)
