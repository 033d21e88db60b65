import json

import numpy as np
import pytest

import colwave.cli as cli
import colwave.suite as suite
from colwave.cli import EXIT_CHECK_FAILED, EXIT_CONFIG_ERROR, EXIT_OK, EXIT_SOLVER_FAILURE, main
from colwave.errors import ConfigError
from colwave.linwave import QuadratureSpec
from colwave.nets import InitialDatum, NonlinearitySpec, Problem, make_ladder
from colwave.seminorms import SpaceTimeGrid
from colwave.semilinear import solve_net
from colwave.suite import CheckResult


def test_solve_net_threads_match_serial():
    prob = Problem(
        dim=1, horizon=0.5, support_radius=0.4,
        u0=InitialDatum("gaussian_bump", outer_radius=0.4, amplitude=1.0),
        u1=InitialDatum("zero"), f=NonlinearitySpec("sine"), small_exponent=1.0,
    )
    grid = SpaceTimeGrid.covering(1, 0.5, 0.4, dx=0.05, dt=0.025)
    quad = QuadratureSpec(angular_points=8, polar_points=8)
    ladder = make_ladder(0.5, 0.5, 4)
    net1, rep1 = solve_net(prob, ladder, grid, quad, threads=1)
    net2, rep2 = solve_net(prob, ladder, grid, quad, threads=3)
    for a, b in zip(net1.fields, net2.fields):
        np.testing.assert_array_equal(a.samples, b.samples)
    assert [r.iterations for r in rep1] == [r.iterations for r in rep2]


def test_resolve_threads(monkeypatch):
    monkeypatch.delenv("COLWAVE_THREADS", raising=False)
    assert cli._resolve_threads(None) == 1
    monkeypatch.setenv("COLWAVE_THREADS", "3")
    assert cli._resolve_threads(None) == 3
    assert cli._resolve_threads(2) == 2
    assert cli._resolve_threads(0) >= 1
    with pytest.raises(ConfigError, match="threads"):
        cli._resolve_threads(-1)
    monkeypatch.setenv("COLWAVE_THREADS", "abc")
    with pytest.raises(ConfigError, match="threads"):
        cli._resolve_threads(None)
    assert cli._resolve_threads(2) == 2


def test_bad_threads_env_exit_code(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("COLWAVE_THREADS", "abc")
    doc = {
        "problem": {
            "dim": 1, "horizon": 0.5, "support_radius": 0.4,
            "u0": {"kind": "gaussian_bump", "outer_radius": 0.4, "amplitude": 1.0},
            "u1": {"kind": "zero"},
            "f": {"kind": "sine"},
        },
        "grid": {"dx": 0.05},
        "outputs": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["solve-semilinear", "--config", str(path)]) == EXIT_CONFIG_ERROR
    assert "threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_demo_takes_no_threads(monkeypatch, tmp_path):
    # demo runs single-threaded: the flag and the environment variable were
    # validated and then ignored
    monkeypatch.setattr(cli, "run_suite", lambda: [(CheckResult("a", True, "fine"), 0.1)])
    with pytest.raises(SystemExit) as info:
        main(["demo", "--threads", "2"])
    assert info.value.code == 2
    monkeypatch.setenv("COLWAVE_THREADS", "abc")
    assert main(["demo", "--out", str(tmp_path)]) == EXIT_OK


def test_demo_exit_codes(monkeypatch, tmp_path, capsys):
    fake_pass = [(CheckResult("a", True, "fine"), 0.1)]
    monkeypatch.setattr(cli, "run_suite", lambda: fake_pass)
    assert main(["demo", "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "demo_summary.txt").read_text() == "PASS a fine [0.1s]\n"
    fake_fail = [(CheckResult("a", True, "fine"), 0.1), (CheckResult("b", False, "bad"), 0.1)]
    monkeypatch.setattr(cli, "run_suite", lambda: fake_fail)
    assert main(["demo"]) == EXIT_CHECK_FAILED


def test_suite_solves_each_preset_net_once(monkeypatch, capsys):
    # each preset's checks share its net instead of re-solving it; after
    # every net is solved, uniqueness solves its preset once more from its
    # own seeds
    solves = []

    def counted(problem, *args, **kwargs):
        solves.append(problem)
        return solve_net(problem, *args, **kwargs)

    monkeypatch.setattr(suite, "solve_net", counted)
    results = suite.run_suite()
    presets = suite.PRESETS.items()
    lines = [f"{name}/{check}" for name, cfg in presets for check in cfg.checks]
    assert [r.name for r, _ in results] == list(suite.CONFIG_FREE_CHECKS) + lines
    assert all(r.ok for r, _ in results)
    seeded = [cfg.problem for _, cfg in presets if "uniqueness" in cfg.checks]
    assert solves == [cfg.problem for _, cfg in presets] + seeded


def test_preset_nets_share_one_linear_part(linear_solves):
    # the 1D presets differ only in b: one data-term evaluation serves all
    # three, and one more each the 2D and the 3D preset
    nets = suite.preset_nets()
    assert [h for h in linear_solves if h is None] == [None] * 3
    linears = [nets[name].linear for name in ("1d_b0.5", "1d_b1", "1d_b2")]
    assert all(linear is linears[0] for linear in linears)


def test_solver_failure_exit(tmp_path):
    doc = {
        "problem": {
            "dim": 1, "horizon": 2.0, "support_radius": 0.5,
            "u0": {"kind": "gaussian_bump", "outer_radius": 0.5, "amplitude": 1.0},
            "u1": {"kind": "zero"},
            "f": {"kind": "polynomial", "coefficients": [0.0, 0.0, 20.0]},
            "small_exponent": 2.0,
        },
        "ladder": {"eps0": 0.9, "ratio": 0.1, "count": 3},
        "grid": {"dx": 0.05},
        "quad": {"angular_points": 8, "polar_points": 8},
        "max_iter": 40,
        "outputs": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code = main(["solve-semilinear", "--config", str(path)])
    assert code == EXIT_SOLVER_FAILURE
    # partial outputs retained
    assert (tmp_path / "out" / "solve_reports.csv").exists()
