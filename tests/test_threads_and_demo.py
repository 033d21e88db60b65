import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import colwave.cli as cli
import colwave.suite as suite
from colwave.cli import EXIT_CHECK_FAILED, EXIT_CONFIG_ERROR, EXIT_OK, EXIT_SOLVER_FAILURE, main
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


def threads_config(tmp_path, checks=("support",)):
    doc = {
        "problem": {
            "dim": 1, "horizon": 0.5, "support_radius": 0.4,
            "u0": {"kind": "gaussian_bump", "outer_radius": 0.4, "amplitude": 1.0},
            "u1": {"kind": "zero"},
            "f": {"kind": "sine"},
        },
        "ladder": {"eps0": 0.5, "ratio": 0.5, "count": 4},
        "grid": {"dx": 0.05},
        "quad": {"angular_points": 8, "polar_points": 8},
        "outputs": str(tmp_path / "out"),
        "checks": list(checks),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command", ["solve-semilinear", "valuation", "check"])
def test_thread_count_below_one_is_a_config_error(tmp_path, capsys, command, value):
    # the library's rule: at least one thread, checked before any output is made
    path = threads_config(tmp_path)
    assert main([command, "--config", path, "--threads", value]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: threads: must be an integer >= 1, got {value}\n"
    assert not (tmp_path / "out").exists()


def test_solve_linear_takes_no_threads(tmp_path, monkeypatch):
    # it solves no net, so it takes no --threads and reads no thread count
    # from the environment
    path = threads_config(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["solve-linear", "--config", path, "--threads", "2"])
    assert info.value.code == EXIT_CONFIG_ERROR
    monkeypatch.setenv("COLWAVE_THREADS", "abc")
    assert main(["solve-linear", "--config", path]) == EXIT_OK


def test_threaded_check_writes_the_serial_files(tmp_path, capsys):
    path = threads_config(tmp_path, checks=["uniqueness"])
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        assert main(["check", "--config", path, "--out", str(out), "--threads", threads]) == EXIT_OK
        outputs[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(outputs["1"]) == ["summary.txt", "uniqueness.csv"]
    assert outputs["2"] == outputs["1"]
    assert capsys.readouterr().out.count("uniqueness ok=True") == 2


def test_cli_import_loads_no_thread_pool():
    # solve_net imports the pool only when it runs on more than one thread
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, colwave.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_demo_takes_no_threads(monkeypatch, tmp_path):
    # demo runs single-threaded: it takes no --threads
    monkeypatch.setattr(cli, "run_suite", lambda: [(CheckResult("a", True, "fine"), 0.1)])
    with pytest.raises(SystemExit) as info:
        main(["demo", "--threads", "2"])
    assert info.value.code == 2
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
