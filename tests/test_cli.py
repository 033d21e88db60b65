import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import colwave.cli
import colwave.semilinear
import colwave.suite
from colwave.cli import (
    CHECK_NAMES,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_SOLVER_FAILURE,
    load_config,
    main,
    parse_config,
)
from colwave.errors import ConfigError, ValidationError
from colwave.nets import make_ladder
from colwave.seminorms import SpaceTimeGrid
from colwave.suite import _QUAD_1D, PRESETS, ExperimentConfig, _bump_problem


def base_config(tmp_path, **overrides):
    doc = {
        "problem": {
            "dim": 1,
            "horizon": 0.5,
            "support_radius": 0.4,
            "u0": {"kind": "gaussian_bump", "outer_radius": 0.4, "amplitude": 1.0},
            "u1": {"kind": "zero"},
            "f": {"kind": "zero"},
            "small_exponent": 1.0,
        },
        "ladder": {"eps0": 0.5, "ratio": 0.5, "count": 3},
        "grid": {"dx": 0.05, "dt": 0.025},
        "quad": {"angular_points": 8, "polar_points": 8, "time_points_per_dt": 1},
        "tol": 1e-10,
        "max_iter": 30,
        "outputs": str(tmp_path / "out"),
        "checks": ["support"],
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path, doc


def config_dict(cfg):
    """Every dataclass field of ``cfg`` but the grid's three that come from the problem."""
    doc = asdict(cfg)
    for key in ("dim", "horizon", "support_radius"):
        del doc["grid"][key]
    return doc


def test_config_roundtrip_idempotent(tmp_path):
    path, doc = base_config(tmp_path)
    cfg = load_config(path)
    first = config_dict(cfg)
    again = config_dict(parse_config(first))
    assert first == again


def dump_config(cfg, path):
    with open(path, "w") as fh:
        json.dump(config_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def test_config_dump_and_reload(tmp_path):
    path, _ = base_config(tmp_path)
    cfg = load_config(path)
    out = tmp_path / "dumped.json"
    dump_config(cfg, out)
    assert config_dict(load_config(out)) == config_dict(cfg)


def preset_config(**fields):
    """The 1D bump preset for b = 1, with ``fields`` set and checked again."""
    return replace(PRESETS["1d_b1"], **fields)


def test_preset_config_round_trips():
    for cfg in PRESETS.values():
        first = config_dict(cfg)
        assert config_dict(parse_config(first)) == first


def test_readme_examples_run():
    # the README's config document parses, and its library example prints what it says
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (doc,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert parse_config(json.loads(doc)).grid.margin_cells == 2
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue() == "NetClass.BOUNDED_TYPE\n"


@pytest.mark.parametrize("name", list(PRESETS))
def test_preset_lines_reproduce_from_the_cli(tmp_path, capsys, suite_lines, name):
    # a dumped preset, checked from the command line, prints the demo's detail lines
    path = tmp_path / "preset.json"
    dump_config(PRESETS[name], path)
    assert main(["check", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
    demo = [suite_lines[f"{name}/{check}"].details for check in PRESETS[name].checks]
    assert capsys.readouterr().out == "".join(line + "\n" for line in demo)


def state_config(tmp_path, b, checks):
    """A 1D amplitude-3 bump under f = -u^5: the ladder's largest eps entries diverge.

    At b = 1 the eps 0.5 entry diverges, at b = 0.5 also the eps 0.25 one.
    """
    problem = {
        "dim": 1, "horizon": 1.0, "support_radius": 0.5,
        "u0": {"kind": "gaussian_bump", "outer_radius": 0.5, "amplitude": 3.0},
        "u1": {"kind": "zero"},
        "f": {"kind": "polynomial", "coefficients": [0.0, 0.0, 0.0, 0.0, -1.0]},
        "small_exponent": b,
    }
    path, _ = base_config(tmp_path, problem=problem, ladder={"eps0": 0.5, "ratio": 0.5, "count": 8},
                          grid={"dx": 0.02, "dt": 0.01},
                          quad={"angular_points": 8, "polar_points": 10}, tol=1e-10, max_iter=50,
                          checks=checks)
    return path


def test_net_checks_fail_on_an_unconverged_entry(tmp_path, capsys):
    # every check that reads the net fails on it and names the entry.
    # association read the diverged entry's huge last iterate as a steep
    # decay (rate=21.2, ok=True), uniqueness classified it as negligible,
    # contraction raised DivergenceError mapping it, and picard_scaling
    # fitted the other entries (slope=0.925) and passed
    checks = [name for name in CHECK_NAMES if name != "oracle"]  # the oracle reads no net
    path = state_config(tmp_path, 1.0, checks)
    assert main(["check", "--config", str(path)]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    out = tmp_path / "out"
    assert (out / "summary.txt").read_text().splitlines() == lines
    assert len(lines) == len(checks)
    for name, line in zip(checks, lines):
        rows = (out / f"{name}.csv").read_text().splitlines()[1:]
        if name in ("support", "residual"):  # they measure every entry and fail on this one
            assert line.startswith(f"{name} ok=False ") and line.endswith(" unconverged eps=0.5")
            assert len(rows) > 0
        else:  # every other net check fails unmeasured
            assert line == f"{name} ok=False unconverged eps=0.5"
            assert rows == []


def test_contraction_of_a_diverged_net_fails_and_later_checks_run(tmp_path, capsys):
    # contraction used to raise DivergenceError (exit 3) before association ran
    path = state_config(tmp_path, 0.5, ["contraction", "association"])
    assert main(["check", "--config", str(path)]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["contraction ok=False unconverged eps=0.5,0.25",
                     "association ok=False unconverged eps=0.5,0.25"]
    assert (tmp_path / "out" / "association.csv").read_text() == "eps,mu0_difference\n"


def test_overflowing_duhamel_term_exits_as_an_unconverged_solve(tmp_path, capsys):
    # expm1 of the amplitude-705 bump is finite but its Duhamel term is not:
    # the solve exited 2 with "all samples must be finite" after pocketfft
    # warnings; each entry now ends at its first sweep with the linear part
    problem = {
        "dim": 1, "horizon": 1.0, "support_radius": 0.5,
        "u0": {"kind": "gaussian_bump", "outer_radius": 0.5, "amplitude": 705.0},
        "u1": {"kind": "zero"}, "f": {"kind": "exp_minus_one"}, "small_exponent": 1.0,
    }
    path, _ = base_config(tmp_path, problem=problem, grid={"dx": 0.02, "dt": 0.01},
                          quad={"angular_points": 8, "polar_points": 10})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve-semilinear", "--config", str(path)]) == EXIT_SOLVER_FAILURE
    assert capsys.readouterr().out.splitlines() == [
        f"solve-semilinear eps={eps} iterations=1 converged=False final_increment=inf"
        for eps in ("0.5", "0.25", "0.125")
    ]


@pytest.mark.parametrize(
    "name, value",
    [
        ("tol", 0.0),
        ("tol", math.inf),
        ("tol", math.nan),
        ("tol", True),
        ("tol", "1e-10"),
        ("residual_constant", math.inf),
        ("residual_constant", -5.0),
        ("max_iter", 0),
        ("max_iter", True),
        ("max_iter", 2.5),
        ("outputs", 7),
        ("outputs", None),
        ("checks", "support"),
        ("checks", ("support",)),
        ("checks", ["everything"]),
        ("checks", ["support", "residual", "support"]),
    ],
)
def test_experiment_config_rejects_bad_fields(name, value):
    # only parse_config used to check these, so a library or preset config
    # skipped them: an infinite residual_constant made the residual check
    # pass at any residual
    with pytest.raises(ValidationError) as info:
        preset_config(**{name: value})
    assert info.value.parameter == name


def test_experiment_config_stores_floats():
    cfg = preset_config(tol=1, residual_constant=np.float64(600.0))
    assert type(cfg.tol) is float and cfg.tol == 1.0
    assert type(cfg.residual_constant) is float and cfg.residual_constant == 600.0


@pytest.mark.parametrize("name, grid", [
    ("horizon", SpaceTimeGrid.covering(1, 0.3, 0.5, dx=0.02, dt=0.01)),
    ("support_radius", SpaceTimeGrid.covering(1, 1.0, 0.4, dx=0.02, dt=0.01)),
    ("dim", SpaceTimeGrid.covering(2, 1.0, 0.5, dx=0.1, dt=0.05)),
])
def test_experiment_config_rejects_a_grid_of_another_cone(name, grid):
    # the horizon 0.3 grid used to solve the horizon 1.0 problem, and its
    # support check reported ok having looked only up to t = 0.3
    with pytest.raises(ValidationError, match=f"^grid: {name} ") as info:
        ExperimentConfig(_bump_problem(1), make_ladder(0.5, 0.5, 8), grid, _QUAD_1D)
    assert info.value.parameter == "grid"


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("tol", 0, "must be positive and finite, got 0"),
        ("residual_constant", -5, "must be positive and finite, got -5"),
        ("max_iter", 0, "must be an integer >= 1, got 0"),
    ],
)
def test_out_of_range_top_level_field_is_a_config_error(tmp_path, capsys, name, value, message):
    path, _ = base_config(tmp_path, **{name: value})
    assert main(["check", "--config", str(path)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: {name}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve-linear", "demo"])
def test_output_path_that_is_a_file_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    # os.makedirs raised FileExistsError: a traceback and exit 1, the check-failed code
    def no_suite():
        raise AssertionError("the suite ran before the output directory was made")

    monkeypatch.setattr(colwave.cli, "run_suite", no_suite)
    path, _ = base_config(tmp_path)
    afile = tmp_path / "afile"
    afile.write_text("")
    argv = ["demo"] if command == "demo" else [command, "--config", str(path)]
    assert main(argv + ["--out", str(afile)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err == f"config error: outputs: cannot make directory {str(afile)!r}: File exists\n"


def test_malformed_ratio_names_field(tmp_path, capsys):
    path, doc = base_config(tmp_path)
    doc["ladder"]["ratio"] = 1.5
    path.write_text(json.dumps(doc))
    code = main(["check", "--config", str(path)])
    assert code == EXIT_CONFIG_ERROR
    assert "ladder.ratio" in capsys.readouterr().err


def test_missing_field_reported(tmp_path):
    # each named where it sits; a datum's or f's kind used to be a TypeError
    # of its constructor, printed as "problem.u0: bad fields: ..."
    for name in ("problem.horizon", "problem.u0.kind", "problem.f.kind", "grid.dx"):
        path, doc = base_config(tmp_path)
        target, key = field_slot(doc, name)
        del target[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=rf"^{name}: missing required field$"):
            load_config(path)


def test_unknown_check_rejected(tmp_path):
    path, doc = base_config(tmp_path, checks=["everything"])
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="checks"):
        load_config(path)


def test_repeated_check_rejected(tmp_path, capsys):
    # it used to run, print and write the check twice, and exit 0
    path, _ = base_config(tmp_path, checks=["support", "residual", "support"])
    with pytest.raises(ConfigError, match="checks: check 'support' is named more than once"):
        load_config(path)
    assert main(["check", "--config", str(path)]) == EXIT_CONFIG_ERROR
    assert "checks" in capsys.readouterr().err


def test_repeated_check_flag_rejected(tmp_path, capsys):
    path, _ = base_config(tmp_path)
    argv = ["check", "--config", str(path), "--check", "support", "--check", "support"]
    assert main(argv) == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "checks: check 'support' is named more than once" in captured.err


def test_check_support_zero_nonlinearity(tmp_path, capsys):
    path, doc = base_config(tmp_path)
    code = main(["check", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "support ok=True" in out
    assert (tmp_path / "out" / "support.csv").exists()
    assert (tmp_path / "out" / "summary.txt").exists()


def test_oracle_prints_value(capsys):
    assert main(["oracle", "--eps", "0.5", "--t", "1.0"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2.0"


def test_module_entry_point_runs_from_source():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "colwave", "oracle", "--eps", "0.5", "--t", "1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.strip() == "2.0"


def test_oracle_lifespan_exit(capsys):
    assert main(["oracle", "--eps", "0.5", "--t", "2.0"]) == EXIT_CONFIG_ERROR


@pytest.mark.parametrize("eps, t, name", [("nan", "1", "eps"), ("0.5", "-inf", "t")])
def test_oracle_non_finite_input_exit(capsys, eps, t, name):
    # used to print nan / 0.0 and exit 0
    assert main(["oracle", "--eps", eps, f"--t={t}"]) == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid input: {name}: must be finite" in captured.err


def test_explicit_spatial_extent_builds_grid_directly(tmp_path):
    expected = SpaceTimeGrid(
        dim=1, horizon=0.5, support_radius=0.4, spatial_extent=1.0, dx=0.05, dt=0.025
    )
    # dt defaults to dx/2 for this grid form too; it used to be a missing argument
    for grid in ({"spatial_extent": 1.0, "dx": 0.05, "dt": 0.025}, {"spatial_extent": 1.0, "dx": 0.05}):
        path, _ = base_config(tmp_path, grid=grid)
        assert load_config(path).grid == expected


def test_spatial_extent_short_of_cone_rejected(tmp_path, capsys):
    # support_radius + horizon is 0.9
    assert_field_rejected(tmp_path, capsys, "grid.spatial_extent", 0.8)


def test_solve_linear_outputs(tmp_path, capsys):
    path, _ = base_config(tmp_path)
    code = main(["solve-linear", "--config", str(path)])
    assert code == EXIT_OK
    out = tmp_path / "out"
    assert (out / "linear_field.csv").exists()
    assert (out / "linear_field.bin").exists()


def test_solve_semilinear_deterministic(tmp_path):
    path, _ = base_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["solve-semilinear", "--config", str(path), "--out", str(out_a)]) == EXIT_OK
    assert main(["solve-semilinear", "--config", str(path), "--out", str(out_b)]) == EXIT_OK
    for name in ("solve_reports.csv", "field_000.bin"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_valuation_csv(tmp_path):
    path, _ = base_config(tmp_path)
    code = main(["valuation", "--config", str(path)])
    assert code == EXIT_OK
    lines = (tmp_path / "out" / "valuation.csv").read_text().strip().splitlines()
    assert lines[0] == "eps,mu,n,slope,stderr"
    assert len(lines) == 1 + 3 * 3  # three orders, three ladder entries


def test_check_residual_and_association(tmp_path, capsys):
    path, doc = base_config(tmp_path)
    # wide plateau data keep the truncation constant inside the default budget
    doc["problem"]["support_radius"] = 1.2
    doc["problem"]["u0"] = {
        "kind": "plateau_bump", "outer_radius": 1.2, "inner_radius": 0.2, "amplitude": 1.0,
    }
    doc["problem"]["f"] = {"kind": "sine"}
    doc["grid"] = {"dx": 0.04, "dt": 0.02}
    doc["checks"] = ["residual", "association"]
    path.write_text(json.dumps(doc))
    code = main(["check", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "residual ok=True" in out
    assert "association ok=True" in out


def test_all_checks_solve_once_and_match_single_runs(tmp_path, monkeypatch, capsys):
    path, doc = base_config(tmp_path, checks=list(CHECK_NAMES))
    # wide plateau data keep the truncation constant inside the default budget
    doc["problem"]["support_radius"] = 1.2
    doc["problem"]["u0"] = {
        "kind": "plateau_bump", "outer_radius": 1.2, "inner_radius": 0.2, "amplitude": 1.0,
    }
    doc["problem"]["f"] = {"kind": "sine"}
    doc["ladder"]["count"] = 4
    doc["grid"] = {"dx": 0.04, "dt": 0.02}
    path.write_text(json.dumps(doc))
    solves = []

    def counted(*args, **kwargs):
        solves.append(args[0])
        return colwave.semilinear.solve_net(*args, **kwargs)

    monkeypatch.setattr(colwave.suite, "solve_net", counted)

    def run(out, *flags):
        solves.clear()
        code = main(["check", "--config", str(path), "--out", str(out), *flags])
        return code, (out / "summary.txt").read_text().splitlines()

    together = tmp_path / "all"
    code, blocks = run(together)
    assert code == EXIT_OK
    assert len(solves) == 2  # the config net, then the seeded uniqueness solve
    # picard_scaling keeps the detail line of the demo check it was
    assert [b.split()[0] for b in blocks] == [*CHECK_NAMES[:-1], "ratio"]
    assert all(" ok=True" in b for b in blocks[:-1])
    assert blocks[-1] == "ratio slope=0.996 (need 1 +/- 0.15)"
    headers = {
        "support": "case,max_outside,ok",
        "contraction": "order,slope_gap",
        "association": "eps,mu0_difference",
        "uniqueness": "order,mu_max",
        "oracle": "eps,max_error",
        "residual": "eps,residual_sup,budget,ok",
        "picard_scaling": "eps,ratio",
    }
    for name, header in headers.items():
        lines = (together / f"{name}.csv").read_text().splitlines()
        assert lines[0] == header
        assert all(line.count(",") == header.count(",") for line in lines[1:])
    support_rows = (together / "support.csv").read_text().splitlines()[1:]
    assert support_rows[0].startswith("linear,") and support_rows[0].endswith(",true")
    for name, block in zip(CHECK_NAMES, blocks):
        single = tmp_path / name
        code, single_blocks = run(single, "--check", name)
        assert code == EXIT_OK
        assert single_blocks == [block]
        assert (single / f"{name}.csv").read_bytes() == (together / f"{name}.csv").read_bytes()
        assert sorted(p.name for p in single.iterdir()) == sorted([f"{name}.csv", "summary.txt"])
        # the oracle solves only its own plateau problems
        assert len(solves) == {"uniqueness": 2, "oracle": 0}.get(name, 1)

    doc["residual_constant"] = 1e-6
    path.write_text(json.dumps(doc))
    code, failed = run(tmp_path / "failed")
    assert code == EXIT_CHECK_FAILED
    assert failed == blocks[:-2] + ["residual ok=False", blocks[-1]]
    assert len(solves) == 2


def test_check_uniqueness_evaluates_data_terms_once(tmp_path, capsys, linear_solves):
    # the config net, its uniqueness re-solve and both of their Picard
    # loops share the one linear part the check command builds
    path, doc = base_config(tmp_path, checks=["uniqueness"])
    doc["problem"].update(dim=3, horizon=0.3, support_radius=0.3)
    doc["problem"]["u0"]["outer_radius"] = 0.3
    doc["problem"]["f"] = {"kind": "sine"}
    doc["ladder"]["count"] = 4
    doc["grid"] = {"dx": 0.1, "dt": 0.05}
    doc["quad"]["polar_points"] = 4
    path.write_text(json.dumps(doc))
    assert main(["check", "--config", str(path)]) == EXIT_OK
    assert "uniqueness ok=True" in capsys.readouterr().out
    assert [h for h in linear_solves if h is None] == [None]


@pytest.mark.parametrize("command", ["solve-semilinear", "valuation"])
def test_net_commands_evaluate_data_terms_once(tmp_path, capsys, linear_solves, command):
    path, doc = base_config(tmp_path)
    doc["problem"]["f"] = {"kind": "sine"}
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path)]) == EXIT_OK
    assert [h for h in linear_solves if h is None] == [None]


def test_check_flag_overrides_config(tmp_path, capsys):
    path, doc = base_config(tmp_path, checks=[])
    path.write_text(json.dumps(doc))
    code = main(["check", "--config", str(path), "--check", "support"])
    assert code == EXIT_OK
    assert "support" in capsys.readouterr().out


def test_no_checks_selected_is_config_error(tmp_path, capsys):
    path, doc = base_config(tmp_path, checks=[])
    path.write_text(json.dumps(doc))
    assert main(["check", "--config", str(path)]) == EXIT_CONFIG_ERROR


@pytest.mark.parametrize(
    "checks, flags",
    [([], []), (["support"], ["--check", "support", "--check", "support"])],
    ids=["none", "repeated_flag"],
)
def test_rejected_check_run_leaves_no_output_directory(tmp_path, checks, flags):
    # the output directory used to be created before the checks were validated
    path, _ = base_config(tmp_path, checks=checks)
    assert main(["check", "--config", str(path), *flags]) == EXIT_CONFIG_ERROR
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", [
    "problem.small_exponet", "tols", "grid.dtt", "grid.dim", "problem.u0.radius",
    "problem.f.coef", "ladder.eps", "quad.angular_pts",
])
def test_unknown_field_rejected(tmp_path, capsys, name):
    # a misspelt optional field used to be ignored and its default used;
    # in a datum, f, ladder or quad it was a TypeError of the constructor
    assert_field_rejected(tmp_path, capsys, name, 2.0)


@pytest.mark.parametrize("grid, message", [
    ({"dx": 0.05, "dt": 0.025, "spatial_extent": 1.0, "dtt": 0.02},
     "grid.dtt: unknown field; expected one of ['spatial_extent', 'dx', 'dt', 'margin_cells']"),
    # dim comes from the problem: it used to crash with a TypeError traceback
    ({"dx": 0.05, "spatial_extent": 1.0, "dim": 2},
     "grid.dim: unknown field; expected one of ['spatial_extent', 'dx', 'dt', 'margin_cells']"),
    ({"spatial_extent": 1.0}, "grid.dx: missing required field"),
    ({"dx": 0.05, "dtt": 0.02}, "grid.dtt: unknown field; expected one of ['dx', 'dt', 'margin_cells']"),
], ids=["extent_unknown", "extent_dim", "extent_no_dx", "covering_unknown"])
def test_both_grid_forms_name_a_bad_key(tmp_path, capsys, grid, message):
    path, _ = base_config(tmp_path, grid=grid)
    assert main(["solve-linear", "--config", str(path)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "name",
    [
        "tol",
        "max_iter",
        "residual_constant",
        "grid.dx",
        "grid.dt",
        "problem.dim",
        "problem.horizon",
        "problem.u0.amplitude",
        "ladder.eps0",
        "quad.time_points_per_dt",
    ],
)
def test_boolean_number_rejected(tmp_path, capsys, name):
    # bool is an int in Python, so JSON true must be refused explicitly
    assert_field_rejected(tmp_path, capsys, name, True)


@pytest.mark.parametrize(
    "name, value",
    [
        ("tol", float("inf")),
        ("residual_constant", float("inf")),
        ("ladder.count", 3.5),
        ("quad.time_points_per_dt", 1.5),
        ("quad.polar_points", 8.0),
        ("problem.dim", 1.0),
        ("grid.margin_cells", 2.5),
    ],
)
def test_bad_number_rejected(tmp_path, capsys, name, value):
    # non-finite values and non-integral counts are config errors naming the
    # field, not a crash, a silently truncated count or a check that cannot fail
    assert_field_rejected(tmp_path, capsys, name, value)


def field_slot(doc, name):
    """The object of ``doc`` that holds the dotted field ``name``, and its key there."""
    *parents, key = name.split(".")
    for part in parents:
        doc = doc[part]
    return doc, key


def assert_field_rejected(tmp_path, capsys, name, value):
    path, doc = base_config(tmp_path)
    target, key = field_slot(doc, name)
    target[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=name):
        load_config(path)
    assert main(["solve-linear", "--config", str(path)]) == EXIT_CONFIG_ERROR
    assert name in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, value",
    [
        ("problem", 5),
        ("grid", [0.05]),
        ("ladder", "eps"),
        ("quad", None),
        ("checks", 5),
        ("outputs", 7),
    ],
)
def test_config_shape_rejected(tmp_path, capsys, name, value):
    # a section of the wrong JSON type is a config error naming it, not a crash
    path, doc = base_config(tmp_path)
    doc[name] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=name):
        load_config(path)
    assert main(["solve-linear", "--config", str(path)]) == EXIT_CONFIG_ERROR
    assert name in capsys.readouterr().err


def test_underflowing_ladder_is_a_config_error(tmp_path, capsys):
    # the last entry 0.5 * (1e-200)**2 underflows to 0: rejected when the
    # config is parsed, before any entry is solved
    path, _ = base_config(tmp_path, ladder={"eps0": 0.5, "ratio": 1e-200, "count": 3},
                          checks=[])
    with pytest.raises(ConfigError, match="ladder.ratio"):
        load_config(path)
    assert main(["solve-semilinear", "--config", str(path)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("config error: ladder.ratio")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("coefficients", [5, ["x"]])
def test_bad_coefficients_rejected(tmp_path, capsys, coefficients):
    path, doc = base_config(tmp_path)
    doc["problem"]["f"] = {"kind": "polynomial", "coefficients": coefficients}
    path.write_text(json.dumps(doc))
    assert main(["solve-linear", "--config", str(path)]) == EXIT_CONFIG_ERROR
    assert "problem.f" in capsys.readouterr().err
