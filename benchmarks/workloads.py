"""The benchmark workloads: inputs drawn from a seed, timed calls, gates.

``build`` turns (workload, seed) into inputs; ``run`` makes the timed calls
through colwave's public modules (attribute lookups at call time, so a
traced worker sees every call) and gates every output against the
acceptance tolerances below.  The seed moves datum amplitudes, the ladder's
eps0 and the calculus-net patterns inside ranges where every gate holds and
every Picard solve takes the same number of sweeps; it never changes a grid.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import colwave
import colwave.cli
import colwave.linwave
import colwave.seminorms

# Acceptance tolerances of the preset suite; a workload never loosens them.
SUPPORT_TOL = 1e-8
ORACLE_TOL = 1e-4
TRANSLATE_TOL = 1e-8
PLATEAU_MEAN_TOL = 1e-6
SYMMETRY_TOL = 1e-9
SLOPE_TOL = 1e-10
PICARD_TOL = 1e-10
ASSOCIATION_THRESHOLD = 0.1
RATE_MARGIN = 0.1

ZERO = colwave.InitialDatum("zero")
SINE = colwave.NonlinearitySpec("sine")


class Gate:
    """Counts operations and the ones that fail.

    An operation fails when it raises or when one of its checks misses;
    either way it counts once.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    @contextlib.contextmanager
    def op(self, name: str):
        self.attempted += 1
        misses: list[str] = []

        def check(ok: bool, what: str) -> None:
            if not ok:
                misses.append(what)

        try:
            yield check
        except Exception as exc:  # a raising operation is a failed operation
            misses.append(f"raised {type(exc).__name__}: {exc}")
        if misses:
            self.failures.append(f"{name}: {'; '.join(misses)}")


def _bump_problem(dim: int, radius: float, horizon: float, amplitude: float):
    return colwave.Problem(
        dim=dim,
        horizon=horizon,
        support_radius=radius,
        u0=colwave.InitialDatum("gaussian_bump", outer_radius=radius, amplitude=amplitude),
        u1=ZERO,
        f=SINE,
        small_exponent=1.0,
    )


@dataclass
class Result:
    """Accuracy figures a workload measured, for the report."""

    residual_sup: float = math.nan
    oracle_err: float = math.nan


# ---------------------------------------------------------------------------
# ladder1d: the 1D preset net, Duhamel-bound
# ---------------------------------------------------------------------------

def build_ladder1d(rng, work_dir):
    problem = _bump_problem(1, 0.5, 1.0, rng.uniform(0.995, 1.005))
    grid = colwave.SpaceTimeGrid.covering(1, 1.0, 0.5, dx=0.02, dt=0.01)
    return {
        "problem": problem,
        "ladder": colwave.make_ladder(rng.uniform(0.505, 0.53), 0.5, 8),
        "grid": grid,
        "quad": colwave.QuadratureSpec(angular_points=8, polar_points=10, time_points_per_dt=1),
    }


def run_ladder1d(inp, gate: Gate) -> Result:
    problem, ladder, grid, quad = inp["problem"], inp["ladder"], inp["grid"], inp["quad"]
    net = reports = lin = None
    with gate.op("solve_net") as check:
        net, reports = colwave.solve_net(problem, ladder, grid, quad, tol=PICARD_TOL, threads=1)
    with gate.op("linear_part") as check:
        lin = colwave.solve_linear(problem.u0, problem.u1, None, grid, quad)
    residuals, mu0 = [], []
    for j in range(len(ladder)):
        with gate.op(f"entry[{j}]") as check:
            fld, rep = net.fields[j], reports[j]
            check(rep.converged, f"Picard did not converge in {rep.iterations} sweeps")
            sup = colwave.check_support(fld, problem.support_radius, SUPPORT_TOL)
            check(sup.ok, f"support {sup.max_outside:.3e} > {SUPPORT_TOL}")
            residuals.append(colwave.residual_sup(fld, rep.eps, problem))
            mu0.append(colwave.seminorm(fld - lin, 0))
    with gate.op("association") as check:
        rate = colwave.seminorms.fit_decay_exponent(ladder.values, mu0).slope
        check(rate >= problem.small_exponent - RATE_MARGIN, f"association rate {rate:.3f}")
        check(mu0[-1] <= ASSOCIATION_THRESHOLD, f"last mu0 {mu0[-1]:.3e}")
    with gate.op("valuation_table") as check:
        rows = colwave.seminorms.valuation_table(net)
        check(len(rows) == 3 * len(ladder), f"{len(rows)} valuation rows")
        check(all(math.isfinite(r[3]) for r in rows), "non-finite slope")
    with gate.op("classify") as check:
        cls = colwave.classify(net)
        check(cls is colwave.NetClass.BOUNDED_TYPE, f"solution net classified {cls}")
    return Result(residual_sup=max(residuals, default=math.nan))


# ---------------------------------------------------------------------------
# solve23d: one 3D solve and the 2D blow-up oracle
# ---------------------------------------------------------------------------

def build_solve23d(rng, work_dir):
    return {
        "problem": _bump_problem(3, 0.4, 0.4, rng.uniform(0.995, 1.005)),
        "grid": colwave.SpaceTimeGrid.covering(3, 0.4, 0.4, dx=0.12, dt=0.06),
        "quad": colwave.QuadratureSpec(angular_points=12, polar_points=8, time_points_per_dt=1),
        "eps": 0.25,
        "oracle": {"dim": 2, "eps_values": (0.1,), "dx": 0.1},
    }


def run_solve23d(inp, gate: Gate) -> Result:
    problem, grid, quad, eps = inp["problem"], inp["grid"], inp["quad"], inp["eps"]
    out = Result()
    with gate.op("picard3d") as check:
        fld, rep = colwave.picard_solve(problem, eps, grid, quad, tol=PICARD_TOL)
        check(rep.converged, f"Picard did not converge in {rep.iterations} sweeps")
        sup = colwave.check_support(fld, problem.support_radius, SUPPORT_TOL)
        check(sup.ok, f"support {sup.max_outside:.3e} > {SUPPORT_TOL}")
        out.residual_sup = colwave.residual_sup(fld, eps, problem)
    with gate.op("oracle2d") as check:
        oracle = inp["oracle"]
        rep = colwave.check_wave_oracle(oracle["dim"], oracle["eps_values"], dx=oracle["dx"])
        out.oracle_err = max(err for _, err in rep.per_eps)
        check(rep.ok and out.oracle_err <= ORACLE_TOL, f"oracle error {out.oracle_err:.3e}")
    return out


# ---------------------------------------------------------------------------
# linear_calculus: data terms, field and CLI I/O, the seminorm calculus
# ---------------------------------------------------------------------------

def build_linear_calculus(rng, work_dir):
    def plateau(amp):
        return colwave.InitialDatum(
            "plateau_bump", outer_radius=0.6, inner_radius=0.4, amplitude=amp
        )

    def gaussian(amp):
        return colwave.InitialDatum("gaussian_bump", outer_radius=0.5, amplitude=amp)

    u0, u1 = plateau(rng.uniform(0.995, 1.005)), gaussian(rng.uniform(0.995, 1.005))
    cli_a0, cli_a1 = rng.uniform(0.995, 1.005, size=2)
    config = {
        "problem": {
            "dim": 2,
            "horizon": 0.4,
            "support_radius": 0.6,
            "u0": {"kind": "plateau_bump", "outer_radius": 0.6, "inner_radius": 0.4,
                   "amplitude": cli_a0},
            "u1": {"kind": "gaussian_bump", "outer_radius": 0.5, "amplitude": cli_a1},
            "f": {"kind": "zero"},
        },
        "grid": {"dx": 0.04},
        "quad": {"angular_points": 12, "polar_points": 8},
    }
    config_path = os.path.join(work_dir, "solve_linear_2d.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    return {
        "u0": u0,
        "u1": u1,
        "problem": colwave.Problem(3, 0.4, 0.6, u0, u1, colwave.NonlinearitySpec("zero")),
        "grid": colwave.SpaceTimeGrid.covering(3, 0.4, 0.6, dx=0.1, dt=0.05),
        "quad": colwave.QuadratureSpec(angular_points=12, polar_points=8),
        "bin_path": os.path.join(work_dir, "field3d.bin"),
        "cli_argv": ["solve-linear", "--config", config_path,
                     "--out", os.path.join(work_dir, "cli_out")],
        "cli_shape": (21, 55, 55),
        "translate_datum": gaussian(rng.uniform(0.5, 2.0)),
        "translate_grid": colwave.SpaceTimeGrid.covering(1, 0.5, 0.5, dx=0.02, dt=0.01),
        "mean_datum": colwave.InitialDatum(
            "plateau_bump", outer_radius=0.8, inner_radius=0.6, amplitude=rng.uniform(0.5, 2.0)
        ),
        "ladder": colwave.make_ladder(rng.uniform(0.45, 0.55), 0.5, 8),
        "bounded_exponent": rng.uniform(0.5, 3.0),
        "negligible_exponent": rng.uniform(7.0, 9.0),
        "weights": rng.uniform(0.5, 2.0, size=2),
        "shift": int(rng.integers(1, 4)),
    }


def run_linear_calculus(inp, gate: Gate) -> Result:
    out = Result()
    grid, quad, fld = inp["grid"], inp["quad"], None
    with gate.op("data3d") as check:
        fld = colwave.solve_linear(inp["u0"], inp["u1"], None, grid, quad)
        sup = colwave.check_support(fld, inp["problem"].support_radius, SUPPORT_TOL)
        check(sup.ok, f"support {sup.max_outside:.3e} > {SUPPORT_TOL}")
        out.residual_sup = colwave.residual_sup(fld, 1.0, inp["problem"])
    with gate.op("binary_roundtrip") as check:
        colwave.linwave.field_to_binary(fld, inp["bin_path"])
        back = colwave.linwave.field_from_binary(inp["bin_path"])
        check(back.grid == fld.grid, "grid changed in the binary round trip")
        check(np.array_equal(back.samples, fld.samples), "samples changed in the round trip")
    with gate.op("cli_solve_linear") as check:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = colwave.cli.main(inp["cli_argv"])
        check(code == 0 and buf.getvalue().startswith("solve-linear ok"), f"exit code {code}")
        out_dir = inp["cli_argv"][-1]
        back = colwave.linwave.field_from_binary(os.path.join(out_dir, "linear_field.bin"))
        check(back.samples.shape == inp["cli_shape"], f"CLI field shape {back.samples.shape}")
        check(os.path.getsize(os.path.join(out_dir, "linear_field.csv")) > 0, "empty CSV")
        sup = colwave.check_support(back, 0.6, SUPPORT_TOL)
        check(sup.ok, f"CLI field support {sup.max_outside:.3e} > {SUPPORT_TOL}")
    with gate.op("translation1d") as check:
        g, grid1 = inp["translate_datum"], inp["translate_grid"]
        line = colwave.solve_linear(g, ZERO, None, grid1, quad)
        tmesh, xmesh = grid1.meshes()
        exact = 0.5 * (g.value((xmesh + tmesh)[..., None]) + g.value((xmesh - tmesh)[..., None]))
        err = float(np.max(np.abs(line.samples - exact)))
        check(err <= TRANSLATE_TOL, f"translation error {err:.3e}")
    with gate.op("plateau_mean") as check:
        p = inp["mean_datum"]
        err = max(
            abs(colwave.linear_value(ZERO, p, t, np.zeros(dim), quad) - p.amplitude * t)
            for dim in (1, 2, 3)
            for t in (0.2, 0.45)
        )
        check(err <= PLATEAU_MEAN_TOL, f"plateau mean error {err:.3e}")
    with gate.op("calculus") as check:
        ladder = inp["ladder"]
        w_u, w_v = inp["weights"]
        a_u, a_v = inp["bounded_exponent"], inp["negligible_exponent"]
        base_u = w_u * fld.samples
        base_v = w_v * np.roll(fld.samples, inp["shift"], axis=1)
        net_u = colwave.Net(
            ladder, tuple(colwave.Field(grid, float(e) ** a_u * base_u) for e in ladder.values)
        )
        net_v = colwave.Net(
            ladder, tuple(colwave.Field(grid, float(e) ** a_v * base_v) for e in ladder.values)
        )
        rows = colwave.seminorms.valuation_table(net_u)
        slope_err = max(abs(r[3] - a_u) for r in rows)
        check(slope_err <= SLOPE_TOL, f"planted slope off by {slope_err:.3e}")
        cls_u, cls_v = colwave.classify(net_u), colwave.classify(net_v)
        check(cls_u is colwave.NetClass.BOUNDED_TYPE, f"bounded net classified {cls_u}")
        check(
            cls_v is colwave.NetClass.NEGLIGIBLE_AT_TESTED_ORDER,
            f"negligible net classified {cls_v}",
        )
        d_uv = colwave.ultra_metric(net_u, net_v, 3)
        d_vu = colwave.ultra_metric(net_v, net_u, 3)
        check(abs(d_uv - d_vu) <= SYMMETRY_TOL, f"ultra-metric asymmetry {abs(d_uv - d_vu):.3e}")
    return out


WORKLOADS = {
    "ladder1d": (build_ladder1d, run_ladder1d),
    "solve23d": (build_solve23d, run_solve23d),
    "linear_calculus": (build_linear_calculus, run_linear_calculus),
}


def build(name: str, seed: int, work_dir: str):
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name][0](rng, work_dir)


def run(name: str, inputs, gate: Gate) -> Result:
    return WORKLOADS[name][1](inputs, gate)
