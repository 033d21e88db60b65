"""Every check in one place: the preset suite and the config checks.

The eight preset checks (``CHECKS``, one per headline claim) back the
acceptance tests and ``colwave demo`` through ``run_check``; they share the
1D nets of ``preset_nets``.  The six config checks (``CONFIG_CHECKS``) back
``colwave check`` and share the config's net.  A preset is a config too,
solved by ``solve``; a preset check of a solved net runs the config check.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, check_count
from .linwave import QuadratureSpec, check_support, linear_value, solve_linear
from .nets import EpsilonLadder, InitialDatum, NonlinearitySpec, Problem, ZERO_DATUM, make_ladder
from .seminorms import (
    Field,
    Net,
    NetClass,
    SpaceTimeGrid,
    classify,
    fit_decay_exponent,
    power_net,
    ultra_metric,
    valuation,
)
from .semilinear import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    SolveReport,
    _linear,
    picard_solve,
    residual_sup,
    solve_net,
)
from .verify import (
    ORACLE_TOL,
    RATE_MARGIN,
    check_association,
    check_contraction,
    check_uniqueness_surrogate,
    check_wave_oracle,
    ode_check,
    oracle_lifespan,
)

#: Residual bound constant: sup residual <= RESIDUAL_C * (dx^2 + dt^2) + tol/dt^2
#: for the preset problems below.  The constant tracks the fourth
#: derivatives of the preset data (measured C_eff plateaus near 570 in 1D
#: and 370 in 3D); fixed here with at least 2x headroom.
RESIDUAL_C = 1200.0

#: Largest |u| allowed outside the 2-cell inflated cone |x| <= t + r + 2 dx.
SUPPORT_TOL = 1e-8

_QUAD_1D = QuadratureSpec(angular_points=8, polar_points=10, time_points_per_dt=1)


@dataclass
class ExperimentConfig:
    """One experiment, read from a config document or a preset; it checks its own fields."""

    problem: Problem
    ladder: EpsilonLadder
    grid: SpaceTimeGrid
    quad: QuadratureSpec
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    outputs: str = "out"
    checks: list[str] = field(default_factory=list)
    residual_constant: float = RESIDUAL_C

    def __post_init__(self):
        # an infinite tol or residual_constant would make its check unable to fail
        for name in ("tol", "residual_constant"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and 0.0 < value < math.inf):
                raise ValidationError(name, f"must be positive and finite, got {value!r}")
            setattr(self, name, float(value))
        # a grid of another horizon or radius would solve and check another cone
        for name in ("dim", "horizon", "support_radius"):
            ours, theirs = getattr(self.grid, name), getattr(self.problem, name)
            if ours != theirs:
                raise ValidationError("grid", f"{name} {ours!r} differs from the problem's {theirs!r}")
        check_count("max_iter", self.max_iter, 1)
        if not isinstance(self.outputs, str):
            raise ValidationError("outputs", f"expected a directory name, got {self.outputs!r}")
        if not isinstance(self.checks, list):
            raise ValidationError("checks", "expected a list of check names")
        for j, name in enumerate(self.checks):
            if name not in CHECK_NAMES:
                raise ValidationError("checks", f"unknown check {name!r}; choose from {CHECK_NAMES}")
            # a check named twice would run, print and write its outputs twice
            if name in self.checks[:j]:
                raise ValidationError("checks", f"check {name!r} is named more than once")


class Solved(NamedTuple):
    """A solved net: its config, the net, its per-entry solve reports and its linear part."""

    config: ExperimentConfig
    net: Net
    reports: list[SolveReport]
    linear: Field


def solve(cfg: ExperimentConfig, threads: int = 1, linear: Field | None = None) -> Solved:
    """The config's net, on ``linear`` or else on L(u0, u1, 0) evaluated once here."""
    linear = _linear(cfg.problem, cfg.grid, cfg.quad, linear)
    net, reports = solve_net(cfg.problem, cfg.ladder, cfg.grid, cfg.quad, cfg.tol, cfg.max_iter,
                             threads=threads, linear_part=linear)
    return Solved(cfg, net, reports, linear)


@dataclass
class CheckResult:
    """Outcome of one check; config checks also carry their CSV table."""

    name: str
    ok: bool
    details: str
    header: str = ""
    rows: list | tuple = ()


def fmt(x: float) -> str:
    """17 significant digits, the format of every float in CLI outputs."""
    return f"{x:.17g}"


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return fmt(value) if isinstance(value, float) else str(value)


def write_csv(path: str, header: str, rows) -> None:
    """The header line, then one line per row: floats by ``fmt``, bools lower-case."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def _residual_budget(constant: float, grid: SpaceTimeGrid, tol: float) -> float:
    """Bound ``constant*(dx^2 + dt^2) + tol/dt^2`` on the residual sup of a solve to ``tol``."""
    return constant * (grid.dx**2 + grid.dt**2) + tol / grid.dt**2


def _bump_problem(dim: int, b: float = 1.0, radius: float = 0.5, horizon: float = 1.0) -> Problem:
    return Problem(
        dim=dim,
        horizon=horizon,
        support_radius=radius,
        u0=InitialDatum("gaussian_bump", outer_radius=radius, amplitude=1.0),
        u1=InitialDatum("zero"),
        f=NonlinearitySpec("sine"),
        small_exponent=b,
    )


def preset_nets() -> dict[float, Solved]:
    """The 1D bump preset for each b in {0.5, 1, 2} on the 8-entry ladder, keyed by b.

    Each is a config with the default ``tol`` and ``max_iter``; they differ
    only in b, so they share one grid and one linear part.
    """
    grid = SpaceTimeGrid.covering(1, 1.0, 0.5, dx=0.02, dt=0.01)
    ladder = make_ladder(0.5, 0.5, 8)
    nets: dict[float, Solved] = {}
    for b in (0.5, 1.0, 2.0):
        cfg = ExperimentConfig(_bump_problem(1, b=b), ladder, grid, _QUAD_1D)
        nets[b] = solve(cfg, linear=nets[0.5].linear if nets else None)
    return nets


def _per_preset(name: str, check, nets: dict[float, Solved], bs) -> CheckResult:
    """The config check ``check`` on the preset net of each b in ``bs``; ok when every one is."""
    results = [(b, check(nets[b].config, nets[b], 1)) for b in bs]
    details = "; ".join(f"b={b}: {r.details}" for b, r in results)
    return CheckResult(name, all(r.ok for _, r in results), details)


# ---------------------------------------------------------------------------
# 1. linear kernels
# ---------------------------------------------------------------------------

def check_linear_kernels(nets: dict[float, Solved]) -> CheckResult:
    """Translation-average identity in 1D; plateau means u(t,0)=t in 1D/2D/3D."""
    t0 = time.time()
    quad = QuadratureSpec(angular_points=16, polar_points=12)
    g = InitialDatum("gaussian_bump", outer_radius=0.5, amplitude=1.0)
    grid = SpaceTimeGrid.covering(1, 0.5, 0.5, dx=0.02, dt=0.01)
    field = solve_linear(g, ZERO_DATUM, None, grid, quad)
    tmesh, xmesh = grid.meshes()
    exact = 0.5 * (g.value((xmesh + tmesh)[..., None]) + g.value((xmesh - tmesh)[..., None]))
    err_translate = float(np.max(np.abs(field.samples - exact)))

    plateau = InitialDatum("plateau_bump", outer_radius=0.8, inner_radius=0.6, amplitude=1.0)
    err_mean = 0.0
    for dim in (1, 2, 3):
        for t in (0.2, 0.45):
            v = linear_value(ZERO_DATUM, plateau, t, np.zeros(dim), quad)
            err_mean = max(err_mean, abs(v - t))
    elapsed = time.time() - t0
    ok = err_translate <= 1e-8 and err_mean <= 1e-6 and elapsed < 30.0
    return CheckResult(
        "linear_kernels",
        ok,
        f"translate_err={err_translate:.2e} (tol 1e-08), mean_err={err_mean:.2e} (tol 1e-06)",
    )


# ---------------------------------------------------------------------------
# 2. cone support
# ---------------------------------------------------------------------------

def check_cone_support(nets: dict[float, Solved]) -> CheckResult:
    """Linear and semilinear presets vanish outside the 2-cell inflated cone."""
    support = _support(nets[1.0].config, nets[1.0], 1)
    ok = support.ok
    worst = max(max_outside for _, max_outside, _ in support.rows)

    quad23 = QuadratureSpec(angular_points=12, polar_points=8)
    for dim, dx in ((2, 0.08), (3, 0.12)):
        prob = _bump_problem(dim, radius=0.4, horizon=0.4)
        grid = SpaceTimeGrid.covering(dim, prob.horizon, prob.support_radius, dx=dx, dt=dx / 2)
        field, rep = picard_solve(prob, 0.25, grid, quad23)
        outside = check_support(field, prob.support_radius, SUPPORT_TOL)
        ok = ok and rep.converged and outside.ok
        worst = max(worst, outside.max_outside)

    return CheckResult(
        "cone_support",
        ok,
        f"max_outside={worst:.2e} (tol {fmt(SUPPORT_TOL)}) over "
        "1d-linear, 1d-semilinear-net, 2d-semilinear, 3d-semilinear",
    )


# ---------------------------------------------------------------------------
# 3. residual and refinement order
# ---------------------------------------------------------------------------

def _residual_problem(dim: int) -> Problem:
    # wide plateau transition keeps the data's fourth derivatives moderate,
    # so the refinement study reaches the second-order regime at these dx
    if dim == 1:
        datum = InitialDatum("plateau_bump", outer_radius=1.2, inner_radius=0.2, amplitude=1.0)
        horizon = 0.5
    else:
        # in 3D the imploding plateau edge focuses at the origin; an even
        # wider transition and half amplitude keep the focus mild
        datum = InitialDatum("plateau_bump", outer_radius=1.3, inner_radius=0.1, amplitude=0.5)
        horizon = 0.4
    return Problem(
        dim=dim,
        horizon=horizon,
        support_radius=datum.outer_radius,
        u0=datum,
        u1=InitialDatum("zero"),
        f=NonlinearitySpec("sine"),
        small_exponent=1.0,
    )


def check_residual_convergence(nets: dict[float, Solved]) -> CheckResult:
    """Wave-operator defect within budget; second-order under 1D refinement."""
    t0 = time.time()
    tol = 1e-12
    eps = 0.25
    prob = _residual_problem(1)
    sups = []
    spacings = []
    bound_ok = True
    for dx in (0.02, 0.01, 0.005):
        grid = SpaceTimeGrid.covering(1, prob.horizon, prob.support_radius, dx=dx, dt=dx / 2)
        field, rep = picard_solve(prob, eps, grid, _QUAD_1D, tol=tol)
        if not rep.converged:
            return CheckResult("residual_convergence", False, f"1D solve at dx={dx} failed")
        sup = residual_sup(field, eps, prob)
        bound_ok = bound_ok and sup <= _residual_budget(RESIDUAL_C, grid, tol)
        sups.append(sup)
        spacings.append(grid.dx)
    order = fit_decay_exponent(np.array(spacings), sups).slope

    prob3 = _residual_problem(3)
    grid3 = SpaceTimeGrid.covering(3, prob3.horizon, prob3.support_radius, dx=0.12, dt=0.06)
    quad3 = QuadratureSpec(angular_points=12, polar_points=8)
    field3, rep3 = picard_solve(prob3, eps, grid3, quad3, tol=tol)
    sup3 = residual_sup(field3, eps, prob3)
    budget3 = _residual_budget(RESIDUAL_C, grid3, tol)
    bound_ok = bound_ok and rep3.converged and sup3 <= budget3

    elapsed = time.time() - t0
    ok = bound_ok and order >= 1.8 and elapsed < 300.0
    return CheckResult(
        "residual_convergence",
        ok,
        f"order={order:.2f} (need >=1.8), 1d_sups={[f'{s:.2e}' for s in sups]}, "
        f"3d_sup={sup3:.2e} (budget {budget3:.2e})",
    )


# ---------------------------------------------------------------------------
# 4. blow-up oracle
# ---------------------------------------------------------------------------

def check_lifespan_oracle(nets: dict[float, Solved]) -> CheckResult:
    """ODE oracle value and the 1/(1 - eps t) wave solution in 1D and 3D."""
    ode_exact = oracle_lifespan(0.5, 1.0) == 2.0
    rep1 = check_wave_oracle(1)
    rep3 = check_wave_oracle(3)
    ok = ode_exact and rep1.ok and rep3.ok
    errs = lambda r: ", ".join(f"{e:g}:{v:.1e}" for e, v in r.per_eps)
    return CheckResult(
        "lifespan_oracle",
        ok,
        f"ode(0.5,1)=2.0 exact: {ode_exact}; "
        f"1d errs {errs(rep1)}; 3d errs {errs(rep3)} (tol 1e-04)",
    )


# ---------------------------------------------------------------------------
# 5. contraction factor
# ---------------------------------------------------------------------------

def check_contraction_factor(nets: dict[float, Solved]) -> CheckResult:
    """Valuation gap >= b - 0.1 and metric ratio <= exp(-(b - 0.1)) for b in {0.5, 1}."""
    return _per_preset("contraction_factor", _contraction, nets, (0.5, 1.0))


# ---------------------------------------------------------------------------
# 6. association with the linear solution
# ---------------------------------------------------------------------------

def check_linear_association(nets: dict[float, Solved]) -> CheckResult:
    """mu_0 difference decay rate >= b - 0.1 for b in {0.5, 1, 2}."""
    return _per_preset("linear_association", _association, nets, (0.5, 1.0, 2.0))


# ---------------------------------------------------------------------------
# 7. ultra-metric calculus
# ---------------------------------------------------------------------------

def _tiny_grid() -> SpaceTimeGrid:
    return SpaceTimeGrid(
        dim=1, horizon=0.1, support_radius=0.2, spatial_extent=0.5, dx=0.05, dt=0.05
    )


def check_ultrametric_calculus(nets: dict[float, Solved]) -> CheckResult:
    """Metric axioms on random triples; exact fits; planted classifications."""
    grid = _tiny_grid()
    ladder = make_ladder(0.5, 0.5, 8)
    rng = np.random.default_rng(20240811)

    # planted exponents recovered by the regression
    fit_err = 0.0
    for a in (0.0, 1.0, 2.5, 10.0):
        est = valuation(power_net(grid, ladder, a), 0)
        fit_err = max(fit_err, abs(est.slope - a))

    # planted classifications
    cls_ok = (
        classify(power_net(grid, ladder, 10.0)) is NetClass.NEGLIGIBLE_AT_TESTED_ORDER
        and classify(power_net(grid, ladder, 0.0)) is NetClass.BOUNDED_TYPE
        and classify(power_net(grid, ladder, -1.0)) is NetClass.MODERATE
    )

    # metric axioms on random triples: U = W + c eps^a1 phi1, V = W + c eps^a2 phi2
    # with phi2 the mirror image of phi1 (disjoint supports, symmetric cone
    # mask), so every pairwise difference is an exact power law with one
    # shared seminorm constant and the isoceles structure of the
    # ultra-metric must be reproduced by the fitted calculus.
    phi1 = np.zeros(grid.shape)
    phi1[:, 2:8] = np.array([0.4, 0.8, 1.0, 0.9, 0.6, 0.2])[None, :]
    phi2 = phi1[:, ::-1].copy()
    axiom_violation = 0.0
    for _ in range(50):
        a1, a2 = rng.uniform(0.0, 6.0, size=2)
        c = rng.uniform(0.5, 2.0)
        base = rng.uniform(-1.0, 1.0) * np.ones(grid.shape)
        w_net = power_net(grid, ladder, rng.uniform(0.0, 2.0), pattern=base)
        u_net = Net(
            ladder,
            tuple(
                Field(grid, f.samples + c * float(e) ** a1 * phi1)
                for f, e in zip(w_net.fields, ladder.values)
            ),
        )
        v_net = Net(
            ladder,
            tuple(
                Field(grid, f.samples + c * float(e) ** a2 * phi2)
                for f, e in zip(w_net.fields, ladder.values)
            ),
        )
        triples = ((u_net, v_net, w_net), (u_net, w_net, v_net), (v_net, w_net, u_net))
        for x_net, y_net, z_net in triples:
            dxy = ultra_metric(x_net, y_net, 3)
            dyx = ultra_metric(y_net, x_net, 3)
            axiom_violation = max(axiom_violation, abs(dxy - dyx))
            dxz = ultra_metric(x_net, z_net, 3)
            dzy = ultra_metric(z_net, y_net, 3)
            axiom_violation = max(axiom_violation, dxy - max(dxz, dzy))
        axiom_violation = max(axiom_violation, ultra_metric(u_net, u_net, 3))

    ok = fit_err <= 1e-10 and cls_ok and axiom_violation <= 1e-9
    return CheckResult(
        "ultrametric_calculus",
        ok,
        f"fit_err={fit_err:.1e} (tol 1e-10), classifications={'ok' if cls_ok else 'BAD'}, "
        f"axiom_violation={axiom_violation:.1e}",
    )


# ---------------------------------------------------------------------------
# 8. Picard increment scaling
# ---------------------------------------------------------------------------

def check_picard_scaling(nets: dict[float, Solved]) -> CheckResult:
    """Successive-increment ratios scale like eps (log-log slope 1 +/- 0.15)."""
    reports = nets[1.0].reports
    eps_used = []
    ratios = []
    for rep in reports:
        if rep.converged and len(rep.increment_history) >= 2 and rep.increment_history[0] > 0:
            eps_used.append(rep.eps)
            ratios.append(rep.increment_history[1] / rep.increment_history[0])
    if len(ratios) < 3:
        return CheckResult("picard_scaling", False, "too few usable increment ratios")
    slope = fit_decay_exponent(np.array(eps_used), ratios).slope
    ok = abs(slope - 1.0) <= 0.15
    return CheckResult("picard_scaling", ok, f"ratio slope={slope:.3f} (need 1 +/- 0.15)")


# ---------------------------------------------------------------------------
# preset runner
# ---------------------------------------------------------------------------

CHECKS = {
    "linear_kernels": check_linear_kernels,
    "cone_support": check_cone_support,
    "residual_convergence": check_residual_convergence,
    "lifespan_oracle": check_lifespan_oracle,
    "contraction_factor": check_contraction_factor,
    "linear_association": check_linear_association,
    "ultrametric_calculus": check_ultrametric_calculus,
    "picard_scaling": check_picard_scaling,
}


def run_check(name: str, nets: dict[float, Solved]) -> tuple[CheckResult, float]:
    """Run one preset check on ``nets``, print its pass/fail line; returns it and its seconds."""
    t0 = time.time()
    try:
        result = CHECKS[name](nets)
    except Exception as exc:  # a crashed check is a failed check
        result = CheckResult(name, False, f"error: {exc}")
    seconds = time.time() - t0
    print(f"{'PASS' if result.ok else 'FAIL'}  {name:<24} {result.details}  [{seconds:.1f}s]")
    return result, seconds


def run_suite() -> list[tuple[CheckResult, float]]:
    """Solve the preset nets once, then run every preset check, printing one line each."""
    nets = preset_nets()
    return [run_check(name, nets) for name in CHECKS]


# ---------------------------------------------------------------------------
# config checks
# ---------------------------------------------------------------------------

def _support(cfg: ExperimentConfig, solved: Solved, threads: int) -> CheckResult:
    radius = cfg.problem.support_radius
    cases = [("linear", check_support(solved.linear, radius, SUPPORT_TOL))]
    cases += [
        (f"eps={fmt(r.eps)}", check_support(f, radius, SUPPORT_TOL))
        for f, r in zip(solved.net.fields, solved.reports)
    ]
    worst = max(rep.max_outside for _, rep in cases)
    ok = all(rep.ok for _, rep in cases) and all(r.converged for r in solved.reports)
    return CheckResult(
        "support", ok, f"support ok={ok} max_outside={fmt(worst)} (tol {fmt(SUPPORT_TOL)})",
        "case,max_outside,ok", [(label, rep.max_outside, rep.ok) for label, rep in cases],
    )


def _contraction(cfg: ExperimentConfig, solved: Solved, threads: int) -> CheckResult:
    rep = check_contraction(cfg.problem, solved.net, solved.linear, cfg.quad)
    return CheckResult(
        "contraction", rep.ok,
        f"contraction ok={rep.ok} min_gap={fmt(min(rep.slope_gaps.values()))} "
        f"metric_ratio={fmt(rep.metric_ratio)} kappa_bound={fmt(rep.kappa_bound)}",
        "order,slope_gap", sorted(rep.slope_gaps.items()),
    )


def _association(cfg: ExperimentConfig, solved: Solved, threads: int) -> CheckResult:
    rep = check_association(cfg.problem, solved.net, solved.linear, cfg.tol)
    return CheckResult(
        "association", rep.ok,
        f"association ok={rep.ok} rate={fmt(rep.fitted_rate.slope)} "
        f"(need >= {fmt(cfg.problem.small_exponent - RATE_MARGIN)})",
        "eps,mu0_difference", list(zip(cfg.ladder, rep.mu0_history)),
    )


def _uniqueness(cfg: ExperimentConfig, solved: Solved, threads: int) -> CheckResult:
    rep = check_uniqueness_surrogate(
        cfg.problem, solved.net, cfg.quad, cfg.tol, cfg.max_iter, threads=threads,
        linear_part=solved.linear,
    )
    cls = rep.classification.value if rep.classification else "n/a"
    return CheckResult(
        "uniqueness", rep.ok, f"uniqueness ok={rep.ok} class={cls} ({rep.reason})",
        "order,mu_max", sorted(rep.mu_max.items()),
    )


def _oracle(cfg: ExperimentConfig, solved: Solved | None, threads: int) -> CheckResult:
    ode = ode_check(0.5, [i * 0.01 for i in range(101)])
    wave = check_wave_oracle(cfg.problem.dim)
    ok = wave.ok and ode.max_analytic_defect < 1e-12
    return CheckResult(
        "oracle", ok,
        f"oracle ok={ok} ode_defect={fmt(ode.max_analytic_defect)} "
        f"wave_errs={[f'{e:.2e}' for _, e in wave.per_eps]} (tol {fmt(ORACLE_TOL)})",
        "eps,max_error", wave.per_eps,
    )


def _residual(cfg: ExperimentConfig, solved: Solved, threads: int) -> CheckResult:
    budget = _residual_budget(cfg.residual_constant, cfg.grid, cfg.tol)
    sups = [residual_sup(f, r.eps, cfg.problem) for f, r in zip(solved.net.fields, solved.reports)]
    rows = [(r.eps, sup, budget, sup <= budget) for r, sup in zip(solved.reports, sups)]
    ok = all(r.converged for r in solved.reports) and all(row[-1] for row in rows)
    return CheckResult("residual", ok, f"residual ok={ok}", "eps,residual_sup,budget,ok", rows)


#: Config checks by name, in the order ``colwave check --help`` lists them.
#: Each takes the config, its ``Solved`` net (``None`` when only the
#: oracle runs: it solves its own plateau problems) and the thread count.
CONFIG_CHECKS = {
    "support": _support,
    "contraction": _contraction,
    "association": _association,
    "uniqueness": _uniqueness,
    "oracle": _oracle,
    "residual": _residual,
}

CHECK_NAMES = tuple(CONFIG_CHECKS)
