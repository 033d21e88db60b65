"""Every check in one place: one registry of config checks and the presets that run them.

A config check (``CONFIG_CHECKS``) is one function of a config, its solved
net and the thread count: it measures its claim on the net, judges it by
the thresholds fixed here and returns its ``CheckResult``, detail line and
CSV table.  A check that reads the net fails, and all but ``support`` and
``residual`` fail unmeasured, when an entry of the net did not converge.
``colwave check`` runs the ones a config names; a preset (``PRESETS``) is
a named config whose ``checks`` are the claims it carries.  ``colwave
demo`` runs the three checks that read no config (``CONFIG_FREE_CHECKS``),
then each preset's checks on its net, solved once by ``preset_nets``.
Both commands run a config's checks through ``run_checks``.
"""

from __future__ import annotations

import math
import numbers
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import InsufficientDataError, ValidationError, check_count
from .linwave import QuadratureSpec, check_support, linear_value, solve_linear
from .nets import EpsilonLadder, InitialDatum, NonlinearitySpec, Problem, ZERO_DATUM, make_ladder
from .seminorms import (
    MAX_SEMINORM_ORDER,
    Field,
    Net,
    NetClass,
    SpaceTimeGrid,
    _class_of,
    _differences,
    _metric,
    _seminorm_table,
    _valuations,
    classify,
    fit_decay_exponent,
    power_net,
    seminorm,
    ultra_metric,
    valuation,
)
from .semilinear import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    SolveReport,
    _linear,
    apply_fixed_point_map,
    picard_solve,
    residual_sup,
    solve_net,
    unconverged_eps,
)
from .verify import ORACLE_TOL, check_wave_oracle

#: Residual bound constant: sup residual <= RESIDUAL_C * (dx^2 + dt^2) + tol/dt^2
#: for the plateau problems of ``check_residual_convergence``.  It tracks the
#: fourth derivatives of their data (measured C_eff plateaus near 570 in 1D
#: and 370 in 3D), with at least 2x headroom; the Gaussian bumps of
#: ``PRESETS`` need a far larger ``residual_constant`` (see the README).
RESIDUAL_C = 1200.0

#: Largest |u| allowed outside the 2-cell inflated cone |x| <= t + r + 2 dx.
SUPPORT_TOL = 1e-8

#: Empirical slack on fitted rates against the nominal exponent b.
RATE_MARGIN = 0.1

#: Association surrogate: the last mu_0 difference must drop below this.
ASSOCIATION_THRESHOLD = 0.1

#: Contraction check: amplitude of the bump that perturbs the solved net.
CONTRACTION_PERTURBATION = 0.1

#: Uniqueness check: the second solve starts eps**this * bump off u_lin.
UNIQUENESS_SEED_EXPONENT = 8.0

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


# ---------------------------------------------------------------------------
# checks that read no config
# ---------------------------------------------------------------------------

def check_linear_kernels() -> CheckResult:
    """Translation-average identity in 1D; plateau means u(t,0)=t in 1D/2D/3D."""
    t0 = time.perf_counter()
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
    elapsed = time.perf_counter() - t0
    ok = err_translate <= 1e-8 and err_mean <= 1e-6 and elapsed < 30.0
    return CheckResult(
        "linear_kernels",
        ok,
        f"translate_err={err_translate:.2e} (tol 1e-08), mean_err={err_mean:.2e} (tol 1e-06)",
    )


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


def check_residual_convergence() -> CheckResult:
    """Wave-operator defect within budget; second-order under 1D refinement."""
    t0 = time.perf_counter()
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

    elapsed = time.perf_counter() - t0
    ok = bound_ok and order >= 1.8 and elapsed < 300.0
    return CheckResult(
        "residual_convergence",
        ok,
        f"order={order:.2f} (need >=1.8), 1d_sups={[f'{s:.2e}' for s in sups]}, "
        f"3d_sup={sup3:.2e} (budget {budget3:.2e})",
    )


def _tiny_grid() -> SpaceTimeGrid:
    return SpaceTimeGrid(
        dim=1, horizon=0.1, support_radius=0.2, spatial_extent=0.5, dx=0.05, dt=0.05
    )


def check_ultrametric_calculus() -> CheckResult:
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


#: The checks that solve nothing of a config, by name, in the order the demo runs them.
CONFIG_FREE_CHECKS = {
    "linear_kernels": check_linear_kernels,
    "residual_convergence": check_residual_convergence,
    "ultrametric_calculus": check_ultrametric_calculus,
}


# ---------------------------------------------------------------------------
# config checks
# ---------------------------------------------------------------------------

def _unconverged(reports: list[SolveReport]) -> str:
    """The detail clause naming each entry of ``reports`` that did not converge; "" if none."""
    eps = unconverged_eps(reports)
    return f" unconverged eps={','.join(map(fmt, eps))}" if eps else ""


def _unmeasured(name: str, header: str, unconverged: str) -> CheckResult:
    """The failed ``name`` check of a net with an unconverged entry: nothing measured."""
    return CheckResult(name, False, f"{name} ok=False{unconverged}", header)


def _support(cfg: ExperimentConfig, solved: Solved, threads: int) -> CheckResult:
    radius = cfg.problem.support_radius
    cases = [("linear", check_support(solved.linear, radius, SUPPORT_TOL))]
    cases += [
        (f"eps={fmt(r.eps)}", check_support(f, radius, SUPPORT_TOL))
        for f, r in zip(solved.net.fields, solved.reports)
    ]
    worst = max(rep.max_outside for _, rep in cases)
    unconverged = _unconverged(solved.reports)
    ok = all(rep.ok for _, rep in cases) and not unconverged
    return CheckResult(
        "support", ok,
        f"support ok={ok} max_outside={fmt(worst)} (tol {fmt(SUPPORT_TOL)}){unconverged}",
        "case,max_outside,ok", [(label, rep.max_outside, rep.ok) for label, rep in cases],
    )


def _bump_pattern(problem: Problem, grid: SpaceTimeGrid) -> np.ndarray:
    """Unit Gaussian bump over the data's support, at the spatial nodes."""
    bump = InitialDatum(
        "gaussian_bump", outer_radius=max(problem.support_radius, grid.dx * 4), amplitude=1.0
    )
    return bump.value(grid.spatial_points).reshape(grid.spatial_shape)


def _contraction(cfg: ExperimentConfig, solved: Solved, threads: int) -> CheckResult:
    """Fitted valuation gain of one map application F on a perturbed net.

    U is the solved net and V = U + (smooth bump x
    ``CONTRACTION_PERTURBATION``); the gap nu_n(F(U)-F(V)) - nu_n(U-V)
    should reach the small-factor exponent b, and the truncated-metric
    ratio should not exceed exp(-(b - RATE_MARGIN)).

    One entry at a time, v = u + bump, F(u) and F(v) are formed and the
    differences u - v and F(u) - F(v) measured, so neither V nor a mapped
    or difference net is ever held whole.
    """
    header = "order,slope_gap"
    if unconverged := _unconverged(solved.reports):
        return _unmeasured("contraction", header, unconverged)
    problem, grid, b = cfg.problem, cfg.grid, cfg.problem.small_exponent
    pert = CONTRACTION_PERTURBATION * np.broadcast_to(_bump_pattern(problem, grid), grid.shape)

    def differences():
        """u - v and F(u) - F(v) of every entry in turn."""
        for eps, u in zip(cfg.ladder.values, solved.net.fields):
            v = Field(grid, u.samples + pert)
            yield u - v
            yield (apply_fixed_point_map(problem, float(eps), u, grid, cfg.quad, solved.linear)
                   - apply_fixed_point_map(problem, float(eps), v, grid, cfg.quad, solved.linear))

    table = _seminorm_table(differences(), MAX_SEMINORM_ORDER)
    before, after = _valuations(cfg.ladder, table[0::2]), _valuations(cfg.ladder, table[1::2])
    gaps = [math.inf if math.isinf(a.slope) else a.slope - c.slope for c, a in zip(before, after)]
    d_before, d_after = _metric(before), _metric(after)
    ratio = d_after / d_before if d_before > 0.0 else 0.0
    bound = math.exp(-(b - RATE_MARGIN)) + 1e-12
    ok = all(g >= b - RATE_MARGIN for g in gaps) and ratio <= bound
    return CheckResult(
        "contraction", ok,
        f"contraction ok={ok} min_gap={fmt(min(gaps))} metric_ratio={fmt(ratio)} "
        f"kappa_bound={fmt(bound)}",
        header, list(enumerate(gaps)),
    )


def _association(cfg: ExperimentConfig, solved: Solved, threads: int) -> CheckResult:
    """Decay of mu_0(u_eps - v) of the solved net against its linear part v.

    The finite-ladder surrogate of association: the history decreases (5%
    slack, plus ``10 * tol`` for the solve tolerance) down to below
    ``ASSOCIATION_THRESHOLD``.  The fitted rate must also reach b within
    ``RATE_MARGIN``.
    """
    header = "eps,mu0_difference"
    if unconverged := _unconverged(solved.reports):
        return _unmeasured("association", header, unconverged)
    mu0 = [seminorm(f - solved.linear, 0) for f in solved.net.fields]
    rate = fit_decay_exponent(cfg.ladder.values, mu0).slope
    need = cfg.problem.small_exponent - RATE_MARGIN
    decreasing = all(later <= earlier * 1.05 + 10.0 * cfg.tol
                     for earlier, later in zip(mu0, mu0[1:]))
    ok = decreasing and mu0[-1] <= ASSOCIATION_THRESHOLD and rate >= need
    return CheckResult(
        "association", ok, f"association ok={ok} rate={fmt(rate)} (need >= {fmt(need)})",
        header, list(zip(cfg.ladder, mu0)),
    )


def _uniqueness(cfg: ExperimentConfig, solved: Solved, threads: int) -> CheckResult:
    """A second solve of the config from another seed must land on the solved net.

    The second solve starts from u_lin + eps**UNIQUENESS_SEED_EXPONENT *
    bump.  The iteration damps such a perturbation below measurement, so
    the check passes when the difference net classifies as negligible or
    all its seminorms stay below 10 * tol.  It fails unmeasured when an
    entry of the second solve does not converge: a diverged entry's huge
    last iterate makes the difference decay steeply, and so read as
    negligible.  A net of a problem other than the config's (another u0
    amplitude, say) is a genuinely different fixed point and must fail.
    """
    header = "order,mu_max"
    if unconverged := _unconverged(solved.reports):
        return _unmeasured("uniqueness", header, unconverged)
    grid, pattern = cfg.grid, _bump_pattern(cfg.problem, cfg.grid)
    seeds = [Field(grid, solved.linear.samples + float(eps) ** UNIQUENESS_SEED_EXPONENT * pattern)
             for eps in cfg.ladder.values]
    seeded, reports = solve_net(cfg.problem, cfg.ladder, grid, cfg.quad, cfg.tol, cfg.max_iter,
                                threads=threads, seeds=seeds, linear_part=solved.linear)
    if seeded_unconverged := unconverged_eps(reports):
        return CheckResult("uniqueness", False, "uniqueness ok=False class=n/a "
                           f"(seeded solve unconverged at eps {seeded_unconverged})", header)

    table = _seminorm_table(_differences(solved.net, seeded), MAX_SEMINORM_ORDER)
    mu_max = table.max(axis=0).tolist()
    try:
        cls = _class_of(_valuations(cfg.ladder, table))
    except InsufficientDataError:
        cls = None
    if cls is NetClass.NEGLIGIBLE_AT_TESTED_ORDER:
        ok, reason = True, "difference negligible at tested orders"
    elif all(v <= 10.0 * cfg.tol for v in mu_max):
        ok, reason = True, "all seminorms below 10*tol"
    else:
        ok, reason = False, "difference not negligible"
    return CheckResult(
        "uniqueness", ok, f"uniqueness ok={ok} class={cls.value if cls else 'n/a'} ({reason})",
        header, list(enumerate(mu_max)),
    )


def _oracle(cfg: ExperimentConfig, solved: Solved | None, threads: int) -> CheckResult:
    wave = check_wave_oracle(cfg.problem.dim)
    return CheckResult(
        "oracle", wave.ok,
        f"oracle ok={wave.ok} wave_errs={[f'{e:.2e}' for _, e in wave.per_eps]} "
        f"(tol {fmt(ORACLE_TOL)})",
        "eps,max_error", wave.per_eps,
    )


def _residual(cfg: ExperimentConfig, solved: Solved, threads: int) -> CheckResult:
    budget = _residual_budget(cfg.residual_constant, cfg.grid, cfg.tol)
    sups = [residual_sup(f, r.eps, cfg.problem) for f, r in zip(solved.net.fields, solved.reports)]
    rows = [(r.eps, sup, budget, sup <= budget) for r, sup in zip(solved.reports, sups)]
    unconverged = _unconverged(solved.reports)
    ok = all(row[-1] for row in rows) and not unconverged
    return CheckResult("residual", ok, f"residual ok={ok}{unconverged}",
                       "eps,residual_sup,budget,ok", rows)


def _picard_scaling(cfg: ExperimentConfig, solved: Solved, threads: int) -> CheckResult:
    """Successive-increment ratios of the entries scale like eps**b (slope b +/- 0.15)."""
    header = "eps,ratio"
    if unconverged := _unconverged(solved.reports):
        return _unmeasured("picard_scaling", header, unconverged)
    rows = [
        (rep.eps, rep.increment_history[1] / rep.increment_history[0])
        for rep in solved.reports
        if len(rep.increment_history) >= 2 and rep.increment_history[0] > 0
    ]
    if len(rows) < 3:
        return CheckResult("picard_scaling", False, "too few usable increment ratios", header, rows)
    eps_used, ratios = zip(*rows)
    slope, b = fit_decay_exponent(eps_used, ratios).slope, cfg.problem.small_exponent
    ok = abs(slope - b) <= 0.15
    return CheckResult("picard_scaling", ok, f"ratio slope={slope:.3f} (need {b:g} +/- 0.15)",
                       header, rows)


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
    "picard_scaling": _picard_scaling,
}

CHECK_NAMES = tuple(CONFIG_CHECKS)


# ---------------------------------------------------------------------------
# presets and the runner
# ---------------------------------------------------------------------------

def _preset(problem: Problem, dx: float, quad: QuadratureSpec, checks: list[str]) -> ExperimentConfig:
    """``problem`` on the 8-entry ladder and its covering grid of spacing ``dx`` (dt = dx/2)."""
    grid = SpaceTimeGrid.covering(problem.dim, problem.horizon, problem.support_radius, dx=dx)
    return ExperimentConfig(problem, make_ladder(0.5, 0.5, 8), grid, quad, checks=checks)


_QUAD_2D_3D = QuadratureSpec(angular_points=12, polar_points=8)

#: The preset configs by name, each with the checks of the claims it carries.
#: The 1D bump differs only in b, so its three presets share one linear part.
PRESETS = {
    "1d_b0.5": _preset(_bump_problem(1, b=0.5), 0.02, _QUAD_1D,
                       ["contraction", "association", "picard_scaling"]),
    "1d_b1": _preset(_bump_problem(1), 0.02, _QUAD_1D,
                     ["support", "contraction", "association", "oracle", "picard_scaling"]),
    "1d_b2": _preset(_bump_problem(1, b=2.0), 0.02, _QUAD_1D, ["association", "picard_scaling"]),
    "2d_b1": _preset(_bump_problem(2, radius=0.4, horizon=0.4), 0.08, _QUAD_2D_3D,
                     ["support", "contraction", "association", "uniqueness", "picard_scaling"]),
    "3d_b1": _preset(_bump_problem(3, radius=0.4, horizon=0.4), 0.12, _QUAD_2D_3D,
                     ["support", "contraction", "association", "uniqueness", "oracle",
                      "picard_scaling"]),
}


def preset_nets() -> dict[str, Solved]:
    """Every preset solved once, by name.

    Presets with the same data, grid and quadrature share one L(u0, u1, 0).
    """
    linears: dict[tuple, Field] = {}
    nets: dict[str, Solved] = {}
    for name, cfg in PRESETS.items():
        key = (cfg.problem.u0, cfg.problem.u1, cfg.grid, cfg.quad)
        nets[name] = solve(cfg, linear=linears.get(key))
        linears[key] = nets[name].linear
    return nets


def _timed(name: str, check, crash_fails: bool) -> tuple[CheckResult, float]:
    """``check()`` and its seconds; a crash raises, or fails the check when ``crash_fails``."""
    t0 = time.perf_counter()
    try:
        result = check()
    except Exception as exc:
        if not crash_fails:
            raise
        result = CheckResult(name, False, f"error: {exc}")
    return result, time.perf_counter() - t0


def run_checks(
    cfg: ExperimentConfig, solved: Solved | None, threads: int = 1, crash_fails: bool = False
) -> Iterator[tuple[CheckResult, float]]:
    """Each check ``cfg`` names, in order, on its solved net ``solved``, with its seconds.

    ``solved`` is ``None`` only when ``cfg`` names ``oracle`` alone.  A
    check that raises stops the run, or fails with its error as details
    when ``crash_fails`` (the demo's rule).
    """
    for name in cfg.checks:
        yield _timed(name, lambda: CONFIG_CHECKS[name](cfg, solved, threads), crash_fails)


def _line(label: str, result: CheckResult, seconds: float) -> tuple[CheckResult, float]:
    """Print the demo line of ``result`` under ``label``; return it so named, with its seconds."""
    print(f"{'PASS' if result.ok else 'FAIL'}  {label:<24} {result.details}  [{seconds:.1f}s]")
    return replace(result, name=label), seconds


def run_suite() -> list[tuple[CheckResult, float]]:
    """The config-free checks, then each preset's checks on its net; one printed line each.

    A preset's lines are named ``<preset>/<check>``; a crashed check is a failed line.
    """
    results = [_line(name, *_timed(name, check, crash_fails=True))
               for name, check in CONFIG_FREE_CHECKS.items()]
    for name, solved in preset_nets().items():
        results += [_line(f"{name}/{result.name}", result, seconds)
                    for result, seconds in run_checks(solved.config, solved, crash_fails=True)]
    return results
