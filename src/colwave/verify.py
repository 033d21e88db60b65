"""Measurable reproductions of the solver's convergence claims.

Each check turns an asymptotic statement into a finite-ladder
measurement: association decay rates, contraction gaps in the fitted
valuations, damping of seed perturbations, and the closed-form blow-up
oracle y(t) = 1/(1 - eps t) for the cubic test problem.

The checks that measure a net difference (contraction, uniqueness) stream
it: each ladder entry's difference is formed, measured into its
seminorm-table row and dropped before the next, so their memory does not
grow with the ladder length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientDataError, LifespanExceededError, ValidationError
from .linwave import QuadratureSpec
from .nets import InitialDatum, NonlinearitySpec, Problem
from .seminorms import (
    MAX_SEMINORM_ORDER,
    Field,
    Net,
    NetClass,
    SpaceTimeGrid,
    ValuationEstimate,
    _class_of,
    _differences,
    _metric,
    _seminorm_table,
    _valuations,
    fit_decay_exponent,
    seminorm,
)
from .semilinear import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    _linear,
    apply_fixed_point_map,
    picard_solve,
    solve_net,
    unconverged_eps,
)

#: Empirical slack on fitted rates against the nominal exponent b.
RATE_MARGIN = 0.1

#: Association surrogate: the last mu_0 difference must drop below this.
ASSOCIATION_THRESHOLD = 0.1

#: Contraction check: amplitude of the bump that perturbs the solved net.
CONTRACTION_PERTURBATION = 0.1

#: Uniqueness check: the second solve starts eps**this * bump off u_lin.
UNIQUENESS_SEED_EXPONENT = 8.0

#: Wave oracle: compare on |x| + t <= ORACLE_INNER_RADIUS, within ORACLE_TOL.
ORACLE_INNER_RADIUS = 0.5
ORACLE_TOL = 1e-4
ORACLE_QUAD = QuadratureSpec(angular_points=8, polar_points=8, time_points_per_dt=2)
#: Its plateau outer radius, horizon and default dx, in 1D and in 2D/3D.
#: There grid volume is expensive, so the horizon stays near the comparison
#: cap t = ORACLE_INNER_RADIUS, and a wide plateau transition keeps the
#: trilinear reading of the sampled source accurate.
ORACLE_GEOMETRY_1D = (0.65, 1.0, 0.02)
ORACLE_GEOMETRY_2D_3D = (1.1, 0.5, 0.16)


# ---------------------------------------------------------------------------
# association with the linear solution
# ---------------------------------------------------------------------------

@dataclass
class AssociationReport:
    mu0_history: list[float]
    fitted_rate: ValuationEstimate
    associated: bool
    strong_rate_ok: bool
    ok: bool


def check_association(
    problem: Problem,
    net: Net,
    linear: Field,
    tol: float = DEFAULT_TOL,
) -> AssociationReport:
    """Decay of mu_0(u_eps - v) of a solved net against its linear part v.

    ``associated`` is the finite-ladder surrogate: the history decreases
    (5% slack, plus ``10 * tol`` for the solve tolerance of ``net``) down
    to below ``ASSOCIATION_THRESHOLD``; ``strong_rate_ok`` asks the fitted
    rate to reach b within ``RATE_MARGIN``; ``ok`` is both.
    """
    if not (0.0 < tol < math.inf):
        raise ValidationError("tol", f"must be positive and finite, got {tol}")
    mu0 = [seminorm(f - linear, 0) for f in net.fields]
    fitted = fit_decay_exponent(net.ladder.values, mu0)
    non_increasing = all(
        mu0[j + 1] <= mu0[j] * 1.05 + 10.0 * tol for j in range(len(mu0) - 1)
    )
    associated = non_increasing and mu0[-1] <= ASSOCIATION_THRESHOLD
    strong = fitted.slope >= problem.small_exponent - RATE_MARGIN
    return AssociationReport(mu0_history=mu0, fitted_rate=fitted, associated=associated,
                             strong_rate_ok=strong, ok=associated and strong)


# ---------------------------------------------------------------------------
# contraction of the fixed-point map
# ---------------------------------------------------------------------------

def _bump_pattern(problem: Problem, grid: SpaceTimeGrid) -> np.ndarray:
    """Unit Gaussian bump over the data's support, at the spatial nodes."""
    bump = InitialDatum(
        "gaussian_bump", outer_radius=max(problem.support_radius, grid.dx * 4), amplitude=1.0
    )
    return bump.value(grid.spatial_points).reshape(grid.spatial_shape)


@dataclass
class ContractionReport:
    slope_gaps: dict[int, float]
    kappa_bound: float
    metric_ratio: float
    ok: bool


def check_contraction(
    problem: Problem,
    net_u: Net,
    u_lin: Field,
    quad: QuadratureSpec,
) -> ContractionReport:
    """Fitted valuation gain of one map application on a perturbed net.

    U is the solved net and ``u_lin`` its linear part; V = U + (smooth
    bump x ``CONTRACTION_PERTURBATION``); the gap nu_n(F(U)-F(V)) -
    nu_n(U-V) should reach the small-factor exponent b, and the
    truncated-metric ratio should not exceed exp(-(b - RATE_MARGIN)).

    One entry at a time, v = u + bump, F(u) and F(v) are formed and the
    differences u - v and F(u) - F(v) measured, so neither V nor a mapped
    or difference net is ever held whole.
    """
    b = problem.small_exponent
    ladder, grid = net_u.ladder, u_lin.grid
    pert = CONTRACTION_PERTURBATION * np.broadcast_to(_bump_pattern(problem, grid), grid.shape)

    def differences():
        """u - v and F(u) - F(v) of every entry in turn."""
        for eps, u in zip(ladder.values, net_u.fields):
            v = Field(grid, u.samples + pert)
            if u.grid != grid:  # the error U - V gave when V was a net
                raise ValidationError("net", "nets must share ladder and grid")
            yield u - v
            yield (apply_fixed_point_map(problem, float(eps), u, grid, quad, u_lin)
                   - apply_fixed_point_map(problem, float(eps), v, grid, quad, u_lin))

    table = _seminorm_table(differences(), MAX_SEMINORM_ORDER)
    before, after = _valuations(ladder, table[0::2]), _valuations(ladder, table[1::2])
    gaps = {
        n: math.inf if math.isinf(nu_after.slope) else nu_after.slope - nu_before.slope
        for n, (nu_before, nu_after) in enumerate(zip(before, after))
    }
    d_before, d_after = _metric(before), _metric(after)
    ratio = d_after / d_before if d_before > 0.0 else 0.0
    ok = all(g >= b - RATE_MARGIN for g in gaps.values()) and ratio <= math.exp(
        -(b - RATE_MARGIN)
    ) + 1e-12
    return ContractionReport(
        slope_gaps=gaps, kappa_bound=math.exp(-b), metric_ratio=ratio, ok=ok
    )


# ---------------------------------------------------------------------------
# uniqueness surrogate
# ---------------------------------------------------------------------------

@dataclass
class UniquenessReport:
    classification: NetClass | None
    mu_max: dict[int, float]
    ok: bool
    reason: str


def check_uniqueness_surrogate(
    problem: Problem,
    net_a: Net,
    quad: QuadratureSpec,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    threads: int = 1,
    linear_part: Field | None = None,
) -> UniquenessReport:
    """Two solves from different seeds must land on the same fixed point.

    ``net_a`` is the first solve, from the default seed; the second solve
    of ``problem`` (``tol``, ``max_iter``) starts from
    u_lin + eps**UNIQUENESS_SEED_EXPONENT * bump.  The iteration damps such
    a perturbation below measurement, so the check passes when the
    difference net classifies as negligible or all its seminorms stay below
    10 * tol.  It fails unmeasured when an entry of the second solve does
    not converge: a diverged entry's huge last iterate makes the difference
    decay steeply, and so read as negligible.  A ``problem`` other than the
    one ``net_a`` solves (another u0 amplitude, say) is a genuinely
    different problem and must fail the check.  ``linear_part`` reuses a
    precomputed L(u0,u1,0) of ``problem``.
    """
    ladder, grid = net_a.ladder, net_a.fields[0].grid
    u_lin = _linear(problem, grid, quad, linear_part)
    pattern = _bump_pattern(problem, grid)
    seeds = [
        Field(grid, u_lin.samples + float(eps) ** UNIQUENESS_SEED_EXPONENT * pattern)
        for eps in ladder.values
    ]
    net_b, reports_b = solve_net(
        problem, ladder, grid, quad, tol, max_iter, threads=threads, seeds=seeds,
        linear_part=u_lin,
    )
    unconverged = unconverged_eps(reports_b)
    if unconverged:
        return UniquenessReport(None, {}, False, f"seeded solve unconverged at eps {unconverged}")

    table = _seminorm_table(_differences(net_a, net_b), MAX_SEMINORM_ORDER)
    mu_max = dict(enumerate(table.max(axis=0).tolist()))
    try:
        cls = _class_of(_valuations(ladder, table))
    except InsufficientDataError:
        cls = None
    if cls is NetClass.NEGLIGIBLE_AT_TESTED_ORDER:
        return UniquenessReport(cls, mu_max, True, "difference negligible at tested orders")
    if all(v <= 10.0 * tol for v in mu_max.values()):
        return UniquenessReport(cls, mu_max, True, "all seminorms below 10*tol")
    return UniquenessReport(cls, mu_max, False, "difference not negligible")


# ---------------------------------------------------------------------------
# blow-up oracle
# ---------------------------------------------------------------------------

def oracle_lifespan(eps: float, t: float) -> float:
    """Exact value 1/(1 - eps t) of the cubic test solution."""
    for name, value in (("eps", eps), ("t", t)):
        if not math.isfinite(value):
            raise ValidationError(name, f"must be finite, got {value}")
    if eps * t >= 1.0:
        raise LifespanExceededError(
            f"eps*t = {eps * t} reaches the blow-up time of 1/(1 - eps t)"
        )
    return 1.0 / (1.0 - eps * t)


@dataclass(frozen=True)
class OdeCheckReport:
    max_analytic_defect: float
    max_fd_defect: float


def ode_check(eps: float, t_grid) -> OdeCheckReport:
    """Defect of y' - eps y^2 for y = 1/(1 - eps t) on a time grid.

    The analytic derivative gives a defect at rounding level; the
    centered finite-difference derivative gives an O(dt^2) defect.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 3:
        raise ValidationError("t_grid", "need a 1D grid with at least 3 points")
    if np.max(eps * t) >= 1.0:
        raise LifespanExceededError("t_grid reaches the blow-up time")
    y = 1.0 / (1.0 - eps * t)
    dy_exact = eps / (1.0 - eps * t) ** 2
    analytic = float(np.max(np.abs(dy_exact - eps * y**2)))
    dy_fd = (y[2:] - y[:-2]) / (t[2:] - t[:-2])
    fd = float(np.max(np.abs(dy_fd - eps * y[1:-1] ** 2)))
    return OdeCheckReport(max_analytic_defect=analytic, max_fd_defect=fd)


def cubic_oracle_problem(
    dim: int,
    eps: float,
    horizon: float,
    inner_radius: float,
    outer_radius: float,
) -> Problem:
    """Plateau-data problem whose solution is 1/(1 - eps t) near the core.

    u0 = plateau of height 1, u1 = eps * (same plateau), f(u) = 2 u^3 with
    small factor eps^2; finite propagation speed makes the solution agree
    with the space-independent blow-up solution on {|x| + t <= inner}.
    """
    if eps * horizon > 0.5:
        raise ValidationError("eps", "need eps * horizon <= 0.5 to stay in the solve basin")
    plateau = InitialDatum(
        "plateau_bump", outer_radius=outer_radius, inner_radius=inner_radius, amplitude=1.0
    )
    return Problem(
        dim=dim,
        horizon=horizon,
        support_radius=outer_radius,
        u0=plateau,
        u1=replace(plateau, amplitude=eps),
        f=NonlinearitySpec("polynomial", (0.0, 0.0, 2.0)),
        small_exponent=2.0,
    )


@dataclass
class WaveOracleReport:
    per_eps: list[tuple[float, float]]
    ok: bool


def check_wave_oracle(
    dim: int,
    eps_values=(0.1, 0.05, 0.025),
    *,
    dx: float | None = None,
) -> WaveOracleReport:
    """Solver against 1/(1 - eps t) on the inner backward cone.

    Compares on nodes with |x| + t <= ORACLE_INNER_RADIUS, where the
    plateau problem coincides with the constant-data blow-up solution.
    """
    if len(eps_values) == 0:
        raise ValidationError("eps_values", "need at least one eps to compare")
    outer_radius, horizon, default_dx = ORACLE_GEOMETRY_1D if dim == 1 else ORACLE_GEOMETRY_2D_3D
    if dx is None:
        dx = default_dx
    per_eps: list[tuple[float, float]] = []
    for eps in eps_values:
        problem = cubic_oracle_problem(dim, float(eps), horizon, ORACLE_INNER_RADIUS, outer_radius)
        grid = SpaceTimeGrid.covering(dim, horizon, outer_radius, dx=dx, dt=dx / 2.0)
        field, report = picard_solve(problem, float(eps), grid, ORACLE_QUAD)
        if not report.converged:
            per_eps.append((float(eps), math.inf))
            continue
        radius = grid.node_radius[None]
        times = grid.times[(slice(None),) + (None,) * dim]
        region = radius + times <= ORACLE_INNER_RADIUS + 1e-12
        exact = 1.0 / (1.0 - float(eps) * times) * np.ones(grid.shape)
        err = float(np.max(np.abs((field.samples - exact)[region])))
        per_eps.append((float(eps), err))
    ok = all(math.isfinite(e) and e <= ORACLE_TOL for _, e in per_eps)
    return WaveOracleReport(per_eps=per_eps, ok=ok)
