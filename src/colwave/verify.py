"""Closed-form oracles of the solver: the blow-up solution y(t) = 1/(1 - eps t).

``oracle_lifespan`` evaluates it; ``cubic_oracle_problem`` builds plateau
data under f(u) = 2 u^3 whose solution equals it on an inner backward
cone, and ``check_wave_oracle`` compares the solver with it there.  The
checks of the paper's claims on a solved net live in ``suite``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import LifespanExceededError, ValidationError
from .linwave import QuadratureSpec
from .nets import InitialDatum, NonlinearitySpec, Problem
from .seminorms import SpaceTimeGrid
from .semilinear import picard_solve

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
