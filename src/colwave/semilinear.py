"""Per-epsilon Picard iteration for the small-nonlinearity wave problem.

The fixed-point map is F(u) = L(u0, u1, 0) + eps**b * L(0, 0, f(u)); for
small eps the source application contracts, so plain successive
substitution converges geometrically and the measured increment ratio
itself estimates the contraction factor.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ValidationError, check_count
from .linwave import QuadratureSpec, solve_linear
from .nets import EpsilonLadder, Problem, ZERO_DATUM
from .seminorms import CONE_INFLATION_CELLS, Field, Net, SpaceTimeGrid

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 50


@dataclass
class SolveReport:
    """Iteration record returned next to every per-epsilon solution."""

    eps: float
    iterations: int
    increment_history: list[float]
    converged: bool
    final_increment: float


def picard_solve(
    problem: Problem,
    eps: float,
    grid: SpaceTimeGrid,
    quad: QuadratureSpec,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: Field | None = None,
    linear_part: Field | None = None,
) -> tuple[Field, SolveReport]:
    """Iterate u -> L(u0,u1,0) + eps**b L(0,0,f(u)) to the fixed point.

    Stops when the sup-norm increment on the cone drops to ``tol`` or
    after ``max_iter`` applications (then ``converged`` is False; callers
    decide).  Non-finite values during the source evaluation raise
    DivergenceError carrying the last finite iterate.

    ``seed`` overrides the starting iterate (default: the linear part);
    ``linear_part`` lets callers reuse a precomputed L(u0,u1,0).
    """
    if not (0.0 < eps <= 1.0):
        raise ValidationError("eps", f"must lie in (0, 1], got {eps}")
    if not (0.0 < tol < math.inf):
        raise ValidationError("tol", f"must be positive and finite, got {tol}")
    check_count("max_iter", max_iter, 1)
    if grid.dim != problem.dim:
        raise ValidationError("grid", "grid dimension does not match the problem")

    u_lin = _linear(problem, grid, quad, linear_part)
    factor = problem.small_factor(eps)
    mask = grid.cone_mask(CONE_INFLATION_CELLS)
    u = seed if seed is not None else u_lin
    history: list[float] = []
    converged = False
    for k in range(1, max_iter + 1):
        nxt = _map(problem, factor, u, u_lin, quad, k, history)
        inc = float(np.max(np.abs((nxt - u.samples)[mask])))
        u = Field(grid, nxt)
        history.append(inc)
        if inc <= tol:
            converged = True
            break
    report = SolveReport(
        eps=eps,
        iterations=len(history),
        increment_history=history,
        converged=converged,
        final_increment=history[-1] if history else math.inf,
    )
    return u, report


def solve_net(
    problem: Problem,
    ladder: EpsilonLadder,
    grid: SpaceTimeGrid,
    quad: QuadratureSpec,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    threads: int = 1,
    seeds: list[Field | None] | None = None,
    linear_part: Field | None = None,
) -> tuple[Net, list[SolveReport]]:
    """One Picard solve per ladder entry, sharing the linear part.

    Entries are independent; a diverging entry is recorded with
    ``converged=False`` (its field is the last finite iterate) and the
    remaining entries still run.  ``linear_part`` lets callers reuse a
    precomputed L(u0,u1,0).
    """
    u_lin = _linear(problem, grid, quad, linear_part)

    def run(j: int) -> tuple[Field, SolveReport]:
        eps = float(ladder.values[j])
        seed = seeds[j] if seeds is not None else None
        try:
            return picard_solve(
                problem, eps, grid, quad, tol, max_iter, seed=seed, linear_part=u_lin
            )
        except DivergenceError as err:
            field = err.field if err.field is not None else u_lin
            report = SolveReport(
                eps=eps,
                iterations=err.iterate,
                increment_history=err.increments,
                converged=False,
                final_increment=math.inf,
            )
            return field, report

    indices = range(len(ladder))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, indices))
    else:
        results = [run(j) for j in indices]
    fields = tuple(f for f, _ in results)
    reports = [r for _, r in results]
    return Net(ladder, fields), reports


def apply_fixed_point_map(
    problem: Problem,
    eps: float,
    field: Field,
    grid: SpaceTimeGrid,
    quad: QuadratureSpec,
    linear_part: Field | None = None,
) -> Field:
    """One application of F(u) = L(u0,u1,0) + eps**b L(0,0,f(u)).

    The same map ``picard_solve`` iterates; an overflowing f(u) or F(u)
    raises DivergenceError.
    """
    u_lin = _linear(problem, grid, quad, linear_part)
    return Field(grid, _map(problem, problem.small_factor(eps), field, u_lin, quad, 1, []))


def _linear(
    problem: Problem, grid: SpaceTimeGrid, quad: QuadratureSpec, given: Field | None
) -> Field:
    """``given``, or else the linear part L(u0,u1,0) of ``problem``."""
    return given if given is not None else solve_linear(problem.u0, problem.u1, None, grid, quad)


def _map(
    problem: Problem,
    factor: float,
    u: Field,
    u_lin: Field,
    quad: QuadratureSpec,
    iterate: int,
    history: list[float],
) -> np.ndarray:
    """Samples of F(u) = u_lin + factor * L(0,0,f(u)).

    Raises DivergenceError(``iterate``) carrying ``u`` and ``history`` when
    f(u) or F(u) is not finite.
    """
    grid = u_lin.grid
    source = problem.f.value(u.samples)
    if not np.all(np.isfinite(source)):
        raise DivergenceError(iterate, field=u, increments=history)
    g = solve_linear(ZERO_DATUM, ZERO_DATUM, Field(grid, source), grid, quad)
    with np.errstate(over="ignore"):  # overflow to inf is the divergence signal
        nxt = u_lin.samples + factor * g.samples
    if not np.all(np.isfinite(nxt)):
        raise DivergenceError(iterate, field=u, increments=history)
    return nxt


def residual_mask(grid: SpaceTimeGrid) -> np.ndarray:
    """Interior cone nodes where the discrete wave operator is evaluated."""
    mask = grid.cone_mask(CONE_INFLATION_CELLS).copy()
    for axis in range(1, grid.dim + 1):
        first = [slice(None)] * (grid.dim + 1)
        first[axis] = 0
        last = [slice(None)] * (grid.dim + 1)
        last[axis] = -1
        mask[tuple(first)] = False
        mask[tuple(last)] = False
    return mask


def _second_difference(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Centered second difference, second-order one-sided at the ends."""
    n = arr.shape[axis]
    if n < 3:
        raise ValidationError("grid", "need at least 3 nodes per axis for the residual")
    a = np.moveaxis(arr, axis, 0)
    out = np.empty_like(a)
    out[1:-1] = a[2:] - 2.0 * a[1:-1] + a[:-2]
    if n >= 4:
        out[0] = 2.0 * a[0] - 5.0 * a[1] + 4.0 * a[2] - a[3]
        out[-1] = 2.0 * a[-1] - 5.0 * a[-2] + 4.0 * a[-3] - a[-4]
    else:
        out[0] = out[1]
        out[-1] = out[-2]
    return np.moveaxis(out, 0, axis) / h**2


def _defect(field: Field, eps: float, problem: Problem) -> tuple[np.ndarray, np.ndarray]:
    """Defect u_tt - Lap(u) - eps**b f(u) on every node, and the residual mask."""
    grid = field.grid
    if grid.dim != problem.dim:
        raise ValidationError("grid", "grid dimension does not match the problem")
    wave = _second_difference(field.samples, 0, grid.dt)
    for axis in range(1, grid.dim + 1):
        wave -= _second_difference(field.samples, axis, grid.dx)
    return wave - problem.small_factor(eps) * problem.f.value(field.samples), residual_mask(grid)


def residual(field: Field, eps: float, problem: Problem) -> Field:
    """Discrete wave-operator defect u_tt - Lap(u) - eps**b f(u).

    Returned on interior cone nodes (zero elsewhere); the defect of a
    converged solution shrinks at second order in the grid spacings plus
    the stopping-tolerance contribution tol/dt^2.
    """
    res, mask = _defect(field, eps, problem)
    return Field(field.grid, np.where(mask, res, 0.0))


def residual_sup(field: Field, eps: float, problem: Problem) -> float:
    """Max |residual| over the interior cone nodes."""
    res, mask = _defect(field, eps, problem)
    return float(np.max(np.abs(res[mask]))) if mask.any() else 0.0


def reports_to_csv(reports: list[SolveReport], path) -> None:
    """Rows (eps, iterations, final_increment, converged)."""
    with open(path, "w") as fh:
        fh.write("eps,iterations,final_increment,converged\n")
        for r in reports:
            fh.write(
                f"{r.eps:.17g},{r.iterations},{r.final_increment:.17g},"
                f"{'true' if r.converged else 'false'}\n"
            )
