"""Per-epsilon Picard iteration for the small-nonlinearity wave problem.

The fixed-point map is F(u) = L(u0, u1, 0) + eps**b * L(0, 0, f(u)); for
small eps the source application contracts, so plain successive
substitution converges geometrically and the measured increment ratio
itself estimates the contraction factor.

For larger eps the iteration may blow up.  That is an outcome the checks
read, so every solve reports it in its ``SolveReport`` (``converged``
False, infinite final increment) next to the last finite iterate; only
the single map application ``apply_fixed_point_map`` raises
DivergenceError.
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
    decide).  A map application k whose f(u) or F(u) is not finite ends
    the solve as well: it returns the last finite iterate with
    ``iterations == k``, the k - 1 increments before it, ``converged``
    False and an infinite ``final_increment``.

    ``seed`` overrides the starting iterate (default: the linear part);
    ``linear_part`` lets callers reuse a precomputed L(u0,u1,0).
    """
    if not (0.0 < eps <= 1.0):
        raise ValidationError("eps", f"must lie in (0, 1], got {eps}")
    if not (0.0 < tol < math.inf):
        raise ValidationError("tol", f"must be positive and finite, got {tol}")
    check_count("max_iter", max_iter, 1)

    u_lin = _linear(problem, grid, quad, linear_part)
    factor = problem.small_factor(eps)
    mask = grid.cone_mask(CONE_INFLATION_CELLS)
    u = _on_grid("seed", seed, grid) if seed is not None else u_lin
    history: list[float] = []
    for k in range(1, max_iter + 1):
        nxt = _map(problem, factor, u, u_lin, quad)
        if nxt is None:
            return u, SolveReport(eps, k, history, converged=False, final_increment=math.inf)
        inc = float(np.max(np.abs((nxt - u.samples)[mask])))
        u = Field(grid, nxt)
        history.append(inc)
        if inc <= tol:
            break
    return u, SolveReport(eps, k, history, history[-1] <= tol, history[-1])


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

    Entries are independent; a diverging entry is reported as
    ``picard_solve`` reports it (its field is the last finite iterate) and
    the remaining entries still run.  ``seeds`` holds one starting iterate (or
    None) per ladder entry.  ``linear_part`` lets callers reuse a
    precomputed L(u0,u1,0).
    """
    check_count("threads", threads, 1)
    if seeds is not None and len(seeds) != len(ladder):
        raise ValidationError("seeds", f"need {len(ladder)}, one per ladder entry, got {len(seeds)}")
    u_lin = _linear(problem, grid, quad, linear_part)

    def run(j: int) -> tuple[Field, SolveReport]:
        eps = float(ladder.values[j])
        seed = seeds[j] if seeds is not None else None
        return picard_solve(problem, eps, grid, quad, tol, max_iter, seed=seed, linear_part=u_lin)

    indices = range(len(ladder))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, indices))
    else:
        results = [run(j) for j in indices]
    fields = tuple(f for f, _ in results)
    reports = [r for _, r in results]
    return Net(ladder, fields), reports


def unconverged_eps(reports: list[SolveReport]) -> list[float]:
    """The eps of each solve in ``reports`` that did not converge, in order.

    A net with such an entry is not a net of solutions: its field is the
    last iterate, not a fixed point, so no check may measure it.
    """
    return [r.eps for r in reports if not r.converged]


def apply_fixed_point_map(
    problem: Problem,
    eps: float,
    field: Field,
    grid: SpaceTimeGrid,
    quad: QuadratureSpec,
    linear_part: Field | None = None,
) -> Field:
    """One application of F(u) = L(u0,u1,0) + eps**b L(0,0,f(u)).

    The same map ``picard_solve`` iterates; where f(u) or F(u) is not
    finite, this raises DivergenceError (the solvers report it instead).
    """
    u_lin = _linear(problem, grid, quad, linear_part)
    field = _on_grid("field", field, grid)
    nxt = _map(problem, problem.small_factor(eps), field, u_lin, quad)
    if nxt is None:
        raise DivergenceError("the fixed-point map produced non-finite values")
    return Field(grid, nxt)


def _linear(
    problem: Problem, grid: SpaceTimeGrid, quad: QuadratureSpec, given: Field | None
) -> Field:
    """``given``, or else the linear part L(u0,u1,0) of ``problem``.

    Every solve and map application enters here, so this is where a grid
    of another dimension than ``problem`` is rejected.
    """
    if grid.dim != problem.dim:
        raise ValidationError("grid", "grid dimension does not match the problem")
    if given is not None:
        return _on_grid("linear_part", given, grid)
    return solve_linear(problem.u0, problem.u1, None, grid, quad)


def _on_grid(name: str, field: Field, grid: SpaceTimeGrid) -> Field:
    """``field``, checked to lie on ``grid``, not only on one of its shape."""
    if field.grid != grid:
        raise ValidationError(name, "must lie on the grid of the solve")
    return field


def _map(
    problem: Problem,
    factor: float,
    u: Field,
    u_lin: Field,
    quad: QuadratureSpec,
) -> np.ndarray | None:
    """Samples of F(u) = u_lin + factor * L(0,0,f(u)); None where f(u) or F(u) is not finite."""
    grid = u_lin.grid
    source = problem.f.value(u.samples)
    if not np.all(np.isfinite(source)):
        return None
    try:
        g = solve_linear(ZERO_DATUM, ZERO_DATUM, Field(grid, source), grid, quad).samples
    except DivergenceError:  # the Duhamel term of the finite source overflowed
        return None
    del source
    # u_lin + factor * g in g's buffer, in that operation order
    with np.errstate(over="ignore"):  # overflow to inf is the divergence signal
        np.multiply(factor, g, out=g)
        np.add(u_lin.samples, g, out=g)
    return g if np.all(np.isfinite(g)) else None


def residual_sup(field: Field, eps: float, problem: Problem) -> float:
    """Max |u_tt - Lap(u) - eps**b f(u)| over the interior cone nodes.

    Those are the cone nodes off every spatial face (all of them on a
    covering grid).  The defect is gathered there alone, each term in the
    whole-box operation order (one-sided in time on the first and last
    level), so the sup is bit for bit the whole box's.

    The discrete defect of a converged solution shrinks at second order in
    the grid spacings plus the stopping-tolerance contribution tol/dt^2.
    """
    grid = field.grid
    if grid.dim != problem.dim:
        raise ValidationError("grid", "grid dimension does not match the problem")
    mask = grid.cone_mask(CONE_INFLATION_CELLS)
    for axis in range(1, grid.dim + 1):
        mask[(slice(None),) * axis + ([0, -1],)] = False
    nodes = np.flatnonzero(mask)
    del mask
    strides = [math.prod(grid.shape[a + 1 :]) for a in range(grid.dim + 1)]
    u = np.ascontiguousarray(field.samples).reshape(-1)
    centre = u.take(nodes)
    twice = 2.0 * centre
    wave = _time_difference(u, nodes, twice, strides[0], grid.shape[0]) / grid.dt**2
    for s in strides[1:]:
        lo = nodes - s
        wave -= (u[2 * s :].take(lo) - twice + u.take(lo)) / grid.dx**2
    res = wave - problem.small_factor(eps) * problem.f.value(centre)
    return float(np.max(np.abs(res)))


def _time_difference(
    u: np.ndarray, nodes: np.ndarray, twice: np.ndarray, s: int, levels: int
) -> np.ndarray:
    """Undivided second difference along time of flat ``u`` at the sorted flat ``nodes``.

    ``s`` is the time stride and ``twice`` is ``2.0 * u`` at the nodes.  The
    nodes of the first and last level are a prefix and a suffix of ``nodes``.
    """
    lo, hi = np.searchsorted(nodes, [s, u.size - s])
    first = nodes[:lo]
    out = np.empty(len(nodes))
    if levels >= 4:
        out[:lo] = (2.0 * u.take(first) - 5.0 * u[s:].take(first)
                    + 4.0 * u[2 * s :].take(first) - u[3 * s :].take(first))
        back = nodes[hi:] - 3 * s
        out[hi:] = (2.0 * u[3 * s :].take(back) - 5.0 * u[2 * s :].take(back)
                    + 4.0 * u[s:].take(back) - u.take(back))
    else:  # the first and last level repeat the middle level's value
        back = nodes[hi:] - 2 * s
        out[:lo] = u[2 * s :].take(first) - 2.0 * u[s:].take(first) + u.take(first)
        out[hi:] = u[2 * s :].take(back) - 2.0 * u[s:].take(back) + u.take(back)
    back = nodes[lo:hi] - s
    out[lo:hi] = u[2 * s :].take(back) - twice[lo:hi] + u.take(back)
    return out
