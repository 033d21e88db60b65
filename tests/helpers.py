"""Field and problem builders that only the tests need."""

from dataclasses import replace

import numpy as np

import colwave.suite
from colwave.linwave import solve_linear
from colwave.seminorms import Field, SpaceTimeGrid
from colwave.semilinear import solve_net


def sampled_field(grid: SpaceTimeGrid, fn) -> Field:
    """Sample ``fn(T, X[, Y[, Z]])`` (vectorized) on the grid."""
    return Field(grid, np.asarray(fn(*grid.meshes()), dtype=float) * np.ones(grid.shape))


def constant_field(grid: SpaceTimeGrid, value: float) -> Field:
    return Field(grid, np.full(grid.shape, float(value)))


def shift_u0(problem, shift: float):
    """``problem`` with ``shift`` added to its u0 amplitude: another problem unless 0."""
    return replace(problem, u0=replace(problem.u0, amplitude=problem.u0.amplitude + shift))


def checked_as_shifted(solved, shift: float):
    """``solved`` with the config and linear part of its problem under ``shift_u0``.

    Only the net and its solve reports stay: unless ``shift`` is 0, the net
    solves another problem than the config's, and a check that re-solves
    the config (``uniqueness``) must fail on it.
    """
    cfg = replace(solved.config, problem=shift_u0(solved.config.problem, shift))
    linear = solve_linear(cfg.problem.u0, cfg.problem.u1, None, cfg.grid, cfg.quad)
    return solved._replace(config=cfg, linear=linear)


def recorded_seeded_nets(monkeypatch) -> list:
    """The list each seeded solve of the ``uniqueness`` check appends its net to."""
    seeded = []

    def recording_solve_net(*args, **kwargs):
        result = solve_net(*args, **kwargs)
        seeded.append(result[0])
        return result

    monkeypatch.setattr(colwave.suite, "solve_net", recording_solve_net)
    return seeded


def cone_mask(grid: SpaceTimeGrid, inflation_cells: int) -> np.ndarray:
    """Boolean grid-shape mask of the cone inflated by ``inflation_cells`` cells.

    ``grid.cone_mask()`` with another inflation than the package's one cell.
    """
    bound = grid.times + grid.support_radius + inflation_cells * grid.dx + 1e-12
    return grid.node_radius[None] <= bound[(slice(None),) + (None,) * grid.dim]


def datum_gradient(datum, points) -> np.ndarray:
    """Spatial gradient of a radial ``InitialDatum`` at ``points``; shape (..., d).

    The radial derivative along the unit direction; at rho == 0 the
    profile is flat, so 0 there is exact.
    """
    pts = np.asarray(points, dtype=float)
    rho = np.sqrt(np.sum(pts * pts, axis=-1))
    _, f1 = datum._radial(rho, 1)
    safe = np.where(rho > 0.0, rho, 1.0)
    return (f1 / safe)[..., None] * pts


def second_difference(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Centred second difference over the whole box, one-sided at the ends.

    The ends take the four-node formula; an axis of 3 nodes repeats its
    middle value there.
    """
    n = arr.shape[axis]
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


def whole_box_defect(field: Field, eps: float, problem) -> tuple[np.ndarray, np.ndarray]:
    """Defect u_tt - Lap(u) - eps**b f(u) on every node, and the mask ``residual_sup`` reads.

    The mask is the inflated cone without the first and last node of any
    spatial axis.
    """
    grid = field.grid
    wave = second_difference(field.samples, 0, grid.dt)
    for axis in range(1, grid.dim + 1):
        wave -= second_difference(field.samples, axis, grid.dx)
    mask = grid.cone_mask().copy()
    for axis in range(1, grid.dim + 1):
        for end in (0, -1):
            mask[(slice(None),) * axis + (end,)] = False
    return wave - problem.small_factor(eps) * problem.f.value(field.samples), mask
