"""Field and problem builders that only the tests need."""

from dataclasses import replace

import numpy as np

from colwave.seminorms import Field, SpaceTimeGrid


def sampled_field(grid: SpaceTimeGrid, fn) -> Field:
    """Sample ``fn(T, X[, Y[, Z]])`` (vectorized) on the grid."""
    return Field(grid, np.asarray(fn(*grid.meshes()), dtype=float) * np.ones(grid.shape))


def constant_field(grid: SpaceTimeGrid, value: float) -> Field:
    return Field(grid, np.full(grid.shape, float(value)))


def shift_u0(problem, shift: float):
    """``problem`` with ``shift`` added to its u0 amplitude: another problem unless 0."""
    return replace(problem, u0=replace(problem.u0, amplitude=problem.u0.amplitude + shift))


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
