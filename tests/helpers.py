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
