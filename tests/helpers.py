"""Field builders that only the tests need."""

import numpy as np

from colwave.seminorms import Field, SpaceTimeGrid


def sampled_field(grid: SpaceTimeGrid, fn) -> Field:
    """Sample ``fn(T, X[, Y[, Z]])`` (vectorized) on the grid."""
    return Field(grid, np.asarray(fn(*grid.meshes()), dtype=float) * np.ones(grid.shape))


def constant_field(grid: SpaceTimeGrid, value: float) -> Field:
    return Field(grid, np.full(grid.shape, float(value)))
