"""Numerical sharp-topology calculus on sampled nets.

Seminorms mu_n take the sup over the light cone K0 = {|x| <= t + r} of all
finite-difference derivatives of total order <= n, centred inside and
second-order one-sided on the first and last node of an axis, as
``np.gradient(..., edge_order=2)`` gives them.  Only the nodes of the
inflated cone are evaluated: first derivatives are whole-box arrays read
there, and second derivatives gather ``np.gradient``'s stencils at those
nodes alone, in its operation order, so every value is bit-identical to
differencing the whole box.

Decay exponents nu_n are least-squares slopes of log mu_n against log eps
over the ladder; the ultra-pseudo-seminorms are p_n = exp(-nu_n) and the
truncated ultra-metric is d(U, V) = sum_n 2^(-n-1) min(p_n(U - V), 1).

All classifications here are finite-ladder surrogates of the asymptotic
definitions: a fitted slope can only witness behaviour down to the
smallest sampled eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import InsufficientDataError, UnsupportedOrderError, ValidationError, check_count
from .nets import EpsilonLadder, InitialDatum

#: Highest derivative order entering the seminorms.  Finite differences of
#: sampled fields above order 2 are noise-dominated at practical grids.
MAX_SEMINORM_ORDER = 2

#: mu values at or below this are treated as exact zeros in rate fits.
UNDERFLOW_FLOOR = 1e-300

#: Classification thresholds on fitted decay slopes (see ``classify``).
NEGLIGIBLE_SLOPE = 6.0
BOUNDED_SLOPE_TOL = 0.05
MODERATE_SLOPE_MAX = 20.0

#: Sup over the cone is taken on nodes with |x| <= t + r + (this many) * dx
#: to avoid aliasing at the cone boundary.
CONE_INFLATION_CELLS = 1


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform tensor grid on [0, T] x [-R, R]^dim covering the cone K0.

    ``dx`` and ``dt`` are snapped so that the extents divide evenly; the
    snapped values are what all stencils use.  ``dt <= dx`` is required so
    that the residual stencils sample adequately.
    """

    dim: int
    horizon: float
    support_radius: float
    spatial_extent: float
    dx: float
    dt: float
    margin_cells: int = 2

    def __post_init__(self):
        check_count("dim", self.dim, 1)
        check_count("margin_cells", self.margin_cells, 2)
        if self.dim not in (1, 2, 3):
            raise ValidationError("dim", f"space dimension must be 1, 2 or 3, got {self.dim}")
        for name in ("horizon", "spatial_extent", "dx", "dt"):
            v = getattr(self, name)
            if not (v > 0.0) or not math.isfinite(v):
                raise ValidationError(name, "must be positive and finite")
        if not (0.0 <= self.support_radius < math.inf):
            raise ValidationError("support_radius", "must be nonnegative and finite")
        if self.spatial_extent < self.support_radius + self.horizon - 1e-12:
            raise ValidationError(
                "spatial_extent",
                "grid must cover the cone: spatial_extent >= support_radius + horizon",
            )
        nt = max(2, round(self.horizon / self.dt))
        object.__setattr__(self, "dt", self.horizon / nt)
        half = max(1, round(self.spatial_extent / self.dx))
        object.__setattr__(self, "dx", self.spatial_extent / half)
        if self.dt > self.dx * (1.0 + 1e-9):
            raise ValidationError("dt", f"dt={self.dt} must not exceed dx={self.dx}")

    @classmethod
    def covering(
        cls,
        dim: int,
        horizon: float,
        support_radius: float,
        dx: float,
        dt: float | None = None,
        margin_cells: int = 2,
    ) -> "SpaceTimeGrid":
        """Grid whose extent covers the cone plus ``margin_cells`` cells."""
        if not (dx > 0.0) or not math.isfinite(dx):
            raise ValidationError("dx", "must be positive and finite")
        cells = math.ceil((support_radius + horizon) / dx - 1e-12) + margin_cells
        return cls(
            dim=dim,
            horizon=horizon,
            support_radius=support_radius,
            spatial_extent=cells * dx,
            dx=dx,
            dt=dx / 2.0 if dt is None else dt,
            margin_cells=margin_cells,
        )

    # -- derived geometry -------------------------------------------------
    @cached_property
    def n_time(self) -> int:
        return round(self.horizon / self.dt)

    @cached_property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_time + 1)

    @cached_property
    def axis(self) -> np.ndarray:
        """Node coordinates per axis, exactly antisymmetric: ``axis == -axis[::-1]``.

        The centre node is exactly 0.0 and the ends exactly +-spatial_extent,
        so node values of radial functions are exactly mirror-symmetric.
        """
        half = round(self.spatial_extent / self.dx)
        pos = np.linspace(0.0, self.spatial_extent, half + 1)
        return np.concatenate([-pos[:0:-1], pos])

    @cached_property
    def spatial_shape(self) -> tuple[int, ...]:
        return (len(self.axis),) * self.dim

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return (self.n_time + 1, *self.spatial_shape)

    @cached_property
    def spatial_points(self) -> np.ndarray:
        """Flattened lattice coordinates, shape (n_nodes, dim)."""
        mesh = np.meshgrid(*([self.axis] * self.dim), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @cached_property
    def node_radius(self) -> np.ndarray:
        """Euclidean norm of every spatial node, in lattice shape."""
        return np.sqrt(np.sum(self.spatial_points**2, axis=-1)).reshape(self.spatial_shape)

    def cone_mask(self, inflation_cells: int = CONE_INFLATION_CELLS) -> np.ndarray:
        """Boolean (n_time+1, *spatial) mask of the inflated cone."""
        bound = self.times + self.support_radius + inflation_cells * self.dx + 1e-12
        expand = (slice(None),) + (None,) * self.dim
        return self.node_radius[None] <= bound[expand]

    @cached_property
    def cone_nodes(self) -> "ConeNodes":
        """Flat indices of ``cone_mask(CONE_INFLATION_CELLS)`` and their stencil subsets."""
        mask = self.cone_mask(CONE_INFLATION_CELLS)
        flat = np.flatnonzero(mask)
        axes = []
        for a, c in enumerate(np.unravel_index(flat, mask.shape)):
            last = mask.shape[a] - 1
            stride = math.prod(mask.shape[a + 1 :])
            axes.append((stride, flat[(c > 0) & (c < last)], flat[c == 0], flat[c == last]))
        for arr in (flat, *(x for ax in axes for x in ax[1:])):
            arr.flags.writeable = False
        return ConeNodes(flat, tuple(axes))

    def meshes(self) -> tuple[np.ndarray, ...]:
        """Full space-time meshgrid (T, X[, Y[, Z]]) in grid shape."""
        return tuple(np.meshgrid(self.times, *([self.axis] * self.dim), indexing="ij"))


@dataclass(frozen=True, eq=False)
class ConeNodes:
    """Flat indices of the inflated-cone nodes, split per axis for the FD stencils.

    ``axes[a]`` is ``(stride, interior, first, last)``: the flat stride of
    axis ``a`` and the cone nodes strictly inside that axis, on its first
    node and on its last node.
    """

    flat: np.ndarray
    axes: tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]


@dataclass(eq=False)
class Field:
    """Sampled space-time function on a grid; all samples finite."""

    grid: SpaceTimeGrid
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.shape != self.grid.shape:
            raise ValidationError(
                "samples", f"shape {self.samples.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise ValidationError("samples", "all samples must be finite")

    def __add__(self, other: "Field") -> "Field":
        self._check(other)
        return Field(self.grid, self.samples + other.samples)

    def __sub__(self, other: "Field") -> "Field":
        self._check(other)
        return Field(self.grid, self.samples - other.samples)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, self.samples * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.grid, -self.samples)

    def _check(self, other: "Field"):
        if not isinstance(other, Field) or other.grid != self.grid:
            raise ValidationError("grid", "fields must share one grid")

    def copy(self) -> "Field":
        return Field(self.grid, self.samples.copy())


def sampled_field(grid: SpaceTimeGrid, fn) -> Field:
    """Sample ``fn(T, X[, Y[, Z]])`` (vectorized) on the grid."""
    return Field(grid, np.asarray(fn(*grid.meshes()), dtype=float) * np.ones(grid.shape))


def constant_field(grid: SpaceTimeGrid, value: float) -> Field:
    return Field(grid, np.full(grid.shape, float(value)))


@dataclass(eq=False)
class Net:
    """One field per ladder entry, all sharing a single grid."""

    ladder: EpsilonLadder
    fields: tuple[Field, ...]

    def __post_init__(self):
        self.fields = tuple(self.fields)
        if len(self.fields) != len(self.ladder):
            raise ValidationError("fields", "one field per ladder entry required")
        grid = self.fields[0].grid
        if any(f.grid != grid for f in self.fields):
            raise ValidationError("fields", "all fields must share one grid")

    @property
    def grid(self) -> SpaceTimeGrid:
        return self.fields[0].grid

    def __sub__(self, other: "Net") -> "Net":
        self._check(other)
        return Net(self.ladder, tuple(a - b for a, b in zip(self.fields, other.fields)))

    def __add__(self, other: "Net") -> "Net":
        self._check(other)
        return Net(self.ladder, tuple(a + b for a, b in zip(self.fields, other.fields)))

    def __mul__(self, other: "Net") -> "Net":
        self._check(other)
        return Net(
            self.ladder,
            tuple(Field(a.grid, a.samples * b.samples) for a, b in zip(self.fields, other.fields)),
        )

    def _check(self, other: "Net"):
        if not isinstance(other, Net):
            raise ValidationError("net", "expected a Net")
        if other.ladder != self.ladder or other.grid != self.grid:
            raise ValidationError("net", "nets must share ladder and grid")


def power_net(grid: SpaceTimeGrid, ladder: EpsilonLadder, exponent: float, pattern=None) -> Net:
    """Net with entries ``eps_j**exponent * pattern`` (pattern defaults to 1)."""
    base = np.ones(grid.shape) if pattern is None else np.asarray(pattern, dtype=float) * np.ones(grid.shape)
    fields = tuple(Field(grid, float(e**exponent) * base) for e in ladder.values)
    return Net(ladder, fields)


@dataclass(frozen=True)
class ValuationEstimate:
    """Fitted decay exponent of a seminorm along the ladder.

    ``slope == inf`` is the sentinel for a numerically negligible net
    (every mu at or below the underflow floor); then ``n_points == 0``.
    """

    slope: float
    intercept: float
    stderr: float
    n_points: int

    @property
    def is_negligible_sentinel(self) -> bool:
        return math.isinf(self.slope)


def fit_decay_exponent(eps_values: np.ndarray, mu_values) -> ValuationEstimate:
    """Least-squares slope of log mu against log eps.

    Entries at or below ``UNDERFLOW_FLOOR`` are excluded; if none survive
    the net is reported as negligible via the +inf sentinel.
    """
    eps = np.asarray(eps_values, dtype=float)
    mu = np.asarray(mu_values, dtype=float)
    usable = mu > UNDERFLOW_FLOOR
    if not usable.any():
        return ValuationEstimate(math.inf, -math.inf, 0.0, 0)
    if usable.sum() < 3:
        raise InsufficientDataError(
            f"need at least 3 ladder points above the floor, got {int(usable.sum())}"
        )
    x = np.log(eps[usable])
    y = np.log(mu[usable])
    xm = x - x.mean()
    sxx = float(xm @ xm)
    slope = float(xm @ y / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    m = len(x)
    var = float(resid @ resid) / (m - 2) if m > 2 else 0.0
    stderr = math.sqrt(max(var, 0.0) / sxx)
    return ValuationEstimate(slope, intercept, stderr, m)


def _sup_abs(values: np.ndarray) -> float:
    """Largest absolute value; 0.0 for no values."""
    return float(np.max(np.abs(values), initial=0.0))


def _cone_derivative_sup(f: np.ndarray, h: float, stencil) -> float:
    """Sup over the cone nodes of ``np.gradient(f, h, edge_order=2)`` along one axis.

    ``f`` is flat and ``stencil`` is one ``ConeNodes.axes`` entry.  The
    gathers repeat ``np.gradient``'s formulas in its operation order, so
    every value is bit for bit the whole-box one.
    """
    s, inner, first, last = stencil
    centred = (f.take(inner + s) - f.take(inner - s)) / (2.0 * h)
    a, b, c = -1.5 / h, 2.0 / h, -0.5 / h
    head = a * f.take(first) + b * f.take(first + s) + c * f.take(first + 2 * s)
    a, b, c = 0.5 / h, -2.0 / h, 1.5 / h
    tail = a * f.take(last - 2 * s) + b * f.take(last - s) + c * f.take(last)
    return max(_sup_abs(centred), _sup_abs(head), _sup_abs(tail))


def _seminorm_orders(field: Field, n: int) -> list[float]:
    """[mu_0, ..., mu_n] of one field, each derivative read at the cone nodes only.

    First derivatives are whole-box ``np.gradient`` arrays, because the
    second-derivative stencils of cone nodes read their neighbours; second
    derivatives are gathered at the cone nodes alone.
    """
    if not (0 <= n <= MAX_SEMINORM_ORDER):
        raise UnsupportedOrderError(
            f"seminorm order must lie in [0, {MAX_SEMINORM_ORDER}], got {n}"
        )
    grid = field.grid
    cone = grid.cone_nodes
    spacings = (grid.dt,) + (grid.dx,) * grid.dim
    axes = range(grid.dim + 1)
    mus = [_sup_abs(field.samples.take(cone.flat))]
    if n == 0:
        return mus
    firsts = [np.gradient(field.samples, spacings[a], axis=a, edge_order=2).ravel() for a in axes]
    mus.append(max(mus[0], *(_sup_abs(d.take(cone.flat)) for d in firsts)))
    if n == 1:
        return mus
    seconds = (
        _cone_derivative_sup(firsts[i], spacings[j], cone.axes[j])
        for i in axes
        for j in axes
        if j >= i
    )
    mus.append(max(mus[1], *seconds))
    return mus


def seminorm(field: Field, n: int) -> float:
    """Sup over the cone of all FD derivatives of total order <= n.

    Centered differences inside, second-order one-sided at the grid
    boundaries; order 0 is the plain sup.
    """
    return _seminorm_orders(field, n)[n]


def _seminorm_table(net: Net, n: int) -> np.ndarray:
    """(J, n + 1) table of mu_0..mu_n for every ladder entry."""
    return np.array([_seminorm_orders(f, n) for f in net.fields])


def valuation(net: Net, n: int) -> ValuationEstimate:
    """Fitted decay exponent of mu_n along the ladder."""
    mus = [seminorm(f, n) for f in net.fields]
    return fit_decay_exponent(net.ladder.values, mus)


def _valuations(net: Net, n: int, table: np.ndarray | None = None) -> list[ValuationEstimate]:
    """``[valuation(net, k) for k in 0..n]`` bit for bit, one derivative stack per entry.

    ``table`` reuses a ``_seminorm_table(net, n)`` the caller already holds.
    """
    if table is None:
        table = _seminorm_table(net, n)
    return [fit_decay_exponent(net.ladder.values, table[:, k]) for k in range(n + 1)]


def _pseudo_seminorm(est: ValuationEstimate) -> float:
    """exp(-slope) of a fitted estimate; 0 for the negligible sentinel."""
    if est.is_negligible_sentinel:
        return 0.0
    if est.slope < -700.0:  # exp would overflow; the net is wildly non-moderate
        return math.inf
    return math.exp(-est.slope)


def ultra_pseudo_seminorm(net_u: Net, net_v: Net, n: int) -> float:
    """p_n(U - V) = exp(-nu_n(U - V)); 0 for the negligible sentinel."""
    return _pseudo_seminorm(valuation(net_u - net_v, n))


def _metric(estimates: list[ValuationEstimate]) -> float:
    """sum_n 2^(-n-1) min(p_n, 1) over the fitted nu_0, nu_1, ... in ``estimates``."""
    total = 0.0
    for n, est in enumerate(estimates):
        total += 2.0 ** (-n - 1) * min(_pseudo_seminorm(est), 1.0)
    return total


def ultra_metric(net_u: Net, net_v: Net, n_terms: int) -> float:
    """Truncated ultra-metric sum_{n<n_terms} 2^(-n-1) min(p_n, 1)."""
    if not (1 <= n_terms <= MAX_SEMINORM_ORDER + 1):
        raise UnsupportedOrderError(
            f"n_terms must lie in [1, {MAX_SEMINORM_ORDER + 1}], got {n_terms}"
        )
    return _metric(_valuations(net_u - net_v, n_terms - 1))


class NetClass(Enum):
    NEGLIGIBLE_AT_TESTED_ORDER = "negligible_at_tested_order"
    BOUNDED_TYPE = "bounded_type"
    MODERATE = "moderate"
    NOT_MODERATE = "not_moderate"


def classify(net: Net) -> NetClass:
    """Finite-ladder surrogate of negligible / bounded-type / moderate.

    The true definitions quantify over all exponents and all eps; here a
    net counts as negligible when every fitted slope at the tested orders
    is at least ``NEGLIGIBLE_SLOPE``, and analogously for the others.
    """
    return _class_of(_valuations(net, MAX_SEMINORM_ORDER))


def _class_of(estimates: list[ValuationEstimate]) -> NetClass:
    """The class ``classify`` gives a net whose fitted nu_0..nu_n are ``estimates``."""
    slopes = [est.slope for est in estimates]
    if all(s >= NEGLIGIBLE_SLOPE for s in slopes):
        return NetClass.NEGLIGIBLE_AT_TESTED_ORDER
    if all(s >= -BOUNDED_SLOPE_TOL for s in slopes):
        return NetClass.BOUNDED_TYPE
    if all(s >= -MODERATE_SLOPE_MAX for s in slopes):
        return NetClass.MODERATE
    return NetClass.NOT_MODERATE


def datum_seminorm(datum: InitialDatum, dim: int, n: int) -> float:
    """Sup over the support ball of closed-form datum derivatives <= n.

    Sampled sup: lattice over the ball plus dense radial lines, which is
    ample for the radial profiles used here.
    """
    if not (0 <= n <= MAX_SEMINORM_ORDER):
        raise UnsupportedOrderError(
            f"datum seminorm order must lie in [0, {MAX_SEMINORM_ORDER}], got {n}"
        )
    r = datum.outer_radius
    if datum.kind == "zero" or r <= 0.0:
        return 0.0
    axis = np.linspace(-r, r, 49)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    pts = pts[np.sqrt(np.sum(pts**2, axis=-1)) <= r]
    line = np.zeros((1024, dim))
    line[:, 0] = np.linspace(-r, r, 1024)
    diag = np.linspace(-r, r, 1024)[:, None] * (np.ones(dim) / math.sqrt(dim))
    pts = np.concatenate([pts, line, diag], axis=0)
    best = float(np.max(np.abs(datum.value(pts))))
    if n >= 1:
        best = max(best, float(np.max(np.abs(datum.gradient(pts)))))
    if n >= 2:
        best = max(best, float(np.max(np.abs(datum.hessian(pts)))))
    return best


def valuation_table(net: Net, orders=(0, 1, 2)) -> list[tuple[float, float, int, float, float]]:
    """Rows (eps, mu_n, n, fitted slope, stderr) for CSV export."""
    table = _seminorm_table(net, max(orders, default=0))
    rows = []
    for n in orders:
        mus = table[:, n]
        est = fit_decay_exponent(net.ladder.values, mus)
        for eps, mu in zip(net.ladder.values, mus):
            rows.append((float(eps), float(mu), int(n), est.slope, est.stderr))
    return rows
