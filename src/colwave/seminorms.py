"""Numerical sharp-topology calculus on sampled nets.

Seminorms mu_n take the sup over the light cone K0 = {|x| <= t + r} of all
finite-difference derivatives of total order <= n, centred inside and
second-order one-sided on the first and last node of an axis, as
``np.gradient(..., edge_order=2)`` gives them.  Only the nodes of the
inflated cone are evaluated.  Each first derivative is one flat strided
difference into a buffer shared by every entry of a net, patched
one-sided only at the face nodes of a grown cone (the cone two time steps
later plus one cell, ``ConeNodes.faces``), which hold every face node the
cone reads.  It is read at the cone nodes, and its second derivatives
gather ``np.gradient``'s stencils at those nodes alone, each centred one
taking its sup before dividing by ``2h``.  Every value is bit-identical to
differencing the whole box, and a NaN derivative at any cone node makes
the seminorm NaN, as ``np.max`` over the whole box would.

A seminorm table reads its fields one at a time, so the measures of a
difference U - V (``ultra_metric`` here, the net checks in ``suite``) form
each entry's difference as it is read and drop it before the next: their
memory holds one difference field and the derivative buffer, whatever the
ladder length.

Decay exponents nu_n are least-squares slopes of log mu_n against log eps
over the ladder; the ultra-pseudo-seminorms are p_n = exp(-nu_n) and the
truncated ultra-metric is d(U, V) = sum_n 2^(-n-1) min(p_n(U - V), 1).

All classifications here are finite-ladder surrogates of the asymptotic
definitions: a fitted slope can only witness behaviour down to the
smallest sampled eps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import InsufficientDataError, UnsupportedOrderError, ValidationError, check_count
from .nets import EpsilonLadder

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


def _face_nodes(mask: np.ndarray, axis: int, k: int) -> np.ndarray:
    """Flat indices, in C order, of the ``mask`` nodes whose index along ``axis`` is ``k``."""
    stride = math.prod(mask.shape[axis + 1 :])
    q = np.flatnonzero(np.take(mask, k, axis=axis))  # C order over the other axes
    return q + (q // stride * (mask.shape[axis] - 1) + k) * stride


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform tensor grid on [0, T] x [-R, R]^dim covering the cone K0.

    ``dx`` and ``dt`` are snapped so that the extents divide evenly; the
    snapped values are what all stencils use.  ``dt <= dx`` is required so
    that the residual stencils sample adequately.  ``dt`` defaults to half
    the requested ``dx``.
    """

    dim: int
    horizon: float
    support_radius: float
    spatial_extent: float
    dx: float
    dt: float | None = None
    margin_cells: int = 2

    def __post_init__(self):
        if self.dt is None:
            object.__setattr__(self, "dt", self.dx / 2.0)
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
            dt=dt,
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

    def within_radius(self, bounds: np.ndarray) -> np.ndarray:
        """Boolean (n_time+1, *spatial) mask of the nodes with |x| <= ``bounds[n]`` at level n."""
        return self.node_radius[None] <= bounds[(slice(None),) + (None,) * self.dim]

    def cone_mask(self) -> np.ndarray:
        """Boolean (n_time+1, *spatial) mask of the inflated cone."""
        return self.within_radius(self.times + self.support_radius + CONE_INFLATION_CELLS * self.dx + 1e-12)

    @cached_property
    def cone_nodes(self) -> "ConeNodes":
        """Flat indices of ``cone_mask()``, their stencil subsets and the grown cone's face nodes."""
        mask = self.cone_mask()
        flat = np.flatnonzero(mask)
        reach = np.minimum(self.times + 2.0 * self.dt, self.horizon) + self.support_radius
        grown = self.within_radius(reach + (CONE_INFLATION_CELLS + 1) * self.dx + 1e-12)
        off, axes, faces = None, [], []  # off: the cone nodes off every spatial face
        for a, n in enumerate(mask.shape):
            stride = math.prod(mask.shape[a + 1 :])
            if a == 0:  # time leads the C order: its faces are a prefix and a suffix
                lo, hi = np.count_nonzero(mask[0]), len(flat) - np.count_nonzero(mask[-1])
                first, inner, last = flat[:lo], flat[lo:hi], flat[hi:]
            else:
                first, last = _face_nodes(mask, a, 0), _face_nodes(mask, a, n - 1)
                inner = flat  # covering grids keep the cone off every spatial face
                if len(first) or len(last):
                    c = flat // stride % n
                    inside = (c > 0) & (c < n - 1)
                    inner = flat[inside]
                    off = inside if off is None else off & inside
            axes.append((stride, inner, first, last))
            faces.append((_face_nodes(grown, a, 0), _face_nodes(grown, a, n - 1)))
        off_faces = flat if off is None else flat[off]
        stencils = (*(x for ax in axes for x in ax[1:]), *(x for fc in faces for x in fc))
        for arr in (flat, off_faces, *stencils):
            arr.flags.writeable = False
        return ConeNodes(flat, off_faces, tuple(axes), tuple(faces))

    def meshes(self) -> tuple[np.ndarray, ...]:
        """Full space-time meshgrid (T, X[, Y[, Z]]) in grid shape."""
        return tuple(np.meshgrid(self.times, *([self.axis] * self.dim), indexing="ij"))


@dataclass(frozen=True, eq=False)
class ConeNodes:
    """Flat indices of the inflated-cone nodes, split per axis for the FD stencils.

    Built once per grid from ``cone_mask()`` by ``SpaceTimeGrid.cone_nodes``,
    the one source of the cone for the seminorms, the Picard increment and
    the residual.  ``flat`` holds every cone node in C order, and
    ``off_faces`` those off every spatial face (``flat`` itself on a
    covering grid).  ``axes[a]`` is ``(stride, interior, first, last)``:
    the flat stride of axis ``a`` and the cone nodes strictly inside that
    axis, on its first node and on its last node.  ``faces[a]`` is
    ``(first, last)``: the nodes of the axis's first and last face in the
    grown cone, the cone at time ``min(t + 2 dt, T)`` plus one more cell.
    A first derivative is read at most two time steps and one space step
    from a cone node, so these hold every face node it is read at.
    """

    flat: np.ndarray
    off_faces: np.ndarray
    axes: tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]
    faces: tuple[tuple[np.ndarray, np.ndarray], ...]


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

    def _check(self, other: "Field"):
        if not isinstance(other, Field) or other.grid != self.grid:
            raise ValidationError("grid", "fields must share one grid")


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
        return Net(self.ladder, tuple(_differences(self, other)))

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
    the net is reported as negligible via the +inf sentinel.  ``eps`` must
    be positive and finite, ``mu`` nonnegative and finite, and both of one
    length.
    """
    eps = np.asarray(eps_values, dtype=float)
    mu = np.asarray(mu_values, dtype=float)
    if eps.shape != mu.shape:
        raise ValidationError("mu", f"{mu.shape} values for eps of shape {eps.shape}")
    if not np.all((eps > 0.0) & np.isfinite(eps)):
        raise ValidationError("eps", "every eps must be positive and finite")
    if not np.all((mu >= 0.0) & np.isfinite(mu)):
        raise ValidationError("mu", "every mu must be nonnegative and finite")
    usable = mu > UNDERFLOW_FLOOR
    if not usable.any():
        return ValuationEstimate(math.inf, -math.inf, 0.0, 0)
    if usable.sum() < 3:
        raise InsufficientDataError(
            f"need at least 3 ladder points above the floor, got {int(usable.sum())}"
        )
    x = np.log(eps[usable])
    if x.min() == x.max():  # no spread in log eps: the slope is undefined
        raise InsufficientDataError("need at least 2 distinct eps among the points above the floor")
    y = np.log(mu[usable])
    xm = x - x.mean()
    sxx = float(xm @ xm)
    slope = float(xm @ y / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    m = len(x)
    var = float(resid @ resid) / (m - 2)
    stderr = math.sqrt(max(var, 0.0) / sxx)
    return ValuationEstimate(slope, intercept, stderr, m)


def _sup_abs(values: np.ndarray) -> float:
    """Largest absolute value, NaN if any value is NaN; 0.0 for no values."""
    return float(np.max(np.abs(values), initial=0.0))


def _one_sided(f: np.ndarray, h: float, s: int, first: np.ndarray, last: np.ndarray):
    """``np.gradient``'s one-sided differences of flat ``f`` on the first and last face nodes.

    ``s`` is the flat stride of the axis; the operation order is ``np.gradient``'s.
    """
    a, b, c = -1.5 / h, 2.0 / h, -0.5 / h
    head = a * f.take(first) + b * f[s:].take(first) + c * f[2 * s :].take(first)
    lo = last - 2 * s
    a, b, c = 0.5 / h, -2.0 / h, 1.5 / h
    tail = a * f.take(lo) + b * f[s:].take(lo) + c * f[2 * s :].take(lo)
    return head, tail


def _cone_derivative_sup(f: np.ndarray, h: float, stencil) -> float:
    """Sup over the cone nodes of ``np.gradient(f, h, edge_order=2)`` along one axis.

    ``f`` is flat and ``stencil`` is one ``ConeNodes.axes`` entry.  The
    centred differences are divided by ``2h`` after their sup is taken:
    correctly rounded division by a positive constant is monotone and
    keeps the sign, so the sup is bit for bit that of the divided values.
    """
    s, inner, first, last = stencil
    lo = inner - s
    sups = [_sup_abs(f[2 * s :].take(lo) - f.take(lo)) / (2.0 * h)]
    if len(first) or len(last):
        sups += map(_sup_abs, _one_sided(f, h, s, first, last))
    return _sup_abs(sups)


def _gradient_into(f: np.ndarray, h: float, axis: int, out: np.ndarray, faces) -> np.ndarray:
    """``np.gradient(f, h, axis=axis, edge_order=2)`` written into ``out``, flat, where it is read.

    ``out`` is a float buffer of ``f.size`` elements; the axis needs at
    least 3 nodes.  The centred difference runs once over the flattened
    array: with ``s`` the flat stride of the axis, the nodes ``k - s`` and
    ``k + s`` are the axis neighbours of every node ``k`` strictly inside
    the axis.  ``faces`` is ``(first, last)``, flat nodes of the axis's
    first and last face (one ``ConeNodes.faces`` entry); those alone are
    then overwritten with the one-sided formulas.  Every value written
    there and strictly inside the axis is bit for bit ``np.gradient``'s;
    the other face nodes hold no derivative.
    """
    f = np.ascontiguousarray(f)  # reshape(-1) of a strided view would copy
    flat = f.reshape(-1)
    s = math.prod(f.shape[axis + 1 :])
    inner = out[s:-s]
    np.subtract(flat[2 * s :], flat[: -2 * s], out=inner)
    np.divide(inner, 2.0 * h, out=inner)
    first, last = faces
    out[first], out[last] = _one_sided(flat, h, s, first, last)
    return out


def _check_order(n, name: str = "seminorm order", low: int = 0, high=MAX_SEMINORM_ORDER):
    """Reject ``n`` unless it is an integer (not a bool) in [low, high]."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or not (low <= n <= high):
        raise UnsupportedOrderError(f"{name} must be an integer in [{low}, {high}], got {n!r}")


def _seminorm_orders(field: Field, n: int, buf: np.ndarray | None = None) -> list[float]:
    """[mu_0, ..., mu_n] of one field, each derivative read at the cone nodes only.

    Each first derivative spans the whole box, because the
    second-derivative stencils of cone nodes read their neighbours.  They
    are taken one axis at a time into ``buf``, a float buffer of the box's
    size (allocated here when not given).  Each is read at the cone nodes,
    and its second derivatives are gathered there, before the next axis
    overwrites it.
    """
    _check_order(n)
    grid = field.grid
    cone = grid.cone_nodes
    samples = np.ascontiguousarray(field.samples)
    spacings = (grid.dt,) + (grid.dx,) * grid.dim
    axes = range(grid.dim + 1)
    mus = [_sup_abs(samples.take(cone.flat))]
    if n == 0:
        return mus
    if buf is None:
        buf = np.empty(samples.size)
    firsts, seconds = [], []
    for i in axes:
        d = _gradient_into(samples, spacings[i], i, buf, cone.faces[i])
        firsts.append(_sup_abs(d.take(cone.flat)))
        if n == 2:
            seconds += [_cone_derivative_sup(d, spacings[j], cone.axes[j]) for j in axes[i:]]
    mus.append(_sup_abs([mus[0], *firsts]))
    if n == 1:
        return mus
    mus.append(_sup_abs([mus[1], *seconds]))
    return mus


def seminorm(field: Field, n: int) -> float:
    """Sup over the cone of all FD derivatives of total order <= n.

    Centered differences inside, second-order one-sided at the grid
    boundaries; order 0 is the plain sup.
    """
    return _seminorm_orders(field, n)[n]


def _seminorm_table(fields, n: int) -> np.ndarray:
    """(J, n + 1) table of mu_0..mu_n, one row per field of the iterable ``fields``.

    The fields share one grid and take their first derivatives in one
    buffer.  Each is read and released before the next is drawn, so a
    generator that forms every field as it is asked for (a difference of
    two nets' entries, say) never holds two of them.
    """
    rows, buf = [], None
    for f in fields:
        if buf is None:
            buf = np.empty(f.samples.size)
        rows.append(_seminorm_orders(f, n, buf))
        del f  # release this entry before the iterable forms the next
    return np.array(rows)


def _differences(net_u: Net, net_v: Net):
    """The fields of ``net_u - net_v``, each formed only when it is drawn.

    The nets' ladder and grid are checked here, before any entry is formed.
    """
    net_u._check(net_v)
    return (a - b for a, b in zip(net_u.fields, net_v.fields))


def valuation(net: Net, n: int) -> ValuationEstimate:
    """Fitted decay exponent of mu_n along the ladder."""
    return fit_decay_exponent(net.ladder.values, _seminorm_table(net.fields, n)[:, n])


def _valuations(ladder: EpsilonLadder, table: np.ndarray) -> list[ValuationEstimate]:
    """The fitted nu_0..nu_n of a ``_seminorm_table`` over the entries of ``ladder``.

    ``[valuation(net, k) for k in 0..n]`` bit for bit, for the table of ``net``.
    """
    return [fit_decay_exponent(ladder.values, table[:, k]) for k in range(table.shape[1])]


def _pseudo_seminorm(est: ValuationEstimate) -> float:
    """exp(-slope) of a fitted estimate; 0 for the negligible sentinel."""
    if est.is_negligible_sentinel:
        return 0.0
    if est.slope < -700.0:  # exp would overflow; the net is wildly non-moderate
        return math.inf
    return math.exp(-est.slope)


def _metric(estimates: list[ValuationEstimate]) -> float:
    """sum_n 2^(-n-1) min(p_n, 1) over the fitted nu_0, nu_1, ... in ``estimates``."""
    total = 0.0
    for n, est in enumerate(estimates):
        total += 2.0 ** (-n - 1) * min(_pseudo_seminorm(est), 1.0)
    return total


def ultra_metric(net_u: Net, net_v: Net, n_terms: int) -> float:
    """Truncated ultra-metric sum_{n<n_terms} 2^(-n-1) min(p_n, 1).

    The difference U - V is formed one ladder entry at a time, so no
    difference net is ever held whole.
    """
    _check_order(n_terms, "n_terms", 1, MAX_SEMINORM_ORDER + 1)
    table = _seminorm_table(_differences(net_u, net_v), n_terms - 1)
    return _metric(_valuations(net_u.ladder, table))


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
    return _class_of(_valuations(net.ladder, _seminorm_table(net.fields, MAX_SEMINORM_ORDER)))


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


def valuation_table(net: Net) -> list[tuple[float, float, int, float, float]]:
    """Rows (eps, mu_n, n, fitted slope, stderr), n = 0..MAX_SEMINORM_ORDER, for CSV export."""
    table = _seminorm_table(net.fields, MAX_SEMINORM_ORDER)
    return [
        (float(eps), float(mu), n, est.slope, est.stderr)
        for n, est in enumerate(_valuations(net.ladder, table))
        for eps, mu in zip(net.ladder.values, table[:, n])
    ]
