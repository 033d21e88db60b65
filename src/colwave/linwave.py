"""Classical solution operator of the linear wave equation in d = 1, 2, 3.

The data part uses the translated forms of the d'Alembert, Poisson and
Kirchhoff formulas; the time derivative of the position-data term is
expanded under the integral using closed-form datum gradients, so no
numerical time differentiation of means is ever performed.  The singular
2D disk weight 1/sqrt(1-|y|^2) is removed by the substitution rho =
sin(phi), after which both angular directions carry smooth integrands
(Gauss-Legendre in phi, uniform trapezoid in theta; Gauss-Legendre in
cos(theta) times uniform azimuth on the 3D sphere).

The data terms are evaluated only at targets with |x| < |t| + R, R the
largest outer radius of the nonzero data, and are exactly 0.0 elsewhere:
every rule point lies within |t| of its target (x - t*d with |d| <= 1,
line offsets in [-t, t]), and both bump kinds vanish, value and gradient,
on a band just inside outer_radius (``nets._FLAT_CLIP``), far wider than
the rounding in |x - t*d|.  Each datum's radial profile is evaluated
once per rule point, giving the value and the gradient together.
``solve_linear`` evaluates them only on the nodes of the nonnegative
orthant and fills every other node by reflection.  That is exact: the
data are radial, every rule maps onto itself under each coordinate
reflection (``angular_points`` is even, the Gauss-Legendre nodes are
symmetric), and the grid axis is exactly antisymmetric, so the result is
mirror-symmetric bit for bit and the t = 0 level is u0 at the nodes.
Axis swaps are not symmetries of the rules and are not used.

The Duhamel source integral is a composite trapezoid over grid time
levels refined by ``time_points_per_dt``; the sampled source is read off
the grid by multilinear interpolation (linear in time between levels).
At a fixed time lag the inner integral is the same node stencil around
every target, so ``solve_linear`` builds one stencil per lag at the origin
and applies them all through one zero-padded spatial FFT, while
``duhamel`` builds the stencils at its own point.  The stencil spectra
depend only on ``(grid, quad)`` and are built once for them and cached
read-only, so every Picard sweep of a solve and every thread of
``solve_net`` reuses one build.  The lag sum is a causal convolution in
time: from ``TIME_FFT_LEVELS`` time levels on (the measured crossover) it
runs as one zero-padded FFT along time, below that level by level.  The two
agree to rounding, and each is deterministic.  Past the box the
source is zero at the nodes: the interpolant falls to zero over the cell
beyond the last node.  Picard sources vanish within ``margin_cells >= 2``
of the box edge, so only sources nonzero on boundary nodes see this.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_count
from .nets import InitialDatum
from .seminorms import Field, SpaceTimeGrid, datum_seminorm, seminorm

#: Upper bound on quadrature points evaluated in one numpy batch.
_CHUNK = 1 << 21

#: Time-level count ``n_time`` from which ``_source_levels`` sums the lags
#: by one FFT along time instead of level by level.  The level loop costs
#: about ``n_time / 2`` products per lag and only reads every
#: ``time_points_per_dt``-th convolution entry, the FFT about ``log(lags)``,
#: so the crossover is counted in levels, not lags.  Measured per apply on a
#: 2-vCPU host: with one step per dt the FFT wins from about 30 levels in 2D
#: (25^2 nodes) and 40 in 3D (19^3 nodes, 62.6 -> 60.9 ms); with 2-4 steps
#: per dt the loop still wins at 20 levels (2D 47^2 nodes, 4 steps: 11.6
#: against 20.9 ms) and loses at 60 (2D 51^2, 2 steps: 44.6 against 37.8).
TIME_FFT_LEVELS = 40
_SPECTRA_LOCK = threading.Lock()

_BINARY_MAGIC = b"CWF1"
#: Dump header after the magic: version, dim, margin_cells, time levels,
#: nodes per axis, horizon, support_radius, spatial_extent, dx, dt.
_BINARY_HEADER = struct.Struct("<5I5d")


@dataclass(frozen=True)
class QuadratureSpec:
    """Point counts for the dimension-specific kernels.

    ``angular_points``: theta count (2D) / azimuth count (3D).
    ``polar_points``: Gauss-Legendre count in the phi-substitution (2D),
    in cos(theta) (3D), and per panel for 1D line integrals.
    ``time_points_per_dt``: refinement of the Duhamel time trapezoid.
    """

    angular_points: int = 16
    polar_points: int = 12
    time_points_per_dt: int = 1

    def __post_init__(self):
        check_count("angular_points", self.angular_points, 4)
        check_count("polar_points", self.polar_points, 4)
        check_count("time_points_per_dt", self.time_points_per_dt, 1)
        if self.angular_points % 2 != 0:
            raise ValidationError("angular_points", "must be even")


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------

def _gauss_panels(a: float, b: float, nodes: int, panels: int):
    """Composite Gauss-Legendre nodes/weights on [a, b]."""
    x0, w0 = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a, b, panels + 1)
    half = (edges[1] - edges[0]) / 2.0
    mids = (edges[:-1] + edges[1:]) / 2.0
    xs = (mids[:, None] + half * x0[None, :]).ravel()
    ws = np.tile(w0 * half, panels)
    return xs, ws


def _mean_rule(dim: int, quad: QuadratureSpec):
    """Directions and weights for the normalized sphere/disk means.

    Returns (scaled_dirs, weights) with sum(weights) == 1 such that the
    mean of g over the radius-t surface/disk is
    ``sum_q weights[q] * g(x - t * scaled_dirs[q])``.
    """
    theta = np.arange(quad.angular_points) * (2.0 * math.pi / quad.angular_points)
    if dim == 3:
        c, wc = np.polynomial.legendre.leggauss(quad.polar_points)
        s = np.sqrt(1.0 - c**2)
        dirs = np.stack(
            [
                np.outer(s, np.cos(theta)).ravel(),
                np.outer(s, np.sin(theta)).ravel(),
                np.repeat(c, quad.angular_points),
            ],
            axis=-1,
        )
        weights = np.repeat(wc / 2.0, quad.angular_points) / quad.angular_points
        return dirs, weights
    if dim == 2:
        phi, wp = _gauss_panels(0.0, math.pi / 2.0, quad.polar_points, 1)
        sp = np.sin(phi)
        dirs = np.stack(
            [
                np.outer(sp, np.cos(theta)).ravel(),
                np.outer(sp, np.sin(theta)).ravel(),
            ],
            axis=-1,
        )
        weights = np.repeat(wp * sp, quad.angular_points) / quad.angular_points
        return dirs, weights
    raise ValidationError("dim", f"mean rule defined for dim 2 or 3, got {dim}")


def _feature_scale(datum: InitialDatum) -> float:
    """Finest length scale of the datum profile, for 1D panel sizing."""
    if datum.kind == "plateau_bump":
        return datum.outer_radius - datum.inner_radius
    if datum.kind == "gaussian_bump":
        return datum.outer_radius / 2.0
    return math.inf


def _line_rule(t: float, datum: InitialDatum, quad: QuadratureSpec):
    """Composite Gauss-Legendre rule on [-t, t] resolving the datum profile.

    For t < 0 the weights are negative (the velocity term is odd in t) and
    the panels are those of |t|.
    """
    width = _feature_scale(datum) / 2.0
    panels = 1 if not math.isfinite(width) else min(512, max(1, math.ceil(2.0 * abs(t) / width)))
    return _gauss_panels(-t, t, quad.polar_points, panels)


# ---------------------------------------------------------------------------
# data terms
# ---------------------------------------------------------------------------

def _data_terms_at(
    u0: InitialDatum,
    u1: InitialDatum,
    dim: int,
    t: float,
    pts: np.ndarray,
    quad: QuadratureSpec,
) -> np.ndarray:
    """Homogeneous part of the solution at time t for targets pts (M, dim).

    Every rule point lies within |t| of its target, so only targets with
    |x| < |t| + R, R the largest outer radius of the nonzero data, are
    evaluated; all others are exactly 0.0.
    """
    out = np.zeros(pts.shape[0])
    radii = [d.outer_radius for d in (u0, u1) if d.kind != "zero"]
    if not radii:
        return out
    live = np.flatnonzero(np.sqrt(np.sum(pts * pts, axis=-1)) < abs(t) + max(radii))
    pts = pts[live]
    m = len(live)
    if t == 0.0:
        if u0.kind != "zero":
            out[live] = u0.value(pts)
        return out
    if dim == 1:
        if u0.kind != "zero":
            out[live] = 0.5 * (u0.value(pts + t) + u0.value(pts - t))
        if u1.kind != "zero":
            offs, w = _line_rule(t, u1, quad)
            chunk = max(1, _CHUNK // len(offs))
            for lo in range(0, m, chunk):
                sub = pts[lo : lo + chunk]
                vals = u1.value(sub[:, None, :] + offs[None, :, None])
                out[live[lo : lo + chunk]] += 0.5 * (vals @ w)
        return out
    sd, wq = _mean_rule(dim, quad)
    chunk = max(1, _CHUNK // len(wq))
    for lo in range(0, m, chunk):
        sub = pts[lo : lo + chunk]
        q = sub[:, None, :] - t * sd[None, :, :]
        rho = np.sqrt(np.sum(q * q, axis=-1))
        acc = np.zeros(len(sub))
        if u0.kind != "zero":
            # value and gradient from one profile pass, as in InitialDatum
            v0, f1, _ = u0._radial(rho)
            g0 = (f1 / np.where(rho > 0.0, rho, 1.0))[..., None] * q
            acc += (v0 - t * np.einsum("mqd,qd->mq", g0, sd)) @ wq
        if u1.kind != "zero":
            acc += t * (u1._radial(rho)[0] @ wq)
        out[live[lo : lo + chunk]] = acc
    return out


# ---------------------------------------------------------------------------
# Duhamel source integral
# ---------------------------------------------------------------------------

def _hat_antiderivative(u: np.ndarray) -> np.ndarray:
    """Integral of the unit hat max(0, 1 - |v|) over v <= u."""
    u = np.clip(u, -1.0, 1.0)
    return np.where(u < 0.0, 0.5 * (1.0 + u) ** 2, 1.0 - 0.5 * (1.0 - u) ** 2)


def _lag_weights(
    grid: SpaceTimeGrid, quad: QuadratureSpec, x: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """Node weights of the inner Duhamel integral at target x for radii s.

    Returns shape ``(len(s),) + grid.spatial_shape``; the inner integral of
    a source slice at radius ``s[k]`` is ``sum(weights[k] * slice)``.  In 1D
    it is half the exact integral of the piecewise-linear interpolant over
    [x - s, x + s]; in 2D/3D it is s times the sphere/disk mean of the
    multilinear interpolant, each rule point's weight scattered to its 2^d
    cell corners.  Every node carries its full hat, so past the last node
    the interpolant falls to zero over one cell.
    """
    n, d = len(grid.axis), grid.dim
    if d == 1:
        hi = (x[0] + s[:, None] - grid.axis) / grid.dx
        lo = (x[0] - s[:, None] - grid.axis) / grid.dx
        return 0.5 * grid.dx * (_hat_antiderivative(hi) - _hat_antiderivative(lo))
    dirs, wq = _mean_rule(d, quad)
    f = (x - s[:, None, None] * dirs + grid.spatial_extent) / grid.dx  # (K, Q, d)
    base = np.floor(f)
    frac = (f - base)[:, :, None, :]
    corners = np.array(list(itertools.product((0, 1), repeat=d)))  # (C, d)
    idx = base.astype(np.int64)[:, :, None, :] + corners
    w = np.prod(np.where(corners == 1, frac, 1.0 - frac), axis=-1) * (s[:, None] * wq)[:, :, None]
    inside = np.all((idx >= 0) & (idx < n), axis=-1)
    size = n**d
    flat = idx @ (n ** np.arange(d - 1, -1, -1)) + size * np.arange(len(s))[:, None, None]
    out = np.bincount(flat[inside], weights=w[inside], minlength=len(s) * size)
    return out.reshape((len(s),) + grid.spatial_shape)


@functools.lru_cache(maxsize=1)
def _cached_spectra(grid: SpaceTimeGrid, quad: QuadratureSpec):
    tp = quad.time_points_per_dt
    d, n = grid.dim, len(grid.axis)
    half = n // 2
    lags = grid.n_time * tp
    axes = tuple(range(1, d + 1))
    # a stencil reaches half nodes either way: that much padding keeps the
    # circular correlation from wrapping
    stencils = _lag_weights(grid, quad, np.zeros(d), (grid.dt / tp) * np.arange(1, lags + 1))
    stencils = np.roll(np.pad(stencils, [(0, 0)] + [(0, half)] * d), -half, axis=axes)
    s_hat = np.conj(np.fft.rfftn(stencils, axes=axes))
    s_hat.flags.writeable = False
    if grid.n_time < TIME_FFT_LEVELS:
        return s_hat, None
    # zero padding to 2 * lags >= 2 * lags - 1 keeps the time convolution linear
    s_time = np.fft.fft(s_hat, n=2 * lags, axis=0)
    s_time.flags.writeable = False
    return s_hat, s_time


def _stencil_spectra(grid: SpaceTimeGrid, quad: QuadratureSpec):
    """Conjugated spatial spectra of the lag stencils S_1..S_lags, read-only.

    Also their spectrum along time, zero-padded, when the level count
    reaches ``TIME_FFT_LEVELS`` (else None).  Built once per
    ``(grid, quad)``: the cache holds one grid's spectra, and the lock makes
    concurrent solves on one grid share a single build.
    """
    with _SPECTRA_LOCK:
        return _cached_spectra(grid, quad)


def _source_levels(h: Field, quad: QuadratureSpec) -> np.ndarray:
    """Duhamel term of ``h`` at grid levels 1..n_time.

    With ``p = time_points_per_dt`` and ``ds = dt / p``, the source H[j] at
    sub-level j is linear in time between grid levels, and level n is the
    trapezoid ``ds * sum_{k=1..np} S_k * H[np-k] - ds/2 * S_np * H[0]``.
    The lag-k stencil S_k holds the origin-node weights of radius k*ds;
    every node sees the same stencil, so each sum is a spatial correlation,
    applied through one zero-padded FFT.  The lag sum is a causal
    convolution in time: level by level below ``TIME_FFT_LEVELS`` levels,
    else all levels at once through one zero-padded FFT along time.
    """
    grid = h.grid
    tp = quad.time_points_per_dt
    d, n = grid.dim, len(grid.axis)
    half = n // 2
    lags = grid.n_time * tp
    ds = grid.dt / tp
    j = np.arange(lags)
    beta = ((j % tp) / tp)[(slice(None),) + (None,) * d]
    src = (1.0 - beta) * h.samples[j // tp] + beta * h.samples[j // tp + 1]
    axes = tuple(range(1, d + 1))
    shape = (n + half,) * d
    s_hat, s_time = _stencil_spectra(grid, quad)
    h_hat = np.fft.rfftn(src, s=shape, axes=axes)
    if s_time is None:
        acc = np.empty((grid.n_time,) + s_hat.shape[1:], dtype=complex)
        for level in range(1, grid.n_time + 1):
            p = level * tp
            acc[level - 1] = np.einsum("k...,k...->...", s_hat[:p], h_hat[p - 1 :: -1])
            acc[level - 1] -= 0.5 * s_hat[p - 1] * h_hat[0]
    else:
        # entry p - 1 of the convolution is sum_{k=1..p} S_k * H[p-k]
        conv = np.fft.ifft(s_time * np.fft.fft(h_hat, n=len(s_time), axis=0), axis=0)
        acc = conv[tp - 1 : lags : tp] - 0.5 * s_hat[tp - 1 :: tp] * h_hat[0]
    out = np.fft.irfftn(acc, s=shape, axes=axes)
    return ds * out[(slice(None),) + (slice(0, n),) * d]


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def solve_linear(
    u0: InitialDatum,
    u1: InitialDatum,
    h: Field | None,
    grid: SpaceTimeGrid,
    quad: QuadratureSpec,
) -> Field:
    """Sample the solution of the linear wave problem on the grid.

    ``h`` is the sampled right-hand side (or None for the homogeneous
    problem).  The returned field reproduces the ``u0`` samples exactly
    at t = 0.
    """
    if h is not None and h.grid != grid:
        raise ValidationError("h", "source must be sampled on the target grid")
    out = np.zeros(grid.shape)
    if u0.kind != "zero" or u1.kind != "zero":
        # radial data, a reflection-invariant rule and an antisymmetric axis:
        # evaluate the nonnegative orthant and mirror it onto every other one
        half = len(grid.axis) // 2
        orthant = np.meshgrid(*([grid.axis[half:]] * grid.dim), indexing="ij")
        pts = np.stack([m.ravel() for m in orthant], axis=-1)
        mirror = np.ix_(*[np.abs(np.arange(len(grid.axis)) - half)] * grid.dim)
        for n in range(grid.n_time + 1):
            vals = _data_terms_at(u0, u1, grid.dim, float(grid.times[n]), pts, quad)
            out[n] = vals.reshape(orthant[0].shape)[mirror]
    if h is not None:
        out[1:] += _source_levels(h, quad)
    return Field(grid, out)


def duhamel(h: Field, x, t: float, quad: QuadratureSpec) -> float:
    """Source term of the solution at a single point (t, x)."""
    grid = h.grid
    if not (-1e-12 <= t <= grid.horizon + 1e-12):
        raise ValidationError("t", f"time {t} outside [0, {grid.horizon}]")
    pts = np.atleast_1d(np.asarray(x, dtype=float)).reshape(1, -1)
    if pts.shape[1] != grid.dim:
        raise ValidationError("x", f"point must have dimension {grid.dim}")
    if t <= 0.0:
        return 0.0
    # trapezoid over k_count lags of length ds <= dt / time_points_per_dt
    k_count = max(1, math.ceil(t / (grid.dt / quad.time_points_per_dt) - 1e-9))
    ds = t / k_count
    s = ds * np.arange(1, k_count + 1)
    # source slice at t - s, linear in time between grid levels
    g = (t - s) / grid.dt
    m = np.minimum(np.floor(g + 1e-9).astype(np.int64), grid.n_time)
    beta = np.where((g - m < 1e-9) | (m >= grid.n_time), 0.0, g - m)
    beta = beta[(slice(None),) + (None,) * grid.dim]
    slices = (1.0 - beta) * h.samples[m] + beta * h.samples[np.minimum(m + 1, grid.n_time)]
    trap = np.full(k_count, ds)
    trap[-1] *= 0.5
    inner = np.sum(_lag_weights(grid, quad, pts[0], s) * slices, axis=tuple(range(1, grid.dim + 1)))
    return float(trap @ inner)


def linear_value(
    u0: InitialDatum,
    u1: InitialDatum,
    t: float,
    x,
    quad: QuadratureSpec,
    h: Field | None = None,
    dim: int | None = None,
) -> float:
    """Solution of the linear problem at one space-time point.

    Grid-free for the data part; ``h`` (when given) supplies its own grid
    for the source part.
    """
    pts = np.atleast_1d(np.asarray(x, dtype=float)).reshape(1, -1)
    d = dim if dim is not None else pts.shape[1]
    if d not in (1, 2, 3):
        raise ValidationError("dim", f"space dimension must be 1, 2 or 3, got {d}")
    if pts.shape[1] != d:
        raise ValidationError("x", f"point must have dimension {d}")
    val = float(_data_terms_at(u0, u1, d, float(t), pts, quad)[0])
    if h is not None:
        val += duhamel(h, x, t, quad)
    return val


@dataclass(frozen=True)
class SupportReport:
    max_outside: float
    ok: bool
    tol: float


def check_support(field: Field, r: float, tol: float = 1e-10) -> SupportReport:
    """Max |field| over nodes with |x| > t + r + 2 dx."""
    if not math.isfinite(r):
        raise ValidationError("r", f"must be finite, got {r}")
    grid = field.grid
    bound = grid.times + r + 2.0 * grid.dx
    expand = (slice(None),) + (None,) * grid.dim
    mask = grid.node_radius[None] > bound[expand]
    max_outside = float(np.max(np.abs(field.samples[mask]))) if mask.any() else 0.0
    return SupportReport(max_outside=max_outside, ok=max_outside <= tol, tol=tol)


@dataclass(frozen=True)
class ProbeEntry:
    order: int
    mu_solution: float
    bound_sum: float
    ratio: float | None


@dataclass(eq=False)
class OperatorNormReport:
    entries: list[ProbeEntry]
    field: Field


def operator_norm_probe(
    u0: InitialDatum,
    u1: InitialDatum,
    h: Field | None,
    grid: SpaceTimeGrid,
    quad: QuadratureSpec,
) -> OperatorNormReport:
    """Empirical boundedness probe: mu_n(L) against the data-side bound.

    Compares mu_n of the solution with mu0_{n+1}(u0) + mu0_n(u1) + mu_n(h)
    for n <= 1; a ratio of None means the bound side vanishes (zero data).
    """
    fld = solve_linear(u0, u1, h, grid, quad)
    entries = []
    for n in (0, 1):
        mu = seminorm(fld, n)
        den = datum_seminorm(u0, grid.dim, n + 1) + datum_seminorm(u1, grid.dim, n)
        if h is not None:
            den += seminorm(h, n)
        entries.append(ProbeEntry(n, mu, den, (mu / den) if den > 0.0 else None))
    return OperatorNormReport(entries=entries, field=fld)


# ---------------------------------------------------------------------------
# field export
# ---------------------------------------------------------------------------

def field_to_csv(field: Field, path) -> None:
    """Rows (t, x[, y[, z]], value) in C order, 17 significant digits."""
    grid = field.grid
    names = ["t", "x", "y", "z"][: grid.dim + 1]
    # every coordinate is a grid time or an axis value: format those once
    times = np.array([f"{v:.17g}," for v in grid.times], dtype=object)
    axis = np.array([f"{v:.17g}," for v in grid.axis], dtype=object)
    idx = np.indices(grid.shape).reshape(grid.dim + 1, -1)
    prefix = times[idx[0]]
    for k in range(1, grid.dim + 1):
        prefix = prefix + axis[idx[k]]
    with open(path, "w") as fh:
        fh.write(",".join(names + ["value"]) + "\n")
        fh.writelines(f"{p}{v:.17g}\n" for p, v in zip(prefix, field.samples.ravel().tolist()))


def field_to_binary(field: Field, path) -> None:
    """Compact dump: header then row-major float64 samples.

    Header layout (little-endian): magic ``CWF1``, uint32 version=1,
    uint32 dim, uint32 margin_cells, uint32 time levels, uint32 nodes per
    axis, float64 horizon, support_radius, spatial_extent, dx, dt.
    """
    grid = field.grid
    header = _BINARY_MAGIC + _BINARY_HEADER.pack(
        1,
        grid.dim,
        grid.margin_cells,
        grid.n_time + 1,
        len(grid.axis),
        grid.horizon,
        grid.support_radius,
        grid.spatial_extent,
        grid.dx,
        grid.dt,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        field.samples.astype("<f8").tofile(fh)


def field_from_binary(path) -> Field:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _BINARY_MAGIC:
            raise ValidationError("path", "not a colwave field dump")
        header = fh.read(_BINARY_HEADER.size)
        if len(header) != _BINARY_HEADER.size:
            raise ValidationError("path", "truncated dump header")
        version, dim, margin, n_levels, n_axis, horizon, support_radius, extent, dx, dt = (
            _BINARY_HEADER.unpack(header)
        )
        if version != 1:
            raise ValidationError("path", f"unsupported dump version {version}")
        grid = SpaceTimeGrid(
            dim=dim,
            horizon=horizon,
            support_radius=support_radius,
            spatial_extent=extent,
            dx=dx,
            dt=dt,
            margin_cells=margin,
        )
        if grid.n_time + 1 != n_levels or len(grid.axis) != n_axis:
            raise ValidationError("path", "dump header inconsistent with grid geometry")
        count = math.prod(grid.shape)
        samples = np.fromfile(fh, dtype="<f8", count=count)
        if samples.size != count or fh.read(1):
            raise ValidationError("path", f"payload does not hold the {count} samples of its grid")
    return Field(grid, samples.reshape(grid.shape))
