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
the rounding in |x - t*d|.  For the same reason each datum's radial
profile is evaluated only at the rule points with rho < outer_radius, and
only to the derivative order read (the value, and for u0 the first
derivative from the same pass); the other points contribute exactly 0.0.
The gradient term's sum over the d components stays ``np.einsum``: it
adds 3D terms as (p0 + p2) + p1, which a hand-written sum would not
repeat, so the fields are bit for bit those of evaluating every rule
point.  The mean rules are built once per ``(dim, quad)`` and the
Gauss-Legendre rules once per node count, cached read-only.
One function, ``_data_terms``, evaluates the data part at a list of
times for a list of targets in every dimension: ``solve_linear`` calls it
once for all grid levels, ``linear_value`` for its one point.  It tests
|x| < |t| + R once for every (time, target) pair.  In 1D the d'Alembert
term of every live pair is evaluated in one numpy batch of at most
``_CHUNK`` pairs, t = 0 included (``0.5 * (a + a) == a`` exactly); the u1
line integral keeps one Gauss rule per time, since its panel count
depends on t.  The 2D/3D means stay one evaluation per time: batching
times would multiply the (target, rule point) temporaries and change
which rows share each BLAS product, and with it the last bits of the
means.  ``solve_linear`` evaluates the data terms only on the nodes of the
nonnegative orthant and fills every other node by reflection, all levels
at once.  That is exact: the data are radial, every rule maps onto itself
under each coordinate reflection (``angular_points`` is even, the
Gauss-Legendre nodes are symmetric), and the grid axis is exactly
antisymmetric, so the result is mirror-symmetric bit for bit and the t = 0
level is u0 at the nodes.  When ``angular_points % 4 == 0`` the azimuths
2*pi*j/A are closed under theta -> pi/2 - theta, so the disk and sphere
rules are also invariant under the x <-> y swap: in 2D/3D only the orthant
nodes with i >= j on the first two axes are evaluated and the rest are
filled by the swap (the 3D z axis is the polar axis and is not swapped).
That swap is exact in real arithmetic only, so these fields are
swap-symmetric bit for bit and within rounding (measured 6.6e-16 of the
peak) of the whole orthant; other rules keep the whole orthant.

The Duhamel source integral is a composite trapezoid over grid time
levels refined by ``time_points_per_dt``; the sampled source is read off
the grid by multilinear interpolation (linear in time between levels).
Every level's trapezoid weighs H[0] by one half; that half is applied once,
to the spectrum of H[0] before the lag sum.  At a fixed time lag the inner
integral is the same node stencil around every target, so
``solve_linear`` builds one stencil per lag at the origin
and applies them all through one zero-padded spatial FFT.  No stencil
weight lies more than ``reach`` nodes from the origin along any axis
(measured from the built stencils), so an axis of ``n`` nodes is padded to
the next 5-smooth length at least ``n + reach``: every offset between two
nodes of the box that exceeds ``reach`` then falls on the stencil's zero
padding, and the circular correlation cannot wrap.  Both multi-axis
transforms run axis by axis in numpy's order and skip rows that cannot
matter: the stencils grow each axis to the padded length only just before
transforming it, and the inverse keeps the box's ``n`` entries of an axis
as soon as that axis is transformed.  Each row's transform is independent
of the others, so both are ``rfftn``/``irfftn`` bit for bit.  With
``time_points_per_dt > 1`` only the grid levels are transformed and the
sub-level spectra are blended from them (linear interpolation in time
commutes with the spatial FFT), which moves results by rounding.  The
stencil spectra depend only on ``(grid, quad)`` and are built once for
them and cached read-only, so every Picard sweep of a solve and every
thread of ``solve_net`` reuses one build.  The lag sum is a causal
convolution in time: in 1D, and in 2D/3D from ``TIME_FFT_LEVELS`` time
levels on (the measured crossover), it runs as one FFT along time
zero-padded to a 5-smooth length at least ``2 * lags - 1``, else level by
level.  Every length that does not wrap gives the same linear
correlation, so the lengths move results only by rounding; the two paths
agree to rounding, and each is deterministic.  ``_source_levels`` adds
the levels into ``solve_linear``'s ``out[1:]``; level by level, it
transforms each grid level on its own and each level's lag sum straight
back into ``out``, so no batch of padded transforms is alive (the 1D and
time-FFT paths batch theirs, in place).  A finite source whose Duhamel
term overflows makes ``solve_linear`` raise DivergenceError, without a
floating-point warning.  Past the box the source is
zero at the nodes: the interpolant falls to zero over the cell
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

from .errors import DivergenceError, ValidationError, check_count
from .nets import InitialDatum
from .seminorms import Field, SpaceTimeGrid

#: Upper bound on quadrature points, or 1D (level, node) pairs, evaluated
#: in one numpy batch.
_CHUNK = 1 << 21

#: Time-level count ``n_time`` from which ``_source_levels`` sums the lags
#: of 2D/3D grids by one FFT along time instead of level by level; 1D grids
#: take the FFT at every level count.  The level loop costs about
#: ``n_time / 2`` products per lag and only reads every
#: ``time_points_per_dt``-th convolution entry, the FFT about ``log(lags)``,
#: so the crossover is counted in levels, not lags.  Measured per apply
#: (loop against FFT) on a 2-vCPU host: in 1D at 105 nodes the FFT wins
#: from 10 levels (0.062 against 0.037 ms; 20 levels 0.121 against 0.052;
#: 30 levels, 2 steps per dt, 0.275 against 0.124); in 3D at 19^3 nodes the
#: loop wins at 7 levels (1.63 against 3.00 ms) and loses at 40 (33.6
#: against 30.0); in 2D at 47^2 nodes the loop wins at 10 levels with 2
#: steps (1.09 against 1.66 ms) and 20 with 4 (4.83 against 5.17), and
#: loses at 40 levels (5.46 against 4.65) and at 60 with 2 steps (51^2:
#: 24.6 against 15.8).
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

def _legval(x: np.ndarray, c: list[float]) -> np.ndarray:
    """Legendre series ``sum_k c[k] P_k(x)`` by Clenshaw's recurrence, ``len(c) >= 2``."""
    nd = len(c)
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@functools.lru_cache(maxsize=16)
def _leggauss(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once, read-only.

    The steps of ``numpy.polynomial.legendre.leggauss``, so bit for bit its
    rule, without importing ``numpy.polynomial``: the eigenvalues of the
    symmetric Legendre companion matrix, one Newton step, then nodes and
    weights symmetrized and the weights normalized to sum 2.
    """
    scl = 1.0 / np.sqrt(2 * np.arange(nodes) + 1)
    off = np.arange(1, nodes) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    p_n = [0.0] * nodes + [1.0]
    # P_n' = sum of (2k + 1) P_k over k = n - 1, n - 3, ...
    dp_n = [float(2 * k + 1) if (nodes - k) % 2 else 0.0 for k in range(nodes)]
    df = _legval(x, dp_n)
    x -= _legval(x, p_n) / df
    fm = _legval(x, p_n[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_panels(a: float, b: float, nodes: int, panels: int):
    """Composite Gauss-Legendre nodes/weights on [a, b]."""
    x0, w0 = _leggauss(nodes)
    edges = np.linspace(a, b, panels + 1)
    half = (edges[1] - edges[0]) / 2.0
    mids = (edges[:-1] + edges[1:]) / 2.0
    xs = (mids[:, None] + half * x0[None, :]).ravel()
    ws = np.tile(w0 * half, panels)
    return xs, ws


@functools.lru_cache(maxsize=16)
def _mean_rule(dim: int, quad: QuadratureSpec):
    """Directions and weights for the normalized sphere/disk means.

    Returns (scaled_dirs, weights) with sum(weights) == 1 such that the
    mean of g over the radius-t surface/disk is
    ``sum_q weights[q] * g(x - t * scaled_dirs[q])``.  Built once per
    ``(dim, quad)``; both arrays are read-only.
    """
    theta = np.arange(quad.angular_points) * (2.0 * math.pi / quad.angular_points)
    if dim == 3:
        c, wc = _leggauss(quad.polar_points)
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
    elif dim == 2:
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
    else:
        raise ValidationError("dim", f"mean rule defined for dim 2 or 3, got {dim}")
    dirs.flags.writeable = False
    weights.flags.writeable = False
    return dirs, weights


def _feature_scale(datum: InitialDatum) -> float:
    """Finest length scale of a nonzero datum profile, for 1D panel sizing."""
    if datum.kind == "plateau_bump":
        return datum.outer_radius - datum.inner_radius
    return datum.outer_radius / 2.0


def _line_rule(t: float, datum: InitialDatum, quad: QuadratureSpec):
    """Composite Gauss-Legendre rule on [-t, t] resolving the datum profile.

    For t < 0 the weights are negative (the velocity term is odd in t) and
    the panels are those of |t|.
    """
    width = _feature_scale(datum) / 2.0
    panels = min(512, max(1, math.ceil(2.0 * abs(t) / width)))
    return _gauss_panels(-t, t, quad.polar_points, panels)


# ---------------------------------------------------------------------------
# data terms
# ---------------------------------------------------------------------------

def _data_terms(
    u0: InitialDatum,
    u1: InitialDatum,
    times: np.ndarray,
    pts: np.ndarray,
    quad: QuadratureSpec,
) -> np.ndarray:
    """Homogeneous part at every time of ``times`` for targets ``pts`` (M, dim).

    Returns shape ``(len(times), M)``; the pairs with |x| >= |t| + R, R the
    largest outer radius of the nonzero data, are exactly 0.0.  In 1D the
    d'Alembert term of every live pair is one batch of at most ``_CHUNK``
    pairs, and the u1 line rule, whose panels depend on |t|, goes time by
    time; in 2D/3D the means go time by time.
    """
    dim = pts.shape[1]
    out = np.zeros((len(times), len(pts)))
    radii = [d.outer_radius for d in (u0, u1) if d.kind != "zero"]
    if not radii:
        return out
    live = np.sqrt(np.sum(pts * pts, axis=-1)) < np.abs(times)[:, None] + max(radii)
    if dim == 1:
        if u0.kind != "zero":
            pairs = np.flatnonzero(live)
            flat = out.reshape(-1)
            for lo in range(0, len(pairs), _CHUNK):
                level, node = np.divmod(pairs[lo : lo + _CHUNK], len(pts))
                t, xs = times[level, None], pts[node]
                flat[pairs[lo : lo + _CHUNK]] = 0.5 * (u0.value(xs + t) + u0.value(xs - t))
        if u1.kind != "zero":
            for n, t in enumerate(times.tolist()):
                if t == 0.0:
                    continue
                targets = np.flatnonzero(live[n])
                offs, w = _line_rule(t, u1, quad)
                chunk = max(1, _CHUNK // len(offs))
                for lo in range(0, len(targets), chunk):
                    sub = targets[lo : lo + chunk]
                    vals = u1.value(pts[sub, None] + offs[None, :, None])
                    out[n, sub] += 0.5 * (vals @ w)
        return out
    sd, wq = _mean_rule(dim, quad)
    chunk = max(1, _CHUNK // len(wq))
    for n, t in enumerate(times.tolist()):
        targets = np.flatnonzero(live[n])
        if t == 0.0:
            if u0.kind != "zero":
                out[n, targets] = u0.value(pts[targets])
            continue
        tsd = t * sd
        for lo in range(0, len(targets), chunk):
            sub = pts[targets[lo : lo + chunk]]
            q = [sub[:, k, None] - tsd[:, k] for k in range(dim)]  # (m, Q) each
            rho2 = q[0] * q[0]
            for qk in q[1:]:
                rho2 += qk * qk
            rho = np.sqrt(rho2)
            acc = np.zeros(len(sub))
            # a profile and its gradient are exactly 0.0 from outer_radius on:
            # evaluate the pairs inside it and leave the rest zero
            if u0.kind != "zero":
                inside = np.flatnonzero(rho < u0.outer_radius)
                r = rho.take(inside)
                v0, f1 = u0._radial(r, 1)
                qi = np.stack([qk.take(inside) for qk in q], axis=-1)
                g0 = (f1 / np.where(r > 0.0, r, 1.0))[:, None] * qi
                # einsum keeps numpy's order of the d-sum, so fields stay bit-identical
                kern = np.zeros(rho.shape)
                kern.put(inside, v0 - t * np.einsum("pd,pd->p", g0, sd[inside % len(wq)]))
                acc += kern @ wq
            if u1.kind != "zero":
                inside = np.flatnonzero(rho < u1.outer_radius)
                kern = np.zeros(rho.shape)
                kern.put(inside, u1._radial(rho.take(inside), 0)[0])
                acc += t * (kern @ wq)
            out[n, targets[lo : lo + chunk]] = acc
    return out


# ---------------------------------------------------------------------------
# Duhamel source integral
# ---------------------------------------------------------------------------

def _hat_antiderivative(u: np.ndarray) -> np.ndarray:
    """Integral of the unit hat max(0, 1 - |v|) over v <= u."""
    u = np.clip(u, -1.0, 1.0)
    return np.where(u < 0.0, 0.5 * (1.0 + u) ** 2, 1.0 - 0.5 * (1.0 - u) ** 2)


def _lag_weights(grid: SpaceTimeGrid, quad: QuadratureSpec, s: np.ndarray) -> np.ndarray:
    """Node weights of the inner Duhamel integral at the origin for radii s.

    Returns shape ``(len(s),) + grid.spatial_shape``; the inner integral of
    a source slice at radius ``s[k]`` is ``sum(weights[k] * slice)``.  In 1D
    it is half the exact integral of the piecewise-linear interpolant over
    [-s, s]; in 2D/3D it is s times the sphere/disk mean of the
    multilinear interpolant, each rule point's weight scattered to its 2^d
    cell corners.  Every node carries its full hat, so past the last node
    the interpolant falls to zero over one cell.
    """
    n, d = len(grid.axis), grid.dim
    if d == 1:
        hi = (s[:, None] - grid.axis) / grid.dx
        lo = (-s[:, None] - grid.axis) / grid.dx
        return 0.5 * grid.dx * (_hat_antiderivative(hi) - _hat_antiderivative(lo))
    dirs, wq = _mean_rule(d, quad)
    f = (grid.spatial_extent - s[:, None, None] * dirs) / grid.dx  # (K, Q, d)
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


def _fft_length(m: int) -> int:
    """Smallest 5-smooth length 2^a * 3^b * 5^c that is at least ``m``."""
    best = 1 << max(0, (m - 1).bit_length())
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << max(0, (-(-m // p35) - 1).bit_length()))
            p35 *= 3
        p5 *= 5
    return best


@functools.lru_cache(maxsize=1)
def _cached_spectra(grid: SpaceTimeGrid, quad: QuadratureSpec):
    tp = quad.time_points_per_dt
    d, n = grid.dim, len(grid.axis)
    half = n // 2
    lags = grid.n_time * tp
    axes = tuple(range(1, d + 1))
    s_hat = _lag_weights(grid, quad, (grid.dt / tp) * np.arange(1, lags + 1))
    # reach: the largest node offset from the origin that any stencil touches
    offsets = np.nonzero(np.any(s_hat != 0.0, axis=0))
    reach = max(int(np.max(np.abs(ix - half))) for ix in offsets)
    length = _fft_length(n + reach)
    s_hat = s_hat[(slice(None),) + (slice(half - reach, half + reach + 1),) * d]
    # rfftn's steps (last axis first), each axis padded to ``length`` and
    # rolled to put the origin at index 0 only when it is transformed, so
    # rows that hold only padding are never transformed
    for axis in reversed(axes):
        pad = [(0, 0)] * (d + 1)
        pad[axis] = (0, length - 2 * reach - 1)
        s_hat = np.roll(np.pad(s_hat, pad), -reach, axis=axis)
        s_hat = np.fft.rfft(s_hat, axis=axis) if axis == d else np.fft.fft(s_hat, axis=axis)
    s_hat = np.conj(s_hat)
    s_hat.flags.writeable = False
    if d > 1 and grid.n_time < TIME_FFT_LEVELS:
        return s_hat, None, length
    # zero padding to at least 2 * lags - 1 keeps the time convolution linear
    s_time = np.fft.fft(s_hat, n=_fft_length(2 * lags - 1), axis=0)
    s_time.flags.writeable = False
    return None, s_time, length


def _stencil_spectra(grid: SpaceTimeGrid, quad: QuadratureSpec):
    """Conjugated spatial spectra of the lag stencils S_1..S_lags, read-only.

    Returns ``(s_hat, s_time, length)``: the spectra at the per-axis FFT
    length ``length``, which the level-by-level lag sum reads; their
    spectrum along time, zero-padded, which the time convolution reads in
    1D and from ``TIME_FFT_LEVELS`` levels on in 2D/3D; and ``length``
    itself.  Exactly one of the two spectra is set, the other is None.
    Built once per ``(grid, quad)``: the cache holds one grid's spectra,
    and the lock makes concurrent solves on one grid share a single build.
    """
    with _SPECTRA_LOCK:
        return _cached_spectra(grid, quad)


def _source_levels(h: Field, quad: QuadratureSpec, out: np.ndarray) -> None:
    """Add the Duhamel term of ``h`` at grid levels 1..n_time to ``out``.

    ``out`` holds those ``n_time`` levels (``solve_linear`` passes its
    ``out[1:]``); each level's sum is added to it with ``+=``, so a zeroed
    ``out`` receives ``0.0 + x`` as a separate sum would.
    With ``p = time_points_per_dt`` and ``ds = dt / p``, the source H[j] at
    sub-level j is linear in time between grid levels, and level n is the
    trapezoid ``ds * sum_{k=1..np} S_k * H[np-k] - ds/2 * S_np * H[0]``.
    Every level's sum holds ``S_np * H[0]`` exactly once, so H[0] is halved
    in its spatial spectrum before the lag sum.  The lag-k stencil S_k
    holds the origin-node weights of radius k*ds; every node sees the same
    stencil, so each sum is a spatial correlation,
    applied through one zero-padded FFT.  No stencil is nonzero more than
    ``reach`` nodes from the origin along any axis, so each axis of ``n``
    nodes is padded to the next 5-smooth length ``P >= n + reach``: the
    circular correlation then cannot wrap, since between two nodes of the
    box a positive offset ``o > reach`` lands at ``o <= n - 1 < P - reach``
    and a negative one at ``P + o >= P - n + 1 > reach``, where the stencil
    is zero.  With ``p > 1`` only the grid levels are transformed, and the
    sub-level spectra are blended from theirs.  The lag sum is a causal
    convolution in time: in 1D, and from ``TIME_FFT_LEVELS`` levels on in
    2D/3D, all levels at once through one FFT along time zero-padded to a
    5-smooth length ``>= 2 * lags - 1``, batched and in place, so the source
    spectrum and about one time spectrum are alive; ``s_time * fft`` stays
    one expression, as numpy may form it as ``fft * s_time`` in the FFT's
    buffer and complex products do not commute bit for bit.  Else level
    by level, each grid level transformed on its own into the
    spectra and each level's lag sum transformed back straight into its
    level of ``out``, so no batch of padded transforms is ever alive.
    Every row is transformed independently, so both ways of batching give
    the same bits.
    """
    grid = h.grid
    tp = quad.time_points_per_dt
    d, n = grid.dim, len(grid.axis)
    lags = grid.n_time * tp
    ds = grid.dt / tp
    s_hat, s_time, length = _stencil_spectra(grid, quad)
    shape = (length,) * d
    if s_time is None:
        space = tuple(range(d))
        h_hat = np.empty((lags,) + s_hat.shape[1:], dtype=complex)
        for m in range(grid.n_time + (tp > 1)):
            spectrum = np.fft.rfftn(h.samples[m], s=shape, axes=space)
            if m > 0:
                # linear interpolation in time commutes with the spatial FFT:
                # blend the sub-levels of the cell below from its grid levels
                below = h_hat[(m - 1) * tp]
                for j in range(1, tp):
                    h_hat[(m - 1) * tp + j] = (1.0 - j / tp) * below + (j / tp) * spectrum
            if m < grid.n_time:
                h_hat[m * tp] = spectrum
        h_hat[0] *= 0.5  # every level's lag sum holds S_p * H[0] once, at trapezoid weight 1/2
        for level in range(1, grid.n_time + 1):
            p = level * tp
            acc = np.einsum("k...,k...->...", s_hat[:p], h_hat[p - 1 :: -1])
            out[level - 1] += ds * _inverse(acc, d, n, length)
        return
    axes = tuple(range(1, d + 1))
    if tp == 1:
        h_hat = np.fft.rfftn(h.samples[:-1], s=shape, axes=axes)
    else:
        levels = np.fft.rfftn(h.samples, s=shape, axes=axes)
        h_hat = np.empty((lags,) + levels.shape[1:], dtype=complex)
        h_hat[::tp] = levels[:-1]
        for j in range(1, tp):
            h_hat[j::tp] = (1.0 - j / tp) * levels[:-1] + (j / tp) * levels[1:]
        del levels
    h_hat[0] *= 0.5
    # keep the product one expression (see the docstring)
    conv = s_time * np.fft.fft(h_hat, n=len(s_time), axis=0)
    del h_hat
    # entry p - 1 of the convolution is sum_{k=1..p} S_k * H[p-k]
    acc = _inverse(np.fft.ifft(conv, axis=0, out=conv)[tp - 1 : lags : tp], d, n, length)
    del conv
    out += np.multiply(ds, acc, out=acc)


def _inverse(acc: np.ndarray, d: int, n: int, length: int) -> np.ndarray:
    """``irfftn`` over the last ``d`` axes of ``acc``, cropped to the box's ``n`` nodes.

    irfftn's steps, each axis cropped to ``n`` as soon as it is
    transformed, so rows past the box are never transformed.
    """
    for axis in range(-d, -1):
        acc = np.fft.ifft(acc, axis=axis)[(Ellipsis, slice(0, n)) + (slice(None),) * (-1 - axis)]
    return np.fft.irfft(acc, n=length, axis=-1)[..., :n]


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
    if u0.kind == "zero" and u1.kind == "zero":
        out = np.zeros(grid.shape)
    else:
        # radial data, a reflection-invariant rule and an antisymmetric axis:
        # evaluate the nonnegative orthant and mirror it onto every other one;
        # with angular_points % 4 == 0 the 2D/3D rule is also invariant under
        # the x <-> y swap: evaluate the orthant nodes with i >= j only
        half = len(grid.axis) // 2
        orthant = np.empty((grid.n_time + 1,) + (len(grid.axis) - half,) * grid.dim)
        idx = np.indices(orthant.shape[1:]).reshape(grid.dim, -1)
        swap = grid.dim > 1 and quad.angular_points % 4 == 0
        if swap:
            idx = idx[:, idx[0] >= idx[1]]
        vals = _data_terms(u0, u1, grid.times, grid.axis[half:][idx.T], quad)
        orthant[(slice(None), *idx)] = vals
        if swap:
            orthant[(slice(None), idx[1], idx[0], *idx[2:])] = vals
        # every index an array, not a slice, so the field comes out in C order
        mirror = [np.abs(np.arange(len(grid.axis)) - half)] * grid.dim
        out = orthant[np.ix_(np.arange(grid.n_time + 1), *mirror)]
    if h is not None:
        # a finite source whose Duhamel term overflows is reported below
        with np.errstate(over="ignore", invalid="ignore"):
            _source_levels(h, quad, out[1:])
        if not np.all(np.isfinite(out)):
            raise DivergenceError("the Duhamel term of the source overflowed")
    return Field(grid, out)


def linear_value(
    u0: InitialDatum,
    u1: InitialDatum,
    t: float,
    x,
    quad: QuadratureSpec,
) -> float:
    """Solution of the linear problem at one space-time point.

    Grid-free, data part only; the space dimension is that of ``x``.
    ``t`` may be negative (the velocity term is odd in t) but not non-finite.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValidationError("t", f"must be finite, got {t}")
    pts = np.atleast_1d(np.asarray(x, dtype=float)).reshape(1, -1)
    d = pts.shape[1]
    if d not in (1, 2, 3):
        raise ValidationError("dim", f"space dimension must be 1, 2 or 3, got {d}")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("x", f"every coordinate must be finite, got {pts[0].tolist()}")
    return float(_data_terms(u0, u1, np.array([t]), pts, quad)[0, 0])


@dataclass(frozen=True)
class SupportReport:
    max_outside: float
    ok: bool
    tol: float


def check_support(field: Field, r: float, tol: float = 1e-10) -> SupportReport:
    """Max |field| over nodes with |x| > t + r + 2 dx."""
    if not math.isfinite(r):
        raise ValidationError("r", f"must be finite, got {r}")
    if not (0.0 <= tol < math.inf):
        raise ValidationError("tol", f"must be nonnegative and finite, got {tol}")
    outside = ~field.grid.within_radius(field.grid.times + r + 2.0 * field.grid.dx)
    max_outside = float(np.max(np.abs(field.samples[outside]), initial=0.0))
    return SupportReport(max_outside=max_outside, ok=max_outside <= tol, tol=tol)


# ---------------------------------------------------------------------------
# field export
# ---------------------------------------------------------------------------

def field_to_csv(field: Field, path) -> None:
    """Rows (t, x[, y[, z]], value) in C order, 17 significant digits."""
    grid = field.grid
    names = ["t", "x", "y", "z"][: grid.dim + 1]
    # every coordinate is a grid time or an axis value: format the spatial
    # prefixes once per grid, then write one string per time level
    axis = [f"{v:.17g}," for v in grid.axis]
    spatial = ["".join(c) for c in itertools.product(axis, repeat=grid.dim)]
    levels = field.samples.reshape(len(grid.times), -1)
    with open(path, "w") as fh:
        fh.write(",".join(names + ["value"]) + "\n")
        for t, level in zip(grid.times.tolist(), levels):
            head = f"{t:.17g},"
            fh.write("".join([f"{head}{p}{v:.17g}\n" for p, v in zip(spatial, level.tolist())]))


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
