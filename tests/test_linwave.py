import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colwave.linwave as linwave
from colwave.errors import ValidationError
from colwave.linwave import (
    TIME_FFT_LEVELS,
    QuadratureSpec,
    _data_terms,
    _line_rule,
    _mean_rule,
    check_support,
    field_from_binary,
    field_to_binary,
    field_to_csv,
    linear_value,
    solve_linear,
)
from colwave.nets import InitialDatum, NonlinearitySpec, Problem, ZERO_DATUM, make_ladder
from colwave.seminorms import Field, SpaceTimeGrid, seminorm
from colwave.semilinear import solve_net
from helpers import cone_mask, constant_field, datum_gradient

QUAD = QuadratureSpec(angular_points=16, polar_points=12)
GAUSS = InitialDatum("gaussian_bump", outer_radius=0.5, amplitude=1.0)
GAUSS_NEG = InitialDatum("gaussian_bump", outer_radius=0.3, amplitude=-2.0)
PLATEAU = InitialDatum("plateau_bump", outer_radius=0.8, inner_radius=0.6, amplitude=1.0)


def test_quadrature_validation():
    with pytest.raises(ValidationError, match="angular_points"):
        QuadratureSpec(angular_points=7)
    with pytest.raises(ValidationError, match="angular_points"):
        QuadratureSpec(angular_points=2)
    with pytest.raises(ValidationError, match="polar_points"):
        QuadratureSpec(polar_points=3)
    with pytest.raises(ValidationError, match="time_points_per_dt"):
        QuadratureSpec(time_points_per_dt=0)
    # a bool is an int to Python, but no count
    with pytest.raises(ValidationError, match="time_points_per_dt"):
        QuadratureSpec(time_points_per_dt=True)


# ---------------------------------------------------------------------------
# homogeneous solutions
# ---------------------------------------------------------------------------

def test_dalembert_translation_average():
    grid = SpaceTimeGrid.covering(1, 0.5, 0.5, dx=0.02, dt=0.01)
    field = solve_linear(GAUSS, ZERO_DATUM, None, grid, QUAD)
    tmesh, xmesh = grid.meshes()
    exact = 0.5 * (
        GAUSS.value((xmesh + tmesh)[..., None]) + GAUSS.value((xmesh - tmesh)[..., None])
    )
    np.testing.assert_allclose(field.samples, exact, atol=1e-8)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("t", [0.2, 0.45])
def test_plateau_mean_identity(dim, t):
    # closed-form means of the unit plateau: the velocity term integrates to t
    value = linear_value(ZERO_DATUM, PLATEAU, t, np.zeros(dim), QUAD)
    assert value == pytest.approx(t, abs=1e-6)


def test_zero_data_zero_solution():
    grid = SpaceTimeGrid.covering(2, 0.3, 0.2, dx=0.1, dt=0.05)
    field = solve_linear(ZERO_DATUM, ZERO_DATUM, None, grid, QUAD)
    assert np.all(field.samples == 0.0)


def test_initial_conditions_exact_and_velocity_consistent():
    quad = QuadratureSpec(angular_points=12, polar_points=10)
    u1 = InitialDatum("plateau_bump", outer_radius=0.4, inner_radius=0.2, amplitude=0.5)
    errs = []
    for dx in (0.04, 0.02):
        grid = SpaceTimeGrid.covering(1, 0.2, 0.5, dx=dx, dt=dx / 2)
        field = solve_linear(GAUSS, u1, None, grid, quad)
        pts = grid.spatial_points
        np.testing.assert_array_equal(field.samples[0], GAUSS.value(pts).reshape(grid.spatial_shape))
        fd_velocity = (field.samples[1] - field.samples[0]) / grid.dt
        errs.append(
            float(np.max(np.abs(fd_velocity - u1.value(pts).reshape(grid.spatial_shape))))
        )
    # one-sided velocity error is O(dt): halving dt roughly halves it
    assert errs[1] <= 0.65 * errs[0]


def test_linearity_in_data_and_source():
    grid = SpaceTimeGrid.covering(1, 0.4, 0.5, dx=0.05, dt=0.025)
    h = Field(grid, np.cos(grid.meshes()[1]) * cone_mask(grid, 0))
    base = solve_linear(GAUSS, PLATEAU_SMALL, h, grid, QUAD)
    a = 3.7
    scaled = solve_linear(
        InitialDatum("gaussian_bump", outer_radius=0.5, amplitude=a),
        InitialDatum("plateau_bump", outer_radius=0.4, inner_radius=0.2, amplitude=0.5 * a),
        Field(grid, a * h.samples),
        grid,
        QUAD,
    )
    np.testing.assert_allclose(scaled.samples, a * base.samples, rtol=1e-12, atol=1e-13)


PLATEAU_SMALL = InitialDatum("plateau_bump", outer_radius=0.4, inner_radius=0.2, amplitude=0.5)


# ---------------------------------------------------------------------------
# data terms against an independent unmasked reference
# ---------------------------------------------------------------------------

def reference_data_terms(u0, u1, dim, t, pts, quad):
    """Rule sums at every target (no support test), from datum values and gradients."""
    if t == 0.0:
        return u0.value(pts)
    if dim == 1:
        offs, w = _line_rule(t, u1, quad)
        line = u1.value(pts[:, None, :] + offs[None, :, None])
        return 0.5 * (u0.value(pts + t) + u0.value(pts - t)) + 0.5 * np.sum(line * w, axis=1)
    dirs, wq = _mean_rule(dim, quad)
    q = pts[:, None, :] - t * dirs[None]
    kirchhoff = u0.value(q) - t * np.sum(datum_gradient(u0, q) * dirs, axis=-1)
    return np.sum((kirchhoff + t * u1.value(q)) * wq, axis=1)


def data_reach(u0, u1, t):
    return abs(t) + max(d.outer_radius for d in (u0, u1) if d.kind != "zero")


DATA_QUAD = QuadratureSpec(angular_points=8, polar_points=6)


@pytest.mark.parametrize(
    "dim,dx,horizon,u0,u1",
    [
        (1, 0.05, 0.6, GAUSS, PLATEAU),
        (2, 0.1, 0.6, PLATEAU, GAUSS),
        (3, 0.15, 0.45, GAUSS, PLATEAU_SMALL),
        # horizon past R: the interior |x| <= t - R is evaluated too
        (3, 0.2, 0.9, PLATEAU_SMALL, GAUSS_NEG),
    ],
    ids=["1d", "2d", "3d", "3d_past_R"],
)
def test_data_terms_match_reference(dim, dx, horizon, u0, u1):
    grid = SpaceTimeGrid.covering(dim, horizon, data_reach(u0, u1, 0.0), dx=dx, dt=dx / 2)
    field = solve_linear(u0, u1, None, grid, DATA_QUAD)
    peak = np.max(np.abs(field.samples))
    pts = grid.spatial_points
    radius = grid.node_radius.ravel()
    for n in range(grid.n_time + 1):
        t = float(grid.times[n])
        level = field.samples[n].ravel()
        ref = reference_data_terms(u0, u1, dim, t, pts, DATA_QUAD)
        np.testing.assert_allclose(level, ref, rtol=0, atol=1e-14 * peak)
        assert np.all(level[radius >= data_reach(u0, u1, t)] == 0.0)


def whole_array_data_terms(u0, u1, dim, t, pts, quad):
    """The data-term kernel on whole (targets, rule points) arrays.

    Every profile is evaluated to order 1 at every pair of a live target,
    from one (m, Q, d) stack, in the kernel's chunks: the operations the
    kernel must reproduce bit for bit on the pairs inside each support.
    """
    def value(datum, x):
        return datum._radial(np.sqrt(np.sum(x * x, axis=-1)), 1)[0]

    out = np.zeros(pts.shape[0])
    radii = [d.outer_radius for d in (u0, u1) if d.kind != "zero"]
    if not radii:
        return out
    live = np.flatnonzero(np.sqrt(np.sum(pts * pts, axis=-1)) < abs(t) + max(radii))
    pts = pts[live]
    if t == 0.0:
        if u0.kind != "zero":
            out[live] = value(u0, pts)
        return out
    if dim == 1:
        if u0.kind != "zero":
            out[live] = 0.5 * (value(u0, pts + t) + value(u0, pts - t))
        if u1.kind != "zero":
            offs, w = _line_rule(t, u1, quad)
            chunk = max(1, linwave._CHUNK // len(offs))
            for lo in range(0, len(live), chunk):
                vals = value(u1, pts[lo : lo + chunk, None, :] + offs[None, :, None])
                out[live[lo : lo + chunk]] += 0.5 * (vals @ w)
        return out
    sd, wq = _mean_rule(dim, quad)
    chunk = max(1, linwave._CHUNK // len(wq))
    for lo in range(0, len(live), chunk):
        q = pts[lo : lo + chunk, None, :] - t * sd[None, :, :]
        rho = np.sqrt(np.sum(q * q, axis=-1))
        acc = np.zeros(len(q))
        if u0.kind != "zero":
            v0, f1 = u0._radial(rho, 1)
            g0 = (f1 / np.where(rho > 0.0, rho, 1.0))[..., None] * q
            acc += (v0 - t * np.einsum("mqd,qd->mq", g0, sd)) @ wq
        if u1.kind != "zero":
            acc += t * (u1._radial(rho, 1)[0] @ wq)
        out[live[lo : lo + chunk]] = acc
    return out


def band_targets(dim, radii, rng):
    """Random targets, the origin, and targets on and around each radius."""
    dirs = rng.standard_normal((40, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = [rng.uniform(-1.0, 1.0, (60, dim)), np.zeros((1, dim))]
    for r in radii:
        near = (np.nextafter(r, 0.0), r, np.nextafter(r, 2.0 * r), r * (1.0 - 5e-7), r + 0.02)
        for scale in near:
            pts.append(scale * dirs[:8])
            dirs = np.roll(dirs, 8, axis=0)
    return np.concatenate(pts)


BIT_DATA = [
    (PLATEAU, GAUSS),
    (GAUSS_NEG, PLATEAU_SMALL),
    (InitialDatum("plateau_bump", outer_radius=0.5, inner_radius=0.1, amplitude=-0.7), GAUSS_NEG),
    (GAUSS, ZERO_DATUM),
    (ZERO_DATUM, InitialDatum("gaussian_bump", outer_radius=0.45, amplitude=-1.5)),
]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize(
    "data", BIT_DATA, ids=["plateau_gauss", "negative", "neg_plateau", "u0", "u1"]
)
@pytest.mark.parametrize("chunk", [None, 1000], ids=["whole", "chunked"])
def test_data_terms_bit_identical_to_whole_array_formula(monkeypatch, dim, data, chunk):
    # the kernel evaluates only the pairs inside each datum's support, each
    # profile only to the order it reads: values and signs of zero stay equal
    if chunk is not None:
        monkeypatch.setattr(linwave, "_CHUNK", chunk)
    # all times in one call, each row against the formula at its own time
    u0, u1 = data
    radii = [d.outer_radius for d in data if d.kind != "zero"]
    times = np.array([-0.45, -0.1, 0.0, 0.1, 0.3, 0.45])
    band = [r + abs(t) for t in times for r in radii]
    band += [r - abs(t) for t in times for r in radii if r > abs(t)]
    pts = band_targets(dim, radii + band, np.random.default_rng(dim))
    for quad in (DATA_QUAD, QUAD):
        got = _data_terms(u0, u1, times, pts, quad)
        for row, t in zip(got, times.tolist()):
            ref = whole_array_data_terms(u0, u1, dim, t, pts, quad)
            assert np.array_equal(row, ref)
            assert np.array_equal(np.signbit(row), np.signbit(ref))


@pytest.mark.parametrize("dim", [2, 3])
def test_mean_rule_cached_read_only(dim):
    rule = _mean_rule(dim, DATA_QUAD)
    assert all(a is b for a, b in zip(rule, _mean_rule(dim, DATA_QUAD)))
    nodes = linwave._leggauss(7)
    assert all(a is b for a, b in zip(nodes, linwave._leggauss(7)))
    for arr in rule + nodes:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_leggauss_bit_identical_to_numpy():
    from numpy.polynomial.legendre import leggauss

    for nodes in range(4, 129):
        got, want = linwave._leggauss.__wrapped__(nodes), leggauss(nodes)
        for a, b in zip(got, want):
            assert np.array_equal(a, b), nodes
            assert np.array_equal(np.signbit(a), np.signbit(b)), nodes


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_solve_linear_builds_each_gauss_rule_once(monkeypatch, dim):
    # each Gauss-Legendre build takes the eigenvalues of one companion matrix
    calls = []

    def counted(matrix):
        calls.append(len(matrix))
        return eigvalsh(matrix)

    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    linwave._leggauss.cache_clear()
    _mean_rule.cache_clear()
    linwave._cached_spectra.cache_clear()
    grid = SpaceTimeGrid.covering(dim, 0.4, 0.4, dx=0.1, dt=0.05)
    h = constant_field(grid, 1.0)
    quad = QuadratureSpec(angular_points=8, polar_points=5)
    solve_linear(GAUSS_NEG, PLATEAU_SMALL, h, grid, quad)
    solve_linear(PLATEAU_SMALL, GAUSS_NEG, None, grid, quad)
    assert calls == [5]


# ---------------------------------------------------------------------------
# data terms on one orthant, mirrored
# ---------------------------------------------------------------------------

MIRROR_CASES = [(1, 0.03, 0.5), (2, 0.07, 0.5), (3, 0.12, 0.4)]


@pytest.mark.parametrize("dim,dx,horizon", MIRROR_CASES, ids=["1d", "2d", "3d"])
def test_data_fields_mirror_symmetric(dim, dx, horizon):
    grid = SpaceTimeGrid.covering(dim, horizon, 0.5, dx=dx, dt=dx / 2)
    field = solve_linear(GAUSS, PLATEAU_SMALL, None, grid, DATA_QUAD)
    # one fancy index mirrors every level; the field must still be in C order
    assert field.samples.flags.c_contiguous
    for axis in range(1, dim + 1):
        assert np.array_equal(field.samples, np.flip(field.samples, axis=axis))
    np.testing.assert_array_equal(
        field.samples[0], GAUSS.value(grid.spatial_points).reshape(grid.spatial_shape)
    )


@pytest.mark.parametrize("dim,dx,horizon", MIRROR_CASES, ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("angular", [6, 8, 10, 12, 16])
def test_data_fields_match_unmirrored(dim, dx, horizon, angular):
    # 6 and 10 give rules with the coordinate reflections but no x <-> y
    # swap; 8, 12 and 16 have the swap too
    quad = QuadratureSpec(angular_points=angular, polar_points=7)
    grid = SpaceTimeGrid.covering(dim, horizon, 0.8, dx=dx, dt=dx / 2)
    field = solve_linear(PLATEAU, GAUSS_NEG, None, grid, quad)
    peak = np.max(np.abs(field.samples))
    for n, t in enumerate(grid.times):
        # the whole box, one level at a time: no orthant, mirror or swap
        full = _data_terms(PLATEAU, GAUSS_NEG, grid.times[n : n + 1], grid.spatial_points, quad)
        np.testing.assert_allclose(
            field.samples[n], full.reshape(grid.spatial_shape), rtol=0, atol=1e-14 * peak
        )


def per_level_data_terms_1d(u0, u1, t, pts, quad):
    """One 1D time level evaluated on its own: d'Alembert from ``u0.value``, then the line term."""
    out = np.zeros(len(pts))
    live = np.flatnonzero(np.abs(pts[:, 0]) < data_reach(u0, u1, t))
    x = pts[live]
    if u0.kind != "zero":
        out[live] = u0.value(x) if t == 0.0 else 0.5 * (u0.value(x + t) + u0.value(x - t))
    if u1.kind != "zero" and t != 0.0:
        offs, w = _line_rule(t, u1, quad)
        chunk = max(1, linwave._CHUNK // len(offs))
        for lo in range(0, len(live), chunk):
            vals = u1.value(x[lo : lo + chunk, None, :] + offs[None, :, None])
            out[live[lo : lo + chunk]] += 0.5 * (vals @ w)
    return out


def per_level_data_fields(u0, u1, grid, quad, swap=None):
    """Data fields level by level on the rule's fundamental domain, mirrored.

    The domain is the nonnegative orthant; with ``swap``, by default in
    2D/3D when ``angular_points % 4 == 0``, only its nodes with x >= y,
    copied onto x < y by the x <-> y swap.  1D levels come from
    ``per_level_data_terms_1d``, 2D/3D levels from ``whole_array_data_terms``.
    """
    half = len(grid.axis) // 2
    orthant = np.meshgrid(*([grid.axis[half:]] * grid.dim), indexing="ij")
    pts = np.stack([m.ravel() for m in orthant], axis=-1)
    if swap is None:
        swap = grid.dim > 1 and quad.angular_points % 4 == 0
    lower = orthant[0] >= orthant[1] if swap else np.ones(orthant[0].shape, dtype=bool)
    mirror = np.ix_(*[np.abs(np.arange(len(grid.axis)) - half)] * grid.dim)
    out = np.zeros(grid.shape)
    for n, t in enumerate(grid.times.tolist()):
        level = np.zeros(lower.shape)
        if grid.dim == 1:
            level[lower] = per_level_data_terms_1d(u0, u1, t, pts, quad)
        else:
            level[lower] = whole_array_data_terms(u0, u1, grid.dim, t, pts[lower.ravel()], quad)
        if swap:
            level = np.where(lower, level, np.swapaxes(level, 0, 1))
        out[n] = level[mirror]
    return out


PLATEAU_NEG = InitialDatum("plateau_bump", outer_radius=0.5, inner_radius=0.1, amplitude=-0.7)
LEVEL_DATA = [
    (PLATEAU, ZERO_DATUM),
    (GAUSS_NEG, ZERO_DATUM),
    (PLATEAU_NEG, GAUSS),
    # u1 reaches past u0: the pairs live by u1 alone hold -0.0 from u0
    (GAUSS_NEG, PLATEAU_SMALL),
    (ZERO_DATUM, GAUSS_NEG),
]
LEVEL_IDS = ["plateau", "gauss_neg", "plateau_neg_u1", "gauss_neg_u1", "u1"]


@pytest.mark.parametrize("data", LEVEL_DATA, ids=LEVEL_IDS)
@pytest.mark.parametrize("chunk", [None, 300], ids=["whole", "split"])
def test_1d_data_fields_bit_identical_to_per_level_dalembert(monkeypatch, data, chunk):
    # every live (level, node) pair in one batch, or in batches of 300 pairs
    # that end mid-level: values and signs of zero are those of level by level
    if chunk is not None:
        monkeypatch.setattr(linwave, "_CHUNK", chunk)
    u0, u1 = data
    grid = SpaceTimeGrid.covering(1, 0.7, 0.8, dx=0.02, dt=0.01)
    half = len(grid.axis) // 2
    live = grid.axis[half:][None, :] < grid.times[:, None] + data_reach(u0, u1, 0.0)
    assert np.count_nonzero(live) > 5 * 300
    field = solve_linear(u0, u1, None, grid, DATA_QUAD)
    ref = per_level_data_fields(u0, u1, grid, DATA_QUAD)
    assert np.array_equal(field.samples, ref)
    assert np.array_equal(np.signbit(field.samples), np.signbit(ref))


@pytest.mark.parametrize("data", LEVEL_DATA, ids=LEVEL_IDS)
def test_1d_linear_value_bit_identical_to_per_level_dalembert(data):
    u0, u1 = data
    rng = np.random.default_rng(7)
    for t in (-0.45, -0.1, 0.0, 0.1, 0.3, 0.45, 1.2):
        reach = data_reach(u0, u1, t)
        scales = np.concatenate([rng.uniform(-1.3, 1.3, 30), [-1.0, 1.0 - 1e-12, 1.0, 1.0 + 1e-12]])
        pts = (reach * scales)[:, None]
        got = np.array([linear_value(u0, u1, t, x, DATA_QUAD) for x in pts])
        ref = np.concatenate([per_level_data_terms_1d(u0, u1, t, x[None], DATA_QUAD) for x in pts])
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("dim,dx,horizon", MIRROR_CASES[1:], ids=["2d", "3d"])
@pytest.mark.parametrize("data", LEVEL_DATA, ids=LEVEL_IDS)
def test_data_fields_bit_identical_to_per_level_kernel(dim, dx, horizon, data):
    # 2D/3D keep one kernel call per level: batching levels would change
    # which rows share each BLAS product, and with it the last bits
    u0, u1 = data
    grid = SpaceTimeGrid.covering(dim, horizon, 0.8, dx=dx, dt=dx / 2)
    field = solve_linear(u0, u1, None, grid, DATA_QUAD)
    ref = per_level_data_fields(u0, u1, grid, DATA_QUAD)
    assert np.array_equal(field.samples, ref)
    assert np.array_equal(np.signbit(field.samples), np.signbit(ref))


@pytest.mark.parametrize("dim,dx,horizon", MIRROR_CASES[1:], ids=["2d", "3d"])
@pytest.mark.parametrize("angular", [6, 8, 10, 12, 16])
def test_data_fields_on_swap_fundamental_domain(dim, dx, horizon, angular):
    # rules with angular_points % 4 == 0 are invariant under x <-> y: the
    # fields are exactly swap-symmetric and within rounding of the whole
    # orthant; the other rules keep the orthant, bit for bit
    quad = QuadratureSpec(angular_points=angular, polar_points=7)
    grid = SpaceTimeGrid.covering(dim, horizon, 0.8, dx=dx, dt=dx / 2)
    for u0, u1 in [(PLATEAU, GAUSS_NEG), (GAUSS_NEG, PLATEAU_SMALL)]:
        field = solve_linear(u0, u1, None, grid, quad).samples
        ref = per_level_data_fields(u0, u1, grid, quad, swap=False)
        if angular % 4 == 0:
            assert np.array_equal(field, np.swapaxes(field, 1, 2))
            assert np.array_equal(np.signbit(field), np.signbit(np.swapaxes(field, 1, 2)))
            peak = np.max(np.abs(ref))
            np.testing.assert_allclose(field, ref, rtol=0, atol=2e-15 * peak)
        else:
            assert np.array_equal(field, ref)
            assert np.array_equal(np.signbit(field), np.signbit(ref))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_linear_value_matches_reference_at_reach(dim):
    u0, u1 = GAUSS, PLATEAU_SMALL
    rng = np.random.default_rng(dim)
    for t in (0.3, -0.3, 0.0):
        reach = data_reach(u0, u1, t)
        dirs = rng.standard_normal((12, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        scales = np.concatenate(
            [rng.uniform(0.0, 1.0, 6), [1.0 - 1e-9, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 1e-9, 1.2, 2.0]]
        )
        pts = reach * scales[:, None] * dirs
        got = np.array([linear_value(u0, u1, t, x, DATA_QUAD) for x in pts])
        ref = reference_data_terms(u0, u1, dim, t, pts, DATA_QUAD)
        peak = max(np.max(np.abs(ref)), abs(linear_value(u0, u1, t, np.zeros(dim), DATA_QUAD)))
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14 * peak)
        outside = np.linalg.norm(pts, axis=1) >= reach
        assert outside.sum() >= 4 and np.all(got[outside] == 0.0)
    assert linear_value(ZERO_DATUM, ZERO_DATUM, 0.3, np.zeros(dim), DATA_QUAD) == 0.0
    assert linear_value(ZERO_DATUM, ZERO_DATUM, -0.3, np.zeros(dim), DATA_QUAD) == 0.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_time_reversal(dim):
    # the u0 part is even in t and the u1 part odd: the 1D line rule must
    # size its panels by |t|
    x = np.full(dim, 0.1)
    for t in (0.3, 0.6, 1.0):
        even = linear_value(GAUSS, ZERO_DATUM, t, x, DATA_QUAD)
        odd = linear_value(ZERO_DATUM, PLATEAU_SMALL, t, x, DATA_QUAD)
        back = linear_value(GAUSS, PLATEAU_SMALL, -t, x, DATA_QUAD)
        assert back == pytest.approx(even - odd, rel=0, abs=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize(
    "t, coordinate, name",
    [
        (math.nan, 0.1, "t"),
        (math.inf, 0.1, "t"),
        (-math.inf, 0.1, "t"),
        (0.3, math.nan, "x"),
        (0.3, -math.inf, "x"),
    ],
)
def test_linear_value_rejects_non_finite_input(dim, t, coordinate, name):
    # a NaN t or point used to give 0.0 or NaN, and an infinite t a bare
    # OverflowError; a negative t stays allowed (test_time_reversal)
    x = np.zeros(dim)
    x[-1] = coordinate
    with pytest.raises(ValidationError) as info:
        linear_value(GAUSS, PLATEAU_SMALL, t, x, DATA_QUAD)
    assert info.value.parameter == name


# ---------------------------------------------------------------------------
# Duhamel integral
# ---------------------------------------------------------------------------

def test_duhamel_zero_source():
    grid = SpaceTimeGrid.covering(1, 0.4, 0.2, dx=0.05, dt=0.025)
    field = solve_linear(ZERO_DATUM, ZERO_DATUM, constant_field(grid, 0.0), grid, QUAD)
    assert np.all(field.samples == 0.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_duhamel_constant_source(dim):
    # closed form: unit source integrates to t^2/2 while the integration
    # cone stays inside the sampled box
    grid = SpaceTimeGrid(dim=dim, horizon=0.5, support_radius=0.2,
                         spatial_extent=1.0, dx=0.1, dt=0.05)
    field = solve_linear(ZERO_DATUM, ZERO_DATUM, constant_field(grid, 1.0), grid, QUAD)
    level = 8
    t = float(grid.times[level])
    assert t == pytest.approx(0.4)
    half = len(grid.axis) // 2
    assert grid.axis[half] == 0.0
    assert field.samples[(level,) + (half,) * dim] == pytest.approx(t * t / 2.0, abs=1e-6)


def test_solve_linear_rejects_foreign_source_grid():
    grid = SpaceTimeGrid.covering(1, 0.4, 0.2, dx=0.05, dt=0.025)
    other = SpaceTimeGrid.covering(1, 0.4, 0.2, dx=0.1, dt=0.05)
    with pytest.raises(ValidationError, match="h"):
        solve_linear(ZERO_DATUM, ZERO_DATUM, constant_field(other, 1.0), grid, QUAD)


# ---------------------------------------------------------------------------
# Duhamel integral against an independent per-point reference
# ---------------------------------------------------------------------------

def _interp_slice(values, grid, pts):
    """Multilinear interpolant of one slice at pts (M, dim); zero-node padding."""
    pad = 2
    v = np.pad(values, pad)
    f = (pts + grid.spatial_extent) / grid.dx + pad
    i = np.floor(f).astype(int)
    w = f - i
    out = np.zeros(len(pts))
    for corner in itertools.product((0, 1), repeat=grid.dim):
        c = np.array(corner)
        idx = np.clip(i + c, 0, v.shape[0] - 1)
        out += np.prod(np.where(c == 1, w, 1.0 - w), axis=1) * v[tuple(idx.T)]
    return out


def _line_integral(values, grid, x, s):
    """Exact integral of the 1D piecewise-linear interpolant over [x-s, x+s]."""
    axis = np.concatenate([[grid.axis[0] - grid.dx], grid.axis, [grid.axis[-1] + grid.dx]])
    vals = np.concatenate([[0.0], values, [0.0]])
    knots = np.concatenate([[x - s], axis[(axis > x - s) & (axis < x + s)], [x + s]])
    y = np.interp(knots, axis, vals, left=0.0, right=0.0)
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(knots)))


def reference_duhamel(h, pts, t, quad):
    """Skip-free per-point Duhamel sum: gather, interpolate, trapezoid."""
    grid = h.grid
    out = np.zeros(len(pts))
    if t <= 0.0:
        return out
    k_count = max(1, math.ceil(t / (grid.dt / quad.time_points_per_dt) - 1e-9))
    ds = t / k_count
    for k in range(1, k_count + 1):
        s = k * ds
        g = (t - s) / grid.dt
        m = min(int(math.floor(g + 1e-9)), grid.n_time)
        beta = g - m
        if beta < 1e-9 or m >= grid.n_time:
            beta = 0.0
        level = h.samples[m]
        if beta > 0.0:
            level = (1 - beta) * level + beta * h.samples[m + 1]
        if grid.dim == 1:
            inner = np.array([0.5 * _line_integral(level, grid, x, s) for x in pts[:, 0]])
        else:
            dirs, wq = _mean_rule(grid.dim, quad)
            q = pts[:, None, :] - s * dirs[None]
            vals = _interp_slice(level, grid, q.reshape(-1, grid.dim)).reshape(len(pts), -1)
            inner = s * (vals @ wq)
        out += (0.5 if k == k_count else 1.0) * ds * inner
    return out


def edge_source(grid, radius=0.4):
    """Source nonzero up to its level radius, with a sharp cutoff there."""
    r = grid.node_radius
    expand = (slice(None),) + (None,) * grid.dim
    samples = np.where(r <= radius, 1.0 + 0.3 * np.cos(3.0 * r), 0.0)[None]
    return Field(grid, samples * (1.0 + grid.times)[expand])


@pytest.mark.parametrize("tp", [1, 2])
@pytest.mark.parametrize("dim,dx", [(1, 0.1), (2, 0.15), (3, 0.2), (1, 0.025)])
def test_duhamel_matches_reference(dim, dx, tp):
    # the sharp cutoff puts the source on its level radius, which the
    # interpolation stencil reaches sqrt(dim) cells past: a support test
    # that allows only one cell drops real contributions here
    quad = QuadratureSpec(angular_points=8, polar_points=6, time_points_per_dt=tp)
    grid = SpaceTimeGrid.covering(dim, 0.6, 0.4, dx=dx, dt=dx / 2)
    # 1D grids sum their lags by the FFT along time at every level count
    # (12 and 48 levels here); the 2D/3D grids have fewer levels than
    # TIME_FFT_LEVELS and sum level by level, whatever their sub-steps
    _, s_time, _ = linwave._stencil_spectra(grid, quad)
    assert (s_time is None) == (dim > 1)
    assert dim == 1 or grid.n_time < TIME_FFT_LEVELS
    h = edge_source(grid)
    field = solve_linear(ZERO_DATUM, ZERO_DATUM, h, grid, quad)
    pts = grid.spatial_points
    peak = np.max(np.abs(field.samples))
    for n in (1, grid.n_time // 2, grid.n_time):
        ref = reference_duhamel(h, pts, float(grid.times[n]), quad)
        np.testing.assert_allclose(field.samples[n].ravel(), ref, rtol=0, atol=1e-13 * peak)


def test_stencil_spectra_built_once_per_grid(monkeypatch):
    # every sweep of every entry, on every thread, reuses one build
    calls = []

    def counted(grid, quad, s):
        calls.append((grid, quad))
        return lag_weights(grid, quad, s)

    lag_weights = linwave._lag_weights
    monkeypatch.setattr(linwave, "_lag_weights", counted)
    linwave._cached_spectra.cache_clear()
    prob = Problem(dim=2, horizon=0.3, support_radius=0.3,
                   u0=InitialDatum("gaussian_bump", outer_radius=0.3, amplitude=1.0),
                   u1=ZERO_DATUM, f=NonlinearitySpec("sine"), small_exponent=1.0)
    grid = SpaceTimeGrid.covering(2, 0.3, 0.3, dx=0.1, dt=0.05)
    quad = QuadratureSpec(angular_points=8, polar_points=4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more threads than cores, switching often
    try:
        _, reports = solve_net(prob, make_ladder(0.5, 0.5, 4), grid, quad, threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert sum(r.iterations for r in reports) > 4
    assert calls == [(grid, quad)]
    other = QuadratureSpec(angular_points=8, polar_points=4, time_points_per_dt=2)
    solve_net(prob, make_ladder(0.5, 0.5, 3), grid, other)
    assert calls == [(grid, quad), (grid, other)]


@pytest.mark.parametrize("tp", [1, 4])
def test_stencil_spectra_read_only(tp):
    # in 2D, tp 1 keeps 24 levels (level loop), tp 4 has 48 (FFT along time)
    grid = SpaceTimeGrid.covering(2, 0.6, 0.4, dx=0.05, dt=0.025 if tp == 1 else 0.0125)
    quad = QuadratureSpec(angular_points=8, polar_points=6, time_points_per_dt=tp)
    s_hat, s_time, _ = linwave._stencil_spectra(grid, quad)
    assert (s_time is None) == (tp == 1)
    assert (s_time is None) == (grid.n_time < TIME_FFT_LEVELS)
    # the cache holds the one spectrum its lag sum reads
    arr = s_hat if s_time is None else s_time
    assert (s_hat is None) == (s_time is not None)
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0] = 0.0


def test_fft_length_is_smallest_5_smooth():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    for m in range(1, 4097):
        expect = next(k for k in itertools.count(m) if smooth(k))
        assert linwave._fft_length(m) == expect, m


def _stencils(grid, quad):
    tp = quad.time_points_per_dt
    return linwave._lag_weights(grid, quad, (grid.dt / tp) * np.arange(1, grid.n_time * tp + 1))


def _reach(stencils):
    """Largest per-axis node offset from the origin of any nonzero weight."""
    half = stencils.shape[1] // 2
    offsets = np.nonzero(np.any(stencils != 0.0, axis=0))
    return max(int(np.max(np.abs(ix - half))) for ix in offsets)


@pytest.mark.parametrize("dim,dx", [(1, 0.05), (2, 0.1), (3, 0.15)])
def test_spectra_length_covers_reach(dim, dx):
    grid = SpaceTimeGrid.covering(dim, 0.6, 0.4, dx=dx)
    n = len(grid.axis)
    reach = _reach(_stencils(grid, QUAD))
    s_hat, s_time, length = linwave._stencil_spectra(grid, QUAD)
    # 1D sums its lags by the FFT along time, which reads s_time alone
    spectra = s_time if dim == 1 else s_hat
    assert (s_hat is None) == (dim == 1)
    assert spectra.shape[1:] == (length,) * (dim - 1) + (length // 2 + 1,)
    assert length == linwave._fft_length(n + reach) < n + n // 2
    assert length >= n + reach and linwave._fft_length(length) == length


def source_levels(h, quad):
    """``linwave._source_levels`` added into zeroed levels 1..n_time."""
    out = np.zeros((h.grid.n_time,) + h.grid.spatial_shape)
    linwave._source_levels(h, quad, out)
    return out


def direct_duhamel(h, quad):
    """FFT-free Duhamel levels: the lag stencils correlated node by node."""
    grid = h.grid
    tp, d = quad.time_points_per_dt, grid.dim
    stencils = _stencils(grid, quad)
    j = np.arange(grid.n_time * tp)
    beta = ((j % tp) / tp)[(slice(None),) + (None,) * d]
    src = (1.0 - beta) * h.samples[j // tp] + beta * h.samples[j // tp + 1]
    windows = node_windows(src)
    space = tuple(range(-d, 0))
    out = np.zeros((grid.n_time,) + grid.spatial_shape)
    for level in range(1, grid.n_time + 1):
        p = level * tp
        for k in range(1, p + 1):
            w = 0.5 if k == p else 1.0
            out[level - 1] += w * np.sum(stencils[k - 1] * windows[p - k], axis=space)
    return (grid.dt / tp) * out


def node_windows(src):
    """Windows of slices (levels, n, ..., n): window i holds nodes i - n//2 .. i + n//2, zero-padded."""
    n, d = src.shape[1], src.ndim - 1
    padded = np.pad(src, [(0, 0)] + [(n // 2, n // 2)] * d)
    return np.lib.stride_tricks.sliding_window_view(padded, (n,) * d, axis=tuple(range(1, d + 1)))


@pytest.mark.parametrize("tp", [1, 2])
@pytest.mark.parametrize("dim,dx", [(1, 0.05), (2, 0.1), (3, 0.2)])
def test_duhamel_does_not_wrap_at_full_reach(dim, dx, tp):
    # the horizon equals the spatial extent, so the longest stencils reach
    # (nearly) the box edge, and the source is nonzero on every boundary
    # node: any wrap of the circular correlation shows
    grid = SpaceTimeGrid(dim=dim, horizon=0.6, support_radius=0.0, spatial_extent=0.6,
                         dx=dx, dt=dx / 2)
    quad = QuadratureSpec(angular_points=8, polar_points=6, time_points_per_dt=tp)
    n = len(grid.axis)
    assert _reach(_stencils(grid, quad)) >= n // 2 - 1
    rng = np.random.default_rng(dim * 10 + tp)
    h = Field(grid, 1.0 + rng.random(grid.shape))
    got = source_levels(h, quad)
    want = direct_duhamel(h, quad)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


@pytest.mark.parametrize("tp", [1, 2])
@pytest.mark.parametrize(
    "dim,dx,dt", [(1, 0.05, 0.025), (2, 0.1, 0.05), (2, 0.1, 0.015), (3, 0.2, 0.1)],
    ids=["1d", "2d", "2d_time_fft", "3d"],
)
def test_duhamel_level_zero_source_at_half_weight(dim, dx, dt, tp):
    # H[0] enters every level's trapezoid once, at weight ds/2, through its
    # halved spectrum; between levels 0 and 1 the source is linear in time,
    # so sub-level j < tp holds (1 - j/tp) * H[0] at full weight ds
    grid = SpaceTimeGrid.covering(dim, 0.6, 0.4, dx=dx, dt=dt)
    quad = QuadratureSpec(angular_points=8, polar_points=6, time_points_per_dt=tp)
    _, s_time, _ = linwave._stencil_spectra(grid, quad)
    assert (s_time is None) == (grid.n_time < TIME_FFT_LEVELS and dim > 1)
    samples = np.zeros(grid.shape)
    samples[0] = np.random.default_rng(dim * 10 + tp).standard_normal(grid.spatial_shape)
    stencils = _stencils(grid, quad)
    window = node_windows(samples[:1])[0]
    space = tuple(range(-dim, 0))
    want = np.zeros((grid.n_time,) + grid.spatial_shape)
    for level in range(1, grid.n_time + 1):
        p = level * tp
        for j in range(tp):
            w = 0.5 if j == 0 else 1.0 - j / tp
            want[level - 1] += w * np.sum(stencils[p - j - 1] * window, axis=space)
    want *= grid.dt / tp
    got = source_levels(Field(grid, samples), quad)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


def whole_box_spectra(grid, quad):
    """Stencil spectra by one ``rfftn`` of the stencils padded and rolled in every axis."""
    stencils = _stencils(grid, quad)
    n, d = len(grid.axis), grid.dim
    half, reach = n // 2, _reach(stencils)
    length = linwave._fft_length(n + reach)
    axes = tuple(range(1, d + 1))
    crop = (slice(None),) + (slice(half - reach, half + reach + 1),) * d
    padded = np.pad(stencils[crop], [(0, 0)] + [(0, length - 2 * reach - 1)] * d)
    s_hat = np.conj(np.fft.rfftn(np.roll(padded, -reach, axis=axes), axes=axes))
    s_time = None
    if d == 1 or grid.n_time >= TIME_FFT_LEVELS:
        lags = len(stencils)
        s_time = np.fft.fft(s_hat, n=linwave._fft_length(2 * lags - 1), axis=0)
    return s_hat, s_time, length


def whole_box_duhamel(h, quad):
    """Duhamel levels by whole-box transforms: the source interpolated to the
    sub-levels in space, one ``rfftn``, the lag sum, one ``irfftn``, cropped."""
    grid = h.grid
    tp, d, n = quad.time_points_per_dt, grid.dim, len(grid.axis)
    lags = grid.n_time * tp
    if tp == 1:
        src = h.samples[:-1]
    else:
        j = np.arange(lags)
        beta = ((j % tp) / tp)[(slice(None),) + (None,) * d]
        src = (1.0 - beta) * h.samples[j // tp] + beta * h.samples[j // tp + 1]
    s_hat, s_time, length = whole_box_spectra(grid, quad)
    shape, axes = (length,) * d, tuple(range(1, d + 1))
    h_hat = np.fft.rfftn(src, s=shape, axes=axes)
    h_hat[0] *= 0.5
    if s_time is None:
        acc = np.stack([
            np.einsum("k...,k...->...", s_hat[:p], h_hat[p - 1 :: -1])
            for p in range(tp, lags + 1, tp)
        ])
    else:
        conv = np.fft.ifft(s_time * np.fft.fft(h_hat, n=len(s_time), axis=0), axis=0)
        acc = conv[tp - 1 : lags : tp]
    out = np.fft.irfftn(acc, s=shape, axes=axes)
    return (grid.dt / tp) * out[(slice(None),) + (slice(0, n),) * d]


def assert_same_bits(got, want):
    for part in ((np.real, np.imag) if np.iscomplexobj(want) else (np.real,)):
        assert np.array_equal(part(got), part(want))
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


@pytest.mark.parametrize("tp", [1, 2, 3])
@pytest.mark.parametrize(
    "dim,dx,dt,time_fft",
    [(1, 0.05, 0.025, True), (2, 0.1, 0.05, False), (2, 0.1, 0.012, True), (3, 0.2, 0.1, False)],
    ids=["1d", "2d", "2d_time_fft", "3d"],
)
def test_pruned_transforms_match_whole_box(dim, dx, dt, time_fft, tp):
    # axis-by-axis transforms that skip the rows of padding are rfftn and
    # irfftn bit for bit; with sub-steps the blended level spectra move
    # results only by rounding (tp 3 weighs the two levels unequally)
    grid = SpaceTimeGrid.covering(dim, 0.6, 0.4, dx=dx, dt=dt)
    quad = QuadratureSpec(angular_points=8, polar_points=6, time_points_per_dt=tp)
    linwave._cached_spectra.cache_clear()
    got_spectra = linwave._stencil_spectra(grid, quad)
    want_spectra = whole_box_spectra(grid, quad)
    assert (got_spectra[1] is None) == (want_spectra[1] is None) == (not time_fft)
    assert (got_spectra[0] is None) == time_fft  # the time FFT path reads s_time alone
    assert got_spectra[2] == want_spectra[2]
    k = 1 if time_fft else 0
    assert_same_bits(got_spectra[k], want_spectra[k])
    h = Field(grid, np.random.default_rng(dim * 10 + tp).standard_normal(grid.shape))
    got = source_levels(h, quad)
    want = whole_box_duhamel(h, quad)
    if tp == 1:
        assert_same_bits(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# Duhamel properties on tiny grids
# ---------------------------------------------------------------------------

TINY_QUAD = {
    tp: QuadratureSpec(angular_points=8, polar_points=4, time_points_per_dt=tp) for tp in (1, 2)
}


def tiny_grid(dim):
    # 13 nodes per axis, 3 time steps
    return SpaceTimeGrid(dim=dim, horizon=0.3, support_radius=0.2, spatial_extent=0.6,
                         dx=0.1, dt=0.1)


def tiny_source(grid, seed):
    """Random source on the nodes with |y|_inf <= 0.2, four cells off the edge."""
    rng = np.random.default_rng(seed)
    inner = np.all(np.abs(np.stack(grid.meshes()[1:])) <= 0.2 + 1e-12, axis=0)
    return rng.standard_normal(grid.shape) * inner


def apply_source(grid, samples, tp):
    return solve_linear(ZERO_DATUM, ZERO_DATUM, Field(grid, samples), grid, TINY_QUAD[tp]).samples


DIMS = st.sampled_from([1, 2, 3])
TPS = st.sampled_from([1, 2])
SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=20)
@given(DIMS, TPS, SEEDS, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_duhamel_linearity(dim, tp, seed, a, b):
    grid = tiny_grid(dim)
    h1, h2 = tiny_source(grid, seed), tiny_source(grid, seed + 1)
    u1, u2 = apply_source(grid, h1, tp), apply_source(grid, h2, tp)
    combined = apply_source(grid, a * h1 + b * h2, tp)
    scale = abs(a) * np.max(np.abs(u1)) + abs(b) * np.max(np.abs(u2))
    np.testing.assert_allclose(combined, a * u1 + b * u2, rtol=0, atol=1e-13 * scale + 1e-300)


@settings(max_examples=20)
@given(DIMS, TPS, SEEDS, st.integers(0, 2))
def test_duhamel_causality(dim, tp, seed, m):
    grid = tiny_grid(dim)
    h = tiny_source(grid, seed)
    changed = h.copy()
    changed[m + 1 :] = tiny_source(grid, seed + 1)[m + 1 :]
    u, v = apply_source(grid, h, tp), apply_source(grid, changed, tp)
    np.testing.assert_allclose(v[: m + 1], u[: m + 1], rtol=0, atol=1e-14 * np.max(np.abs(h)))


@settings(max_examples=20)
@given(DIMS, TPS, SEEDS, st.integers(0, 2), st.sampled_from([-2, -1, 1, 2]))
def test_duhamel_translation_covariance(dim, tp, seed, axis, shift):
    axis = min(axis, dim - 1)
    grid = tiny_grid(dim)
    h = tiny_source(grid, seed)
    u = apply_source(grid, h, tp)
    moved = apply_source(grid, np.roll(h, shift, axis=1 + axis), tp)

    def window(lo, hi):
        sl = [slice(None)] * (dim + 1)
        sl[1 + axis] = slice(lo, hi)
        return tuple(sl)

    src, dst = (window(None, -shift), window(shift, None)) if shift > 0 else (
        window(-shift, None), window(None, shift))
    np.testing.assert_allclose(moved[dst], u[src], rtol=0, atol=1e-13 * np.max(np.abs(u)))


@settings(max_examples=20)
@given(DIMS, TPS, SEEDS, st.integers(0, 2))
def test_duhamel_reflection_symmetry(dim, tp, seed, axis):
    axis = min(axis, dim - 1)
    grid = tiny_grid(dim)
    h = tiny_source(grid, seed)
    u = apply_source(grid, h, tp)
    mirrored = apply_source(grid, np.flip(h, axis=1 + axis), tp)
    np.testing.assert_allclose(mirrored, np.flip(u, axis=1 + axis), rtol=0,
                               atol=1e-13 * np.max(np.abs(u)))


@settings(max_examples=20)
@given(DIMS, TPS, SEEDS)
def test_duhamel_cone_support(dim, tp, seed):
    # the multilinear interpolant of a node value reaches sqrt(dim) cells
    grid = tiny_grid(dim)
    h = tiny_source(grid, seed)
    u = apply_source(grid, h, tp)
    r_h = float(np.max(grid.node_radius[np.any(h != 0.0, axis=0)]))
    reach = math.sqrt(dim) * grid.dx
    expand = (slice(None),) + (None,) * dim
    outside = grid.node_radius[None] > (grid.times[expand] + r_h + reach + 1e-12)
    assert np.max(np.abs(u[outside])) <= 1e-14 * np.max(np.abs(h))


# ---------------------------------------------------------------------------
# support
# ---------------------------------------------------------------------------

def test_support_of_linear_solution():
    grid = SpaceTimeGrid.covering(1, 2.0, 1.0, dx=0.05, dt=0.025)
    bump = InitialDatum("gaussian_bump", outer_radius=1.0, amplitude=1.0)
    field = solve_linear(bump, ZERO_DATUM, None, grid, QUAD)
    report = check_support(field, 1.0, tol=1e-10)
    assert report.ok
    # the probe point (t, x) = (0.5, 2.0) sits outside the cone
    assert grid.node_radius.max() >= 2.0


def test_support_zero_and_constant_fields():
    grid = SpaceTimeGrid.covering(1, 0.4, 0.2, dx=0.05, dt=0.025)
    assert check_support(constant_field(grid, 0.0), 0.2).max_outside == 0.0
    report = check_support(constant_field(grid, 1.0), 0.2, tol=0.5)
    assert not report.ok and report.max_outside == 1.0
    assert check_support(constant_field(grid, 0.0), 0.2, tol=0.0).ok
    for tol in (-1e-8, math.nan):
        with pytest.raises(ValidationError, match="tol"):
            check_support(constant_field(grid, 0.0), 0.2, tol=tol)


# ---------------------------------------------------------------------------
# bounds of the data part against the data
# ---------------------------------------------------------------------------

def test_probe_plateau_velocity_3d():
    # Kirchhoff mean of a unit plateau is bounded by t * sup|u1|; with
    # T = 1 and the mean saturating at the origin mu_0 approaches 1
    u1 = InitialDatum("plateau_bump", outer_radius=1.3, inner_radius=1.0, amplitude=1.0)
    grid = SpaceTimeGrid.covering(3, 1.0, 1.3, dx=0.2, dt=0.1)
    field = solve_linear(ZERO_DATUM, u1, None, grid, QUAD)
    assert seminorm(field, 0) == pytest.approx(1.0, abs=0.05)


def test_probe_gaussian_position_1d():
    # mu_0 of the position solution stays within the order-1 sup of its datum
    grid = SpaceTimeGrid.covering(1, 1.0, 0.5, dx=0.02, dt=0.01)
    field = solve_linear(GAUSS, ZERO_DATUM, None, grid, QUAD)
    line = np.linspace(-GAUSS.outer_radius, GAUSS.outer_radius, 4001)[:, None]
    bound = max(np.max(np.abs(GAUSS.value(line))),
                np.max(np.abs(datum_gradient(GAUSS, line))))
    mu = seminorm(field, 0)
    assert 0.0 < mu <= 1.05 * bound


# ---------------------------------------------------------------------------
# quadrature stability and export
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 3])
def test_quadrature_doubling_stable(dim):
    # at the plateau-mean configuration the integrand is constant over the
    # disk/sphere, so doubling the rule must not move the result at all
    coarse = QuadratureSpec(angular_points=16, polar_points=12)
    fine = QuadratureSpec(angular_points=32, polar_points=24)
    for t in (0.25, 0.45):
        a = linear_value(ZERO_DATUM, PLATEAU, t, np.zeros(dim), coarse)
        b = linear_value(ZERO_DATUM, PLATEAU, t, np.zeros(dim), fine)
        assert abs(a - b) < 1e-8


@pytest.mark.parametrize("dim", [2, 3])
def test_quadrature_refinement_converges_off_center(dim):
    # off-center the integrand varies over the sphere; the bump profile is
    # smooth but not analytic, so demand steady refinement, not 1e-8
    x = np.full(dim, 0.2)
    vals = [
        linear_value(ZERO_DATUM, PLATEAU, 0.7, x, QuadratureSpec(2 * n, n))
        for n in (12, 24, 48)
    ]
    assert abs(vals[1] - vals[2]) < abs(vals[0] - vals[1]) / 4.0
    assert abs(vals[0] - vals[1]) < 1e-3


def test_field_binary_roundtrip(tmp_path):
    grid = SpaceTimeGrid.covering(2, 0.3, 0.2, dx=0.1, dt=0.05)
    field = solve_linear(GAUSS, ZERO_DATUM, None, grid, QUAD)
    path = tmp_path / "field.bin"
    field_to_binary(field, path)
    back = field_from_binary(path)
    assert back.grid == grid
    np.testing.assert_array_equal(back.samples, field.samples)


@pytest.mark.parametrize(
    "mangle",
    [lambda b: b[:30], lambda b: b[: 64 + 8 * 5 + 3], lambda b: b + bytes(8)],
    ids=["short_header", "short_payload", "trailing_bytes"],
)
def test_field_binary_wrong_length(tmp_path, mangle):
    grid = SpaceTimeGrid.covering(1, 0.3, 0.2, dx=0.1, dt=0.05)
    path = tmp_path / "field.bin"
    field_to_binary(constant_field(grid, 1.0), path)
    path.write_bytes(mangle(path.read_bytes()))
    with pytest.raises(ValidationError, match="path"):
        field_from_binary(path)


def test_field_csv_layout(tmp_path):
    grid = SpaceTimeGrid.covering(1, 0.3, 0.2, dx=0.1, dt=0.05)
    field = constant_field(grid, 1.25)
    path = tmp_path / "field.csv"
    field_to_csv(field, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x,value"
    assert len(lines) == 1 + field.samples.size
    assert lines[1].split(",")[2] == "1.25"


def reference_csv(field, path):
    """The row-by-row writer: one formatted row per node."""
    grid = field.grid
    names = ["t", "x", "y", "z"][: grid.dim + 1]
    with open(path, "w") as fh:
        fh.write(",".join(names + ["value"]) + "\n")
        flat = [m.ravel() for m in grid.meshes()] + [field.samples.ravel()]
        for row in zip(*flat):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


@pytest.mark.parametrize("dim,dx", [(1, 0.021), (2, 0.07), (3, 0.13)])
def test_field_csv_matches_row_writer(tmp_path, dim, dx):
    grid = SpaceTimeGrid.covering(dim, 0.3, 0.2, dx=dx, dt=dx / 3)
    rng = np.random.default_rng(dim)
    samples = rng.standard_normal(grid.shape) * 10.0 ** rng.integers(-300, 300, grid.shape)
    samples.flat[:3] = [0.0, -0.0, 1.0]
    field = Field(grid, samples)
    field_to_csv(field, tmp_path / "new.csv")
    reference_csv(field, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
