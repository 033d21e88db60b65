"""One Picard sweep in bounded memory, with the fields of the batched operator.

``_source_levels`` transforms the grid levels one at a time on the level
loop path and writes each level's sum into the sweep's output, and
``_map`` forms ``F(u)`` in the Duhamel output's buffer; the time-FFT
path releases each transform temporary once the next one exists.  Fields,
reports and signed zeros must stay those of the batched operator below,
which transforms every level at once and returns the levels for the caller
to add, a 3D sweep must hold only a few fields at a time, and a time-FFT
apply fewer than two time spectra.
"""

import tracemalloc

import numpy as np
import pytest

from colwave import linwave
from colwave.linwave import TIME_FFT_LEVELS, QuadratureSpec, solve_linear
from colwave.nets import ZERO_DATUM, make_ladder
from colwave.seminorms import Field, SpaceTimeGrid
from colwave.semilinear import picard_solve, solve_net
from colwave.suite import PRESETS, _bump_problem
from helpers import cone_mask


def batched_source_levels(h, quad):
    """Duhamel term of ``h`` at grid levels 1..n_time, every level transformed at once."""
    grid = h.grid
    tp = quad.time_points_per_dt
    d, n = grid.dim, len(grid.axis)
    lags = grid.n_time * tp
    ds = grid.dt / tp
    axes = tuple(range(1, d + 1))
    s_hat, s_time, length = linwave._stencil_spectra(grid, quad)
    shape = (length,) * d
    if tp == 1:
        h_hat = np.fft.rfftn(h.samples[:-1], s=shape, axes=axes)
    else:
        levels = np.fft.rfftn(h.samples, s=shape, axes=axes)
        h_hat = np.empty((lags,) + levels.shape[1:], dtype=complex)
        h_hat[::tp] = levels[:-1]
        for j in range(1, tp):
            h_hat[j::tp] = (1.0 - j / tp) * levels[:-1] + (j / tp) * levels[1:]
    h_hat[0] *= 0.5
    if s_time is None:
        acc = np.empty((grid.n_time,) + s_hat.shape[1:], dtype=complex)
        for level in range(1, grid.n_time + 1):
            p = level * tp
            acc[level - 1] = np.einsum("k...,k...->...", s_hat[:p], h_hat[p - 1 :: -1])
    else:
        conv = np.fft.ifft(s_time * np.fft.fft(h_hat, n=len(s_time), axis=0), axis=0)
        acc = conv[tp - 1 : lags : tp]
    for axis in axes[:-1]:
        acc = np.fft.ifft(acc, axis=axis)[(slice(None),) * axis + (slice(0, n),)]
    return ds * np.fft.irfft(acc, n=length, axis=d)[..., :n]


@pytest.fixture
def batched(monkeypatch):
    """Make ``solve_linear`` add the batched operator's levels instead."""
    def add_batched(h, quad, out):
        out += batched_source_levels(h, quad)

    def use():
        monkeypatch.setattr(linwave, "_source_levels", add_batched)
    return use


def bump(dim, dx, dt, tp):
    """A bump problem on its covering grid of spacings ``dx``, ``dt``, ``tp`` sub-steps per dt."""
    problem = _bump_problem(dim, radius=0.4, horizon=0.4 if dim == 3 else 0.6)
    grid = SpaceTimeGrid.covering(dim, problem.horizon, problem.support_radius, dx=dx, dt=dt)
    return problem, grid, QuadratureSpec(angular_points=12, polar_points=8, time_points_per_dt=tp)


# (problem, grid, quad): the TIME_FFT_CASES sum their lags by the FFT along
# time (1D always, 2D/3D from TIME_FFT_LEVELS levels on), the others go level
# by level.  The time spectrum of the 1d_b1 preset grid (101x155, 341 KiB)
# is large enough for numpy to form its product with the stencils in the
# FFT's output buffer, those of 1d and 1d_tp2 are not.
CASES = {
    "1d": bump(1, 0.05, 0.025, 1),
    "1d_tp2": bump(1, 0.05, 0.025, 2),
    "1d_b1": (PRESETS["1d_b1"].problem, PRESETS["1d_b1"].grid, PRESETS["1d_b1"].quad),
    "2d_tp2": bump(2, 0.1, 0.05, 2),
    "2d_time_fft": bump(2, 0.1, 0.012, 1),
    "3d": bump(3, 0.12, 0.06, 1),
    "3d_time_fft": bump(3, 0.12, 0.01, 1),
}
TIME_FFT_CASES = ("1d", "1d_tp2", "1d_b1", "2d_time_fft", "3d_time_fft")


def case(name):
    problem, grid, quad = CASES[name]
    _, s_time, _ = linwave._stencil_spectra(grid, quad)
    assert (s_time is not None) == (grid.dim == 1 or grid.n_time >= TIME_FFT_LEVELS)
    assert (s_time is not None) == (name in TIME_FFT_CASES)
    return problem, grid, quad


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("name", CASES)
def test_sourced_solve_bit_identical_to_batched_levels(batched, name):
    problem, grid, quad = case(name)
    rng = np.random.default_rng(len(name))
    cone = cone_mask(grid, 0)
    # a source that is exactly zero off the cone and -0.0 on part of it, and
    # a negative subnormal one, whose Duhamel term is -0.0 at many nodes:
    # added to the zeroed field it must give 0.0 there
    samples = rng.standard_normal(grid.shape) * cone
    samples[np.abs(samples) < 0.1] = -0.0
    tiny = -1e-320 * np.abs(rng.standard_normal(grid.shape)) * cone
    levels = batched_source_levels(Field(grid, tiny), quad)
    assert np.any((levels == 0.0) & np.signbit(levels))
    data = (problem.u0, problem.u1), (ZERO_DATUM, ZERO_DATUM)
    cases = [(Field(grid, s), u0, u1) for s in (samples, tiny) for u0, u1 in data]
    got = [solve_linear(u0, u1, h, grid, quad).samples for h, u0, u1 in cases]
    batched()
    for field, (h, u0, u1) in zip(got, cases):
        assert_same_bits(field, solve_linear(u0, u1, h, grid, quad).samples)


@pytest.mark.parametrize("name", CASES)
def test_picard_and_net_bit_identical_to_batched_levels(batched, name):
    problem, grid, quad = case(name)
    ladder = make_ladder(0.5, 0.5, 3)
    got = picard_solve(problem, 0.5, grid, quad), solve_net(problem, ladder, grid, quad)
    batched()
    want = picard_solve(problem, 0.5, grid, quad), solve_net(problem, ladder, grid, quad)
    assert got[0][1].converged and got[0][1].iterations > 1
    assert_same_bits(got[0][0].samples, want[0][0].samples)
    assert got[0][1] == want[0][1]
    (net, reports), (want_net, want_reports) = got[1], want[1]
    for field, want_field in zip(net.fields, want_net.fields):
        assert_same_bits(field.samples, want_field.samples)
    assert reports == want_reports


def test_3d_sweep_holds_at_most_seven_fields():
    # the iterate, the linear part, the source, the sweep's output and the
    # source spectrum (about two fields here); the batched operator held
    # 9.4 field sizes at its peak
    problem, grid, quad = case("3d")
    assert grid.shape == (8, 19, 19, 19)
    linear = solve_linear(problem.u0, problem.u1, None, grid, quad)
    linwave._stencil_spectra(grid, quad)
    tracemalloc.start()
    try:
        _, report = picard_solve(problem, 0.25, grid, quad, linear_part=linear)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.converged and report.iterations > 1
    assert peak <= 7 * linear.samples.nbytes


@pytest.mark.parametrize("name, shape, bound", [
    ("1d_b1", (101, 155), 1.6),
    ("2d_time_fft", (51, 25, 25), 1.6),
    ("3d_time_fft", (41, 19, 19, 19), 1.6),
])
def test_time_fft_apply_holds_under_two_time_spectra(name, shape, bound):
    # the time FFT of the source spectrum and, while it forms, the source
    # spectrum itself (half a time spectrum); later the inverse's first
    # transform instead; in 2D/3D the time FFT is freed before the later
    # transforms run.  A separate array for each step would hold 2.5 time
    # spectra.
    _, grid, quad = case(name)
    assert grid.shape == shape
    _, s_time, _ = linwave._stencil_spectra(grid, quad)
    h = Field(grid, np.random.default_rng(0).standard_normal(grid.shape))
    out = np.zeros(grid.shape)
    tracemalloc.start()
    try:
        linwave._source_levels(h, quad, out[1:])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(out)) and np.any(out != 0.0)
    assert peak <= bound * s_time.nbytes
