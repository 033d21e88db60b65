"""Streamed net differences against whole-net references.

``ultra_metric`` and the net checks of ``suite`` form each ladder entry's
difference as the seminorm table reads it.  The references here hold
every net whole, as the measures did before they streamed; results must
agree bit for bit, errors must read the same, and peak memory must not
grow with the ladder length.
"""

import math
import tracemalloc

import numpy as np
import pytest

import colwave.seminorms as seminorms
import colwave.suite as suite
from colwave.errors import InsufficientDataError, ValidationError
from colwave.linwave import QuadratureSpec, solve_linear
from colwave.nets import InitialDatum, NonlinearitySpec, Problem, make_ladder
from colwave.seminorms import (
    MAX_SEMINORM_ORDER,
    Field,
    Net,
    NetClass,
    SpaceTimeGrid,
    fit_decay_exponent,
    ultra_metric,
)
from colwave.semilinear import SolveReport, apply_fixed_point_map
from colwave.suite import CheckResult, ExperimentConfig, Solved, fmt
from helpers import checked_as_shifted, recorded_seeded_nets

LADDER = make_ladder(0.5, 0.5, 8)


def bump_problem(dim, radius, horizon):
    return Problem(
        dim=dim, horizon=horizon, support_radius=radius,
        u0=InitialDatum("gaussian_bump", outer_radius=radius, amplitude=1.0),
        u1=InitialDatum("zero"), f=NonlinearitySpec("sine"), small_exponent=1.0,
    )


#: dim -> (problem, grid, quad); the 3D grid is 8x19^3.
SETUPS = {
    1: (bump_problem(1, 0.5, 1.0), dict(dx=0.04, dt=0.02),
        QuadratureSpec(angular_points=8, polar_points=10)),
    3: (bump_problem(3, 0.4, 0.4), dict(dx=0.12),
        QuadratureSpec(angular_points=12, polar_points=8)),
}


@pytest.fixture(scope="module", params=[1, 3], ids=["1d", "3d"])
def solved(request):
    """The net of each dimension's problem on LADDER, as ``suite.solve`` gives it."""
    problem, spacing, quad = SETUPS[request.param]
    grid = SpaceTimeGrid.covering(problem.dim, problem.horizon, problem.support_radius,
                                  **spacing)
    return suite.solve(ExperimentConfig(problem, LADDER, grid, quad))


def grid_3d():
    problem, spacing, _ = SETUPS[3]
    grid = SpaceTimeGrid.covering(3, problem.horizon, problem.support_radius, **spacing)
    assert grid.shape == (8, 19, 19, 19)
    return grid


# ---------------------------------------------------------------------------
# whole-net references
# ---------------------------------------------------------------------------

def whole_table(net, n):
    """(J, n + 1) seminorm table of a whole net, one derivative stack per field."""
    return np.array([seminorms._seminorm_orders(f, n) for f in net.fields])


def whole_fits(net, n=MAX_SEMINORM_ORDER, table=None):
    table = whole_table(net, n) if table is None else table
    return [fit_decay_exponent(net.ladder.values, table[:, k]) for k in range(n + 1)]


def reference_ultra_metric(net_u, net_v, n_terms):
    return seminorms._metric(whole_fits(net_u - net_v, n_terms - 1))


def reference_contraction(cfg, solved):
    """``suite._contraction`` with V, F(U), F(V) and both differences held whole."""
    b = cfg.problem.small_exponent
    net_u, u_lin, grid = solved.net, solved.linear, cfg.grid
    pert = suite.CONTRACTION_PERTURBATION * np.broadcast_to(
        suite._bump_pattern(cfg.problem, grid), grid.shape
    )
    net_v = Net(cfg.ladder, tuple(Field(grid, f.samples + pert) for f in net_u.fields))

    def mapped(net):
        return Net(cfg.ladder, tuple(
            apply_fixed_point_map(cfg.problem, float(eps), f, grid, cfg.quad, u_lin)
            for eps, f in zip(cfg.ladder.values, net.fields)
        ))

    before = whole_fits(net_u - net_v)
    after = whole_fits(mapped(net_u) - mapped(net_v))
    gaps = [math.inf if math.isinf(a.slope) else a.slope - c.slope for c, a in zip(before, after)]
    d_before, d_after = seminorms._metric(before), seminorms._metric(after)
    ratio = d_after / d_before if d_before > 0.0 else 0.0
    bound = math.exp(-(b - suite.RATE_MARGIN)) + 1e-12
    ok = all(g >= b - suite.RATE_MARGIN for g in gaps) and ratio <= bound
    return CheckResult(
        "contraction", ok,
        f"contraction ok={ok} min_gap={fmt(min(gaps))} metric_ratio={fmt(ratio)} "
        f"kappa_bound={fmt(bound)}",
        "order,slope_gap", list(enumerate(gaps)),
    )


def reference_uniqueness(cfg, net_a, net_b):
    """``suite._uniqueness``'s result from the whole difference of ``net_a`` and seeded ``net_b``."""
    diff = net_a - net_b
    table = whole_table(diff, MAX_SEMINORM_ORDER)
    mu_max = table.max(axis=0).tolist()
    try:
        cls = seminorms._class_of(whole_fits(diff, table=table)).value
    except InsufficientDataError:
        cls = "n/a"
    if cls == NetClass.NEGLIGIBLE_AT_TESTED_ORDER.value:
        ok, reason = True, "difference negligible at tested orders"
    elif all(v <= 10.0 * cfg.tol for v in mu_max):
        ok, reason = True, "all seminorms below 10*tol"
    else:
        ok, reason = False, "difference not negligible"
    return CheckResult("uniqueness", ok, f"uniqueness ok={ok} class={cls} ({reason})",
                       "order,mu_max", list(enumerate(mu_max)))


def error_of(fn, *args):
    """(type, parameter, message) of the ValidationError ``fn(*args)`` raises."""
    with pytest.raises(ValidationError) as info:
        fn(*args)
    return type(info.value), info.value.parameter, str(info.value)


# ---------------------------------------------------------------------------
# bit for bit against the references
# ---------------------------------------------------------------------------

def test_ultra_metric_matches_whole_difference(solved):
    net, linear = solved.net, solved.linear
    lin_net = Net(LADDER, (linear,) * len(LADDER))
    for a, b in ((net, lin_net), (lin_net, net), (net, net)):
        for n_terms in range(1, MAX_SEMINORM_ORDER + 2):
            streamed = ultra_metric(a, b, n_terms)
            assert type(streamed) is float
            assert streamed == reference_ultra_metric(a, b, n_terms)


def test_contraction_matches_whole_nets(solved):
    result = suite._contraction(solved.config, solved, 1)
    assert result == reference_contraction(solved.config, solved)
    assert result.ok


@pytest.mark.parametrize("data_perturbation", [0.0, 0.5])
def test_uniqueness_matches_whole_difference(solved, monkeypatch, data_perturbation):
    solved = checked_as_shifted(solved, data_perturbation)
    seeded = recorded_seeded_nets(monkeypatch)
    result = suite._uniqueness(solved.config, solved, 1)
    (net_b,) = seeded
    assert result == reference_uniqueness(solved.config, solved.net, net_b)
    assert result.ok is (data_perturbation == 0.0)


# ---------------------------------------------------------------------------
# the same errors
# ---------------------------------------------------------------------------

def shifted_grid(grid):
    """A grid of the same shape that is not ``grid``: the support radius differs."""
    other = SpaceTimeGrid(grid.dim, grid.horizon, grid.support_radius / 2,
                          grid.spatial_extent, grid.dx, grid.dt)
    assert other.shape == grid.shape and other != grid
    return other


def test_mismatched_nets_raise_the_whole_net_errors(solved):
    net = solved.net
    other_ladder = Net(make_ladder(0.5, 0.25, 8), net.fields)
    other_grid = shifted_grid(net.grid)
    moved = Net(LADDER, tuple(Field(other_grid, f.samples) for f in net.fields))
    for a, b in ((net, other_ladder), (other_ladder, net), (net, moved)):
        assert error_of(ultra_metric, a, b, 3) == error_of(reference_ultra_metric, a, b, 3)


def test_overflowing_difference_raises_the_whole_net_error():
    # the difference of entry 5 overflows: every entry before it is measured
    # first when streamed, and the error is still the whole-net one
    grid = grid_3d()
    big = np.full(grid.shape, 1.5e308)
    net_u = Net(LADDER, tuple(Field(grid, big if j == 5 else e * grid.meshes()[1])
                              for j, e in enumerate(LADDER)))
    net_v = Net(LADDER, tuple(Field(grid, -f.samples) for f in net_u.fields))
    with np.errstate(over="ignore"):
        expected = error_of(reference_ultra_metric, net_u, net_v, 3)
        assert expected[1] == "samples"
        assert error_of(ultra_metric, net_u, net_v, 3) == expected


# ---------------------------------------------------------------------------
# memory: one difference at a time, whatever the ladder length
# ---------------------------------------------------------------------------

def traced_peak(fn, *args):
    """Peak traced bytes of ``fn(*args)`` above what was allocated before it."""
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_difference_measures_do_not_grow_with_the_ladder():
    # threshold fixed before the first run: doubling the ladder from 4 to
    # 8 entries may add less than one field's bytes to the peak
    problem, _, quad = SETUPS[3]
    grid = grid_3d()
    linear = solve_linear(problem.u0, problem.u1, None, grid, quad)
    T, X, Y, Z = grid.meshes()
    pattern = np.cos(2.0 * X) * np.exp(Y) * (1.0 + T * Z)
    field_bytes = linear.samples.nbytes
    grid.cone_nodes  # built once per grid, before any measurement
    peaks = {}
    for count in (4, 8):
        cfg = ExperimentConfig(problem, make_ladder(0.5, 0.5, count), grid, quad)
        net_u = Net(cfg.ladder, tuple(linear + Field(grid, e * pattern) for e in cfg.ladder))
        net_v = Net(cfg.ladder, tuple(Field(grid, e**3 * pattern) for e in cfg.ladder))
        # a planted net, each entry reported converged so that contraction measures it
        reports = [SolveReport(float(e), 1, [0.0], True, 0.0) for e in cfg.ladder]
        solved = Solved(cfg, net_u, reports, linear)
        suite._contraction(cfg, solved, 1)  # fills the operator caches
        peaks[count] = (
            traced_peak(ultra_metric, net_u, net_v, 3),
            traced_peak(suite._contraction, cfg, solved, 1),
        )
    for short, long in zip(peaks[4], peaks[8]):
        assert long - short < field_bytes


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cone_interiors_share_the_flat_indices(dim):
    # a covering grid keeps the inflated cone off every spatial face, so
    # each spatial axis's interior is the flat index array itself; time
    # leads the C order, so its first, interior and last nodes are a
    # prefix, a middle and a suffix of it, views rather than copies
    grid = SpaceTimeGrid.covering(dim, 0.4, 0.3, dx=0.1)
    cone = grid.cone_nodes
    for stride, inner, first, last in cone.axes[1:]:
        assert len(first) == len(last) == 0
        assert inner is cone.flat
    _, inner, first, last = cone.axes[0]
    assert len(first) and len(last) and len(inner)
    assert all(np.shares_memory(x, cone.flat) for x in (first, inner, last))
    assert np.array_equal(np.concatenate([first, inner, last]), cone.flat)
    # the one-sided patches cover a part of the faces, not all of them
    patched = sum(len(x) for face in cone.faces for x in face)
    assert 0 < patched < sum(2 * math.prod(grid.shape) // n for n in grid.shape)
