"""Streamed net differences against whole-net references.

``ultra_metric`` and the checks of ``verify`` form each ladder entry's
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
import colwave.verify as verify
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
from colwave.semilinear import apply_fixed_point_map, solve_net
from colwave.verify import (
    ContractionReport,
    UniquenessReport,
    check_contraction,
    check_uniqueness_surrogate,
)
from helpers import shift_u0

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
    """(problem, quad, solved net on LADDER, its linear part) per dimension."""
    problem, spacing, quad = SETUPS[request.param]
    grid = SpaceTimeGrid.covering(problem.dim, problem.horizon, problem.support_radius,
                                  **spacing)
    linear = solve_linear(problem.u0, problem.u1, None, grid, quad)
    net, _ = solve_net(problem, LADDER, grid, quad, linear_part=linear)
    return problem, quad, net, linear


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


def reference_contraction(problem, net_u, u_lin, quad):
    """``check_contraction`` with V, F(U), F(V) and both differences held whole."""
    b = problem.small_exponent
    ladder, grid = net_u.ladder, u_lin.grid
    pert = verify.CONTRACTION_PERTURBATION * np.broadcast_to(
        verify._bump_pattern(problem, grid), grid.shape
    )
    net_v = Net(ladder, tuple(Field(grid, f.samples + pert) for f in net_u.fields))

    def mapped(net):
        return Net(ladder, tuple(
            apply_fixed_point_map(problem, float(eps), f, grid, quad, u_lin)
            for eps, f in zip(ladder.values, net.fields)
        ))

    before = whole_fits(net_u - net_v)
    after = whole_fits(mapped(net_u) - mapped(net_v))
    gaps = {
        n: math.inf if math.isinf(a.slope) else a.slope - c.slope
        for n, (c, a) in enumerate(zip(before, after))
    }
    d_before, d_after = seminorms._metric(before), seminorms._metric(after)
    ratio = d_after / d_before if d_before > 0.0 else 0.0
    ok = all(g >= b - verify.RATE_MARGIN for g in gaps.values()) and ratio <= math.exp(
        -(b - verify.RATE_MARGIN)
    ) + 1e-12
    return ContractionReport(gaps, math.exp(-b), ratio, ok)


def reference_uniqueness(net_a, net_b, tol=verify.DEFAULT_TOL):
    """``check_uniqueness_surrogate``'s verdict from the whole difference net."""
    diff = net_a - net_b
    table = whole_table(diff, MAX_SEMINORM_ORDER)
    mu_max = dict(enumerate(table.max(axis=0).tolist()))
    try:
        cls = seminorms._class_of(whole_fits(diff, table=table))
    except InsufficientDataError:
        cls = None
    if cls is NetClass.NEGLIGIBLE_AT_TESTED_ORDER:
        return UniquenessReport(cls, mu_max, True, "difference negligible at tested orders")
    if all(v <= 10.0 * tol for v in mu_max.values()):
        return UniquenessReport(cls, mu_max, True, "all seminorms below 10*tol")
    return UniquenessReport(cls, mu_max, False, "difference not negligible")


def error_of(fn, *args):
    """(type, parameter, message) of the ValidationError ``fn(*args)`` raises."""
    with pytest.raises(ValidationError) as info:
        fn(*args)
    return type(info.value), info.value.parameter, str(info.value)


# ---------------------------------------------------------------------------
# bit for bit against the references
# ---------------------------------------------------------------------------

def test_ultra_metric_matches_whole_difference(solved):
    _, _, net, linear = solved
    lin_net = Net(LADDER, (linear,) * len(LADDER))
    for a, b in ((net, lin_net), (lin_net, net), (net, net)):
        for n_terms in range(1, MAX_SEMINORM_ORDER + 2):
            streamed = ultra_metric(a, b, n_terms)
            assert type(streamed) is float
            assert streamed == reference_ultra_metric(a, b, n_terms)


def test_contraction_matches_whole_nets(solved):
    problem, quad, net, linear = solved
    rep = check_contraction(problem, net, linear, quad)
    assert rep == reference_contraction(problem, net, linear, quad)
    assert rep.ok


@pytest.mark.parametrize("data_perturbation", [0.0, 0.5])
def test_uniqueness_matches_whole_difference(solved, monkeypatch, data_perturbation):
    problem, quad, net, linear = solved
    seeded = []

    def recording_solve_net(*args, **kwargs):
        result = solve_net(*args, **kwargs)
        seeded.append(result[0])
        return result

    monkeypatch.setattr(verify, "solve_net", recording_solve_net)
    # the linear part of the unperturbed data serves only the unperturbed problem
    rep = check_uniqueness_surrogate(shift_u0(problem, data_perturbation), net, quad,
                                     linear_part=linear if data_perturbation == 0.0 else None)
    (net_b,) = seeded
    assert rep == reference_uniqueness(net, net_b)
    assert rep.ok is (data_perturbation == 0.0)


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
    problem, quad, net, linear = solved
    other_ladder = Net(make_ladder(0.5, 0.25, 8), net.fields)
    other_grid = shifted_grid(net.grid)
    moved = Net(LADDER, tuple(Field(other_grid, f.samples) for f in net.fields))
    for a, b in ((net, other_ladder), (other_ladder, net), (net, moved)):
        assert error_of(ultra_metric, a, b, 3) == error_of(reference_ultra_metric, a, b, 3)
    moved_linear = Field(other_grid, linear.samples)
    args = (problem, net, moved_linear, quad)
    streamed = error_of(check_contraction, *args)
    assert streamed == error_of(reference_contraction, *args)
    assert streamed[1] == "net"


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
        ladder = make_ladder(0.5, 0.5, count)
        net_u = Net(ladder, tuple(linear + Field(grid, e * pattern) for e in ladder))
        net_v = Net(ladder, tuple(Field(grid, e**3 * pattern) for e in ladder))
        check_contraction(problem, net_u, linear, quad)  # fills the operator caches
        peaks[count] = (
            traced_peak(ultra_metric, net_u, net_v, 3),
            traced_peak(check_contraction, problem, net_u, linear, quad),
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
