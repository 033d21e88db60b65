import math

import numpy as np
import pytest

from colwave.errors import DivergenceError, ValidationError
from colwave import linwave
from colwave.linwave import QuadratureSpec, check_support, field_from_binary, solve_linear
from colwave.nets import InitialDatum, NonlinearitySpec, Problem, make_ladder
from colwave.seminorms import (
    Field,
    NetClass,
    SpaceTimeGrid,
    classify,
    sampled_field,
    seminorm,
    valuation,
)
from colwave.semilinear import (
    apply_fixed_point_map,
    picard_solve,
    reports_to_csv,
    residual,
    residual_mask,
    residual_sup,
    solve_net,
)
from colwave.suite import RESIDUAL_C, _residual_problem
from colwave.verify import check_uniqueness_surrogate, cubic_oracle_problem, m1_membership

QUAD = QuadratureSpec(angular_points=8, polar_points=10)
LADDER = make_ladder(0.5, 0.5, 8)


def bump_problem(b=1.0, f_kind="sine"):
    return Problem(
        dim=1,
        horizon=1.0,
        support_radius=0.5,
        u0=InitialDatum("gaussian_bump", outer_radius=0.5, amplitude=1.0),
        u1=InitialDatum("zero"),
        f=NonlinearitySpec(f_kind),
        small_exponent=b,
    )


def grid_for(problem, dx=0.02):
    return SpaceTimeGrid.covering(problem.dim, problem.horizon, problem.support_radius,
                                  dx=dx, dt=dx / 2)


# ---------------------------------------------------------------------------
# picard iteration
# ---------------------------------------------------------------------------

def test_zero_nonlinearity_returns_linear_part():
    prob = bump_problem(f_kind="zero")
    grid = grid_for(prob, dx=0.05)
    field, report = picard_solve(prob, 0.5, grid, QUAD)
    linear = solve_linear(prob.u0, prob.u1, None, grid, QUAD)
    assert report.converged
    assert report.iterations == 1
    assert report.increment_history == [0.0]
    np.testing.assert_array_equal(field.samples, linear.samples)


def test_initial_conditions_exact_after_iteration():
    prob = bump_problem()
    grid = grid_for(prob, dx=0.05)
    field, report = picard_solve(prob, 0.25, grid, QUAD)
    assert report.converged
    np.testing.assert_array_equal(
        field.samples[0], prob.u0.value(grid.spatial_points).reshape(grid.spatial_shape)
    )


def test_cubic_oracle_single_eps():
    eps = 0.1
    prob = cubic_oracle_problem(1, eps, 1.0, 0.5, 0.65)
    grid = SpaceTimeGrid.covering(1, 1.0, 0.65, dx=0.02, dt=0.01)
    field, report = picard_solve(prob, eps, grid, QUAD)
    assert report.converged
    radius = grid.node_radius[None]
    times = grid.times[:, None]
    region = radius + times <= 0.5 + 1e-12
    exact = 1.0 / (1.0 - eps * times) * np.ones(grid.shape)
    assert float(np.max(np.abs((field.samples - exact))[region])) <= 1e-4


def test_fixed_point_property_of_converged_solution():
    prob = bump_problem()
    grid = grid_for(prob, dx=0.04)
    tol = 1e-10
    field, report = picard_solve(prob, 0.25, grid, QUAD, tol=tol)
    assert report.converged
    mapped = apply_fixed_point_map(prob, 0.25, field, grid, QUAD)
    gap = float(np.max(np.abs((mapped.samples - field.samples)[grid.cone_mask(1)])))
    assert gap <= tol


def test_converged_solution_supported_in_cone():
    prob = bump_problem()
    grid = grid_for(prob, dx=0.04)
    field, report = picard_solve(prob, 0.25, grid, QUAD)
    assert report.converged
    assert check_support(field, prob.support_radius, tol=1e-8).ok


def test_validation_errors():
    prob = bump_problem()
    grid = grid_for(prob, dx=0.05)
    with pytest.raises(Exception, match="eps"):
        picard_solve(prob, 1.5, grid, QUAD)
    with pytest.raises(Exception, match="max_iter"):
        picard_solve(prob, 0.5, grid, QUAD, max_iter=0)


def small_3d_problem(f=NonlinearitySpec("sine")):
    prob = Problem(
        dim=3, horizon=0.3, support_radius=0.3,
        u0=InitialDatum("gaussian_bump", outer_radius=0.3, amplitude=1.0),
        u1=InitialDatum("zero"), f=f, small_exponent=1.0,
    )
    grid = SpaceTimeGrid.covering(3, 0.3, 0.3, dx=0.1, dt=0.05)
    return prob, grid, QuadratureSpec(angular_points=8, polar_points=4)


def map_case(dim, f=NonlinearitySpec("sine")):
    if dim == 1:
        prob = bump_problem()
        prob = Problem(prob.dim, prob.horizon, prob.support_radius, prob.u0, prob.u1, f)
        return prob, grid_for(prob, dx=0.05), QUAD
    return small_3d_problem(f)


@pytest.mark.parametrize("dim", [1, 3])
def test_fixed_point_map_is_one_picard_sweep(dim):
    # apply_fixed_point_map and the Picard loop evaluate one map: a single
    # sweep from seed u gives F(u) bit for bit
    prob, grid, quad = map_case(dim)
    lin = solve_linear(prob.u0, prob.u1, None, grid, quad)
    tmesh = grid.meshes()[0]
    u = Field(grid, lin.samples + 0.3 * np.cos(3.0 * tmesh) * lin.samples)
    mapped = apply_fixed_point_map(prob, 0.25, u, grid, quad, lin)
    swept, report = picard_solve(prob, 0.25, grid, quad, max_iter=1, seed=u, linear_part=lin)
    assert report.iterations == 1
    assert np.array_equal(mapped.samples, swept.samples)
    assert np.array_equal(apply_fixed_point_map(prob, 0.25, u, grid, quad).samples, mapped.samples)


@pytest.mark.parametrize("dim", [1, 3])
def test_fixed_point_map_overflow_is_divergence(dim):
    prob, grid, quad = map_case(dim, NonlinearitySpec("polynomial", (0.0, 0.0, 1.0)))
    huge = Field(grid, np.full(grid.shape, 1e200))
    with pytest.raises(DivergenceError) as mapped:
        apply_fixed_point_map(prob, 0.25, huge, grid, quad)
    with pytest.raises(DivergenceError) as swept:
        picard_solve(prob, 0.25, grid, quad, seed=huge)
    assert mapped.value.iterate == swept.value.iterate == 1
    assert mapped.value.field is huge and swept.value.field is huge


def test_fixed_point_map_overflowing_result_is_divergence():
    # f(u) is finite but u_lin + eps**b L(0,0,f(u)) overflows
    prob, grid, quad = map_case(1, NonlinearitySpec("polynomial", (1.0,)))
    top = Field(grid, np.full(grid.shape, np.finfo(float).max))
    u = Field(grid, np.full(grid.shape, 1e300))
    with pytest.raises(DivergenceError) as mapped:
        apply_fixed_point_map(prob, 1.0, u, grid, quad, top)
    with pytest.raises(DivergenceError) as swept:
        picard_solve(prob, 1.0, grid, quad, seed=u, linear_part=top)
    assert mapped.value.field is u and swept.value.field is u


def _coarse():
    prob = bump_problem()
    return prob, grid_for(prob, dx=0.05)


def _grid_nan_radius(tmp_path):
    # its cone would be empty, so the seminorm of a field of ones would be 0.0
    grid = SpaceTimeGrid(dim=1, horizon=0.5, support_radius=math.nan, spatial_extent=1.0,
                         dx=0.1, dt=0.05)
    return seminorm(Field(grid, np.ones(grid.shape)), 0)


def _dump_nan_radius(tmp_path):
    # a dump header is read back through the same constructor
    header = linwave._BINARY_HEADER.pack(1, 1, 2, 11, 21, 0.5, math.nan, 1.0, 0.1, 0.05)
    path = tmp_path / "nan.bin"
    path.write_bytes(linwave._BINARY_MAGIC + header + np.ones(11 * 21).astype("<f8").tobytes())
    return field_from_binary(path)


def _support_nan_radius(tmp_path):
    # no node would be inspected
    prob, grid = _coarse()
    return check_support(solve_linear(prob.u0, prob.u1, None, grid, QUAD), math.nan)


def _picard_inf_tol(tmp_path):
    # one sweep would report convergence
    prob, grid = _coarse()
    return picard_solve(prob, 0.5, grid, QUAD, tol=math.inf)


def _solve_net_inf_tol(tmp_path):
    prob, grid = _coarse()
    return solve_net(prob, LADDER, grid, QUAD, tol=math.inf)


def _uniqueness_inf_tol(tmp_path):
    prob, grid = _coarse()
    net, _ = solve_net(prob, make_ladder(0.5, 0.5, 3), grid, QUAD)
    return check_uniqueness_surrogate(prob, net, QUAD, tol=math.inf)


def _picard_fractional_max_iter(tmp_path):
    prob, grid = _coarse()
    return picard_solve(prob, 0.5, grid, QUAD, max_iter=2.5)


@pytest.mark.parametrize("call", [
    _grid_nan_radius,
    _dump_nan_radius,
    _support_nan_radius,
    _picard_inf_tol,
    _solve_net_inf_tol,
    _uniqueness_inf_tol,
    _picard_fractional_max_iter,
], ids=lambda call: call.__name__.lstrip("_"))
def test_bad_library_inputs_rejected(tmp_path, call):
    # each of these inputs once made a check pass without checking anything,
    # or failed with a bare TypeError
    with pytest.raises(ValidationError):
        call(tmp_path)


# ---------------------------------------------------------------------------
# nets of solutions
# ---------------------------------------------------------------------------

def test_solve_net_zero_nonlinearity():
    prob = bump_problem(f_kind="zero")
    grid = grid_for(prob, dx=0.05)
    net, reports = solve_net(prob, LADDER, grid, QUAD)
    linear = solve_linear(prob.u0, prob.u1, None, grid, QUAD)
    assert all(r.converged for r in reports)
    for f in net.fields:
        np.testing.assert_array_equal(f.samples, linear.samples)


def test_iterations_non_increasing_along_ladder():
    prob = bump_problem()
    grid = grid_for(prob, dx=0.04)
    _, reports = solve_net(prob, LADDER, grid, QUAD)
    iters = [r.iterations for r in reports]
    assert all(a >= b for a, b in zip(iters, iters[1:]))
    assert all(r.converged for r in reports)


def test_increment_ratios_scale_with_eps():
    prob = bump_problem()
    grid = grid_for(prob, dx=0.04)
    _, reports = solve_net(prob, LADDER, grid, QUAD)
    ratios = [r.increment_history[1] / r.increment_history[0] for r in reports]
    # geometric decay rate proportional to eps: constants stay put
    scaled = [ratio / r.eps for ratio, r in zip(ratios, reports)]
    assert max(scaled) / min(scaled) < 1.3


def test_divergent_entry_flagged_rest_converge():
    prob = Problem(
        dim=1,
        horizon=2.0,
        support_radius=0.5,
        u0=InitialDatum("gaussian_bump", outer_radius=0.5, amplitude=1.0),
        u1=InitialDatum("zero"),
        f=NonlinearitySpec("polynomial", (0.0, 0.0, 20.0)),
        small_exponent=2.0,
    )
    grid = grid_for(prob, dx=0.05)
    ladder = make_ladder(0.9, 0.1, 3)
    net, reports = solve_net(prob, ladder, grid, QUAD, max_iter=40)
    assert not reports[0].converged
    assert all(r.converged for r in reports[1:])
    assert len(net.fields) == len(ladder)


def test_solution_net_is_bounded_type():
    prob = bump_problem()
    grid = grid_for(prob, dx=0.04)
    net, reports = solve_net(prob, LADDER, grid, QUAD)
    assert all(r.converged for r in reports)
    assert classify(net) is NetClass.BOUNDED_TYPE
    for n in (1, 2):
        assert valuation(net, n).slope >= -0.05
    linear = solve_linear(prob.u0, prob.u1, None, grid, QUAD)
    membership = m1_membership(net, linear)
    assert membership.first_index == 0  # differences are far below 1 everywhere


# ---------------------------------------------------------------------------
# residual operator
# ---------------------------------------------------------------------------

def test_residual_of_quadratic_in_time():
    prob = bump_problem(f_kind="zero")
    grid = grid_for(prob, dx=0.05)
    field = sampled_field(grid, lambda T, X: T**2)
    res = residual(field, 0.5, prob)
    mask = residual_mask(grid)
    np.testing.assert_allclose(res.samples[mask], 2.0, atol=1e-9)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_residual_of_exact_blowup_solution(dim):
    # manufactured solution 1/(1 - eps t) for f = 2u^3 with factor eps^2:
    # the defect is pure time-stencil truncation, bounded by dt^2 sup|u''''|
    eps = 0.4
    prob = Problem(
        dim=dim,
        horizon=1.0,
        support_radius=0.3,
        u0=InitialDatum("zero"),
        u1=InitialDatum("zero"),
        f=NonlinearitySpec("polynomial", (0.0, 0.0, 2.0)),
        small_exponent=2.0,
    )
    dx = 0.05 if dim < 3 else 0.1
    grid = SpaceTimeGrid.covering(dim, 1.0, 0.3, dx=dx, dt=dx / 2)
    mesh_t = grid.meshes()[0]
    field = sampled_field(grid, lambda T, *X: 1.0 / (1.0 - eps * T))
    sup = residual_sup(field, eps, prob)
    u4_max = 24.0 * eps**4 / (1.0 - eps * grid.horizon) ** 5
    assert sup <= 1.2 * grid.dt**2 * u4_max
    assert mesh_t.shape == grid.shape


def test_residual_of_converged_solution_small():
    # wide plateau transition keeps sup|u''''| moderate so the pinned
    # truncation constant has headroom at this resolution
    prob = Problem(
        dim=1,
        horizon=0.5,
        support_radius=1.2,
        u0=InitialDatum("plateau_bump", outer_radius=1.2, inner_radius=0.2, amplitude=1.0),
        u1=InitialDatum("zero"),
        f=NonlinearitySpec("sine"),
        small_exponent=1.0,
    )
    grid = grid_for(prob, dx=0.02)
    tol = 1e-12
    field, report = picard_solve(prob, 0.25, grid, QUAD, tol=tol)
    assert report.converged
    sup = residual_sup(field, 0.25, prob)
    assert sup <= 1200.0 * (grid.dx**2 + grid.dt**2) + tol / grid.dt**2


def test_residual_convergence_2d():
    # the 2D counterpart of the suite's 1D refinement study, on its preset
    prob = _residual_problem(2)
    quad = QuadratureSpec(angular_points=12, polar_points=8)
    eps, tol = 0.25, 1e-12
    sups = []
    for dx in (0.1, 0.05):
        grid = grid_for(prob, dx=dx)
        field, report = picard_solve(prob, eps, grid, quad, tol=tol)
        assert report.converged
        sups.append(residual_sup(field, eps, prob))
        assert sups[-1] <= RESIDUAL_C * (grid.dx**2 + grid.dt**2) + tol / grid.dt**2
    assert sups[0] >= 3.0 * sups[1]


def test_reports_csv(tmp_path):
    prob = bump_problem(f_kind="zero")
    grid = grid_for(prob, dx=0.05)
    _, reports = solve_net(prob, make_ladder(0.5, 0.5, 3), grid, QUAD)
    path = tmp_path / "reports.csv"
    reports_to_csv(reports, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "eps,iterations,final_increment,converged"
    assert len(lines) == 4
    assert lines[1].endswith("true")
