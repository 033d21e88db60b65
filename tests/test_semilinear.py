import math
import warnings

import numpy as np
import pytest

from colwave.errors import DivergenceError, ValidationError
from colwave import linwave
from colwave.linwave import QuadratureSpec, check_support, field_from_binary, solve_linear
from colwave.nets import ZERO_DATUM, InitialDatum, NonlinearitySpec, Problem, make_ladder
from colwave.seminorms import (
    CONE_INFLATION_CELLS,
    Field,
    NetClass,
    SpaceTimeGrid,
    classify,
    fit_decay_exponent,
    seminorm,
    valuation,
)
from colwave.semilinear import (
    apply_fixed_point_map,
    SolveReport,
    picard_solve,
    residual_sup,
    solve_net,
)
from colwave.suite import RESIDUAL_C, _residual_problem, write_csv
from colwave.verify import cubic_oracle_problem
from helpers import sampled_field, whole_box_defect

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
    with pytest.raises(ValidationError, match="max_iter"):
        picard_solve(prob, 0.5, grid, QUAD, max_iter=True)


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
    with pytest.raises(DivergenceError):
        apply_fixed_point_map(prob, 0.25, huge, grid, quad)
    # the solve reports the divergence at iterate 1 and hands back its seed
    field, report = picard_solve(prob, 0.25, grid, quad, seed=huge)
    assert field is huge
    assert report == SolveReport(0.25, 1, [], converged=False, final_increment=math.inf)


def test_fixed_point_map_overflowing_result_is_divergence():
    # f(u) is finite but u_lin + eps**b L(0,0,f(u)) overflows
    prob, grid, quad = map_case(1, NonlinearitySpec("polynomial", (1.0,)))
    top = Field(grid, np.full(grid.shape, np.finfo(float).max))
    u = Field(grid, np.full(grid.shape, 1e300))
    with pytest.raises(DivergenceError):
        apply_fixed_point_map(prob, 1.0, u, grid, quad, top)
    field, report = picard_solve(prob, 1.0, grid, quad, seed=u, linear_part=top)
    assert field is u
    assert report == SolveReport(1.0, 1, [], converged=False, final_increment=math.inf)


@pytest.mark.parametrize("dim", [1, 3])
def test_overflowing_duhamel_term_of_a_finite_source_is_divergence(dim):
    # expm1(709) is finite, but the Duhamel sums over it overflow: solve_linear
    # raised ValidationError from its Field, after pocketfft overflow warnings,
    # and the solve and the map let it escape
    prob, grid, quad = map_case(dim, NonlinearitySpec("exp_minus_one"))
    seed = Field(grid, np.where(grid.cone_mask(CONE_INFLATION_CELLS), 709.0, 0.0))
    source = Field(grid, prob.f.value(seed.samples))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="Duhamel term"):
            solve_linear(ZERO_DATUM, ZERO_DATUM, source, grid, quad)
        with pytest.raises(DivergenceError):
            apply_fixed_point_map(prob, 0.5, seed, grid, quad)
        field, report = picard_solve(prob, 0.5, grid, quad, seed=seed)
    assert field is seed
    assert report == SolveReport(0.5, 1, [], converged=False, final_increment=math.inf)


def _diverging_case():
    # the b = 2 problem of 20 u^2 whose eps = 0.9 entry blows up under iteration
    prob = Problem(
        dim=1,
        horizon=2.0,
        support_radius=0.5,
        u0=InitialDatum("gaussian_bump", outer_radius=0.5, amplitude=1.0),
        u1=InitialDatum("zero"),
        f=NonlinearitySpec("polynomial", (0.0, 0.0, 20.0)),
        small_exponent=2.0,
    )
    return prob, grid_for(prob, dx=0.05), QuadratureSpec(angular_points=8, polar_points=8)


def test_diverging_solve_reports_the_failing_iterate():
    prob, grid, quad = _diverging_case()
    field, report = picard_solve(prob, 0.9, grid, quad, max_iter=40)
    assert report.iterations == 8 and len(report.increment_history) == 7
    assert not report.converged and report.final_increment == math.inf
    # the returned field is the last finite iterate, the one 7 sweeps reach
    seventh, capped = picard_solve(prob, 0.9, grid, quad, max_iter=7)
    assert np.array_equal(field.samples, seventh.samples)
    assert capped.increment_history == report.increment_history and not capped.converged


def test_solve_net_entries_are_picard_solves_on_a_diverging_ladder():
    prob, grid, quad = _diverging_case()
    ladder = make_ladder(0.9, 0.1, 3)
    net, reports = solve_net(prob, ladder, grid, quad, max_iter=40)
    assert [r.converged for r in reports] == [False, True, True]
    for eps, field, report in zip(ladder.values, net.fields, reports):
        alone, alone_report = picard_solve(prob, float(eps), grid, quad, max_iter=40)
        assert np.array_equal(field.samples, alone.samples)
        assert report == alone_report


@pytest.mark.parametrize("call", [
    lambda p, g: picard_solve(p, 0.25, g, QUAD),
    lambda p, g: solve_net(p, LADDER, g, QUAD),
    lambda p, g: apply_fixed_point_map(p, 0.25, Field(g, np.zeros(g.shape)), g, QUAD),
], ids=["picard_solve", "solve_net", "apply_fixed_point_map"])
def test_grid_of_another_dimension_rejected(call, linear_solves):
    # apply_fixed_point_map used to map the 1D problem over the 2D grid
    grid = SpaceTimeGrid.covering(2, 0.4, 0.3, dx=0.1, dt=0.05)
    with pytest.raises(ValidationError) as info:
        call(bump_problem(), grid)
    assert info.value.parameter == "grid"
    assert linear_solves == []  # rejected before any data term is evaluated


def _twin_grids():
    # one shape, 155 x 101 nodes, at two spacings
    g1 = SpaceTimeGrid(1, 1.0, 0.5, 1.54, 0.02, 0.01)
    g2 = SpaceTimeGrid(1, 1.0, 0.5, 1.54 * 1.01, 0.02 * 1.01, 0.01)
    assert g1.shape == g2.shape == (101, 155) and g1 != g2
    return g1, g2


@pytest.mark.parametrize("name, call", [
    ("linear_part", lambda p, g, f: picard_solve(p, 0.25, g, QUAD, linear_part=f)),
    ("seed", lambda p, g, f: picard_solve(p, 0.25, g, QUAD, seed=f)),
    ("linear_part", lambda p, g, f: solve_net(p, LADDER, g, QUAD, linear_part=f)),
    ("seed", lambda p, g, f: solve_net(p, LADDER, g, QUAD, seeds=[f] * len(LADDER))),
    ("linear_part", lambda p, g, f: apply_fixed_point_map(
        p, 0.25, Field(g, np.zeros(g.shape)), g, QUAD, f)),
    ("field", lambda p, g, f: apply_fixed_point_map(p, 0.25, f, g, QUAD)),
], ids=["picard_solve-linear_part", "picard_solve-seed", "solve_net-linear_part",
        "solve_net-seeds", "apply_fixed_point_map-linear_part", "apply_fixed_point_map-field"])
def test_field_on_another_grid_of_the_same_shape_rejected(name, call):
    # it used to pass every array operation, and the returned field, labelled
    # with the solve's grid, was computed from samples of the other grid
    g1, g2 = _twin_grids()
    with pytest.raises(ValidationError) as info:
        call(bump_problem(), g1, Field(g2, np.zeros(g2.shape)))
    assert info.value.parameter == name


@pytest.mark.parametrize("count", [1, len(LADDER) + 1])
def test_seeds_of_another_length_rejected(count):
    # one seed raised a bare IndexError from the worker; extra seeds were ignored
    prob = bump_problem()
    grid = grid_for(prob, dx=0.05)
    seeds = [Field(grid, np.zeros(grid.shape))] * count
    with pytest.raises(ValidationError) as info:
        solve_net(prob, LADDER, grid, QUAD, seeds=seeds)
    assert info.value.parameter == "seeds"


@pytest.mark.parametrize("threads", [0, -4, True])
def test_solve_net_rejects_a_thread_count_below_one(threads):
    # 0 and -4 used to run sequentially without complaint, while the CLI
    # reads --threads 0 as the CPU count
    prob = bump_problem()
    with pytest.raises(ValidationError) as info:
        solve_net(prob, LADDER, grid_for(prob, dx=0.05), QUAD, threads=threads)
    assert info.value.parameter == "threads"


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


def _support_inf_tol(tmp_path):
    # a field of ones would have its support accepted
    prob, grid = _coarse()
    return check_support(Field(grid, np.ones(grid.shape)), prob.support_radius, tol=math.inf)


def _picard_inf_tol(tmp_path):
    # one sweep would report convergence
    prob, grid = _coarse()
    return picard_solve(prob, 0.5, grid, QUAD, tol=math.inf)


def _solve_net_inf_tol(tmp_path):
    prob, grid = _coarse()
    return solve_net(prob, LADDER, grid, QUAD, tol=math.inf)


def _picard_fractional_max_iter(tmp_path):
    prob, grid = _coarse()
    return picard_solve(prob, 0.5, grid, QUAD, max_iter=2.5)


def _fit_length_mismatch(tmp_path):
    # a bare IndexError
    return fit_decay_exponent(LADDER.values, LADDER.values[:-1])


def _fit_nan_mu(tmp_path):
    # the NaN entry would be dropped from the fit
    mu = LADDER.values.copy()
    mu[2] = math.nan
    return fit_decay_exponent(LADDER.values, mu)


def _fit_nonpositive_eps(tmp_path):
    # a NaN slope and a RuntimeWarning
    eps = LADDER.values.copy()
    eps[-1] = 0.0
    return fit_decay_exponent(eps, LADDER.values)


def _fit_infinite_eps(tmp_path):
    eps = LADDER.values.copy()
    eps[0] = math.inf
    return fit_decay_exponent(eps, LADDER.values)


def _fit_infinite_mu(tmp_path):
    # an infinite slope, read as the negligible sentinel
    mu = LADDER.values.copy()
    mu[0] = math.inf
    return fit_decay_exponent(LADDER.values, mu)


def _fit_negative_mu(tmp_path):
    # the negative entry would be dropped from the fit as if it were zero
    mu = LADDER.values.copy()
    mu[3] = -mu[3]
    return fit_decay_exponent(LADDER.values, mu)


@pytest.mark.parametrize("call", [
    _grid_nan_radius,
    _dump_nan_radius,
    _support_nan_radius,
    _support_inf_tol,
    _picard_inf_tol,
    _solve_net_inf_tol,
    _picard_fractional_max_iter,
    _fit_length_mismatch,
    _fit_nan_mu,
    _fit_nonpositive_eps,
    _fit_infinite_eps,
    _fit_infinite_mu,
    _fit_negative_mu,
], ids=lambda call: call.__name__.lstrip("_"))
def test_bad_library_inputs_rejected(tmp_path, call):
    # each of these inputs once made a check pass without checking anything,
    # failed with a bare TypeError or IndexError, or fitted a NaN slope
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


# ---------------------------------------------------------------------------
# residual operator
# ---------------------------------------------------------------------------

def test_residual_of_quadratic_in_time():
    prob = bump_problem(f_kind="zero")
    grid = grid_for(prob, dx=0.05)
    field = sampled_field(grid, lambda T, X: T**2)
    res, mask = whole_box_defect(field, 0.5, prob)
    np.testing.assert_allclose(res[mask], 2.0, atol=1e-9)
    assert residual_sup(field, 0.5, prob) == float(np.max(np.abs(res[mask])))


def residual_grid(kind, dim):
    """A covering grid, a grid whose cone reaches every spatial face, or one with 3 time levels."""
    dx = 0.1 if dim == 3 else 0.05
    if kind == "covering":
        return SpaceTimeGrid.covering(dim, 0.2, 0.3, dx=dx)
    if kind == "edge":
        return SpaceTimeGrid(dim=dim, horizon=0.2, support_radius=0.3, spatial_extent=0.5,
                             dx=dx, dt=dx / 2)
    return SpaceTimeGrid.covering(dim, 0.1, 0.2, dx=0.05, dt=0.05)


NONLINEARITIES = [
    NonlinearitySpec("polynomial", (0.5, -1.0, 2.0)),
    NonlinearitySpec("sine"),
    NonlinearitySpec("exp_minus_one"),
    NonlinearitySpec("zero"),
]


@pytest.mark.parametrize("kind", ["covering", "edge", "three_level"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_residual_sup_matches_whole_box_defect(kind, dim):
    grid = residual_grid(kind, dim)
    assert (grid.shape[0] == 3) is (kind == "three_level")
    cone = grid.cone_nodes
    on_faces = any(len(first) or len(last) for _, _, first, last in cone.axes[1:])
    assert on_faces is (kind == "edge")
    rng = np.random.default_rng(dim)
    T, *X = grid.meshes()
    smooth = np.exp(3.0 * X[0]) * (1.0 + T) - np.cos(4.0 * X[-1] + 2.0 * T)
    fields = [
        Field(grid, smooth),
        Field(grid, rng.standard_normal(grid.shape)),
        Field(grid, np.ascontiguousarray(smooth.T).T),  # strided samples
    ]
    for f in NONLINEARITIES:
        prob = Problem(dim, 0.2, 0.3, InitialDatum("zero"), InitialDatum("zero"), f, 1.5)
        for field in fields:
            for eps in (1.0, 0.3):
                res, mask = whole_box_defect(field, eps, prob)
                assert residual_sup(field, eps, prob) == float(np.max(np.abs(res[mask])))


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
    # a diverged entry's final increment is inf
    reports.append(SolveReport(0.9, 3, [1.0, 1e200], False, math.inf))
    path = tmp_path / "reports.csv"
    write_csv(path, "eps,iterations,final_increment,converged",
              [(r.eps, r.iterations, r.final_increment, r.converged) for r in reports])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "eps,iterations,final_increment,converged"
    assert len(lines) == 5
    assert lines[1].endswith("true")
    assert lines[-1] == "0.90000000000000002,3,inf,false"


# ---------------------------------------------------------------------------
# exact scaling oracle: for f = u^p, amplitude A = 2^k data with factor e
# solve to A times the amplitude-1 solution with factor e * A^(p-1)
# ---------------------------------------------------------------------------

#: (dt, dx) per dimension: 41x85, 11x25^2 and 8x19^3 on the scaling problem.
SCALING_SPACINGS = {1: (0.01, 0.02), 2: (0.04, 0.08), 3: (0.06, 0.12)}
SCALING_SHAPES = {1: (41, 85), 2: (11, 25, 25), 3: (8, 19, 19, 19)}


def scaling_case(dim, p, amplitude, steps):
    """The problem with data ``amplitude * (u0, u1)`` and f = u^p, b = 1, its grid and quad."""
    problem = Problem(
        dim=dim,
        horizon=0.4,
        support_radius=0.4,
        u0=InitialDatum("gaussian_bump", outer_radius=0.4, amplitude=amplitude),
        u1=InitialDatum("plateau_bump", outer_radius=0.4, inner_radius=0.2, amplitude=amplitude),
        f=NonlinearitySpec("polynomial", (0.0,) * (p - 1) + (1.0,)),
        small_exponent=1.0,
    )
    dt, dx = SCALING_SPACINGS[dim]
    grid = SpaceTimeGrid.covering(dim, 0.4, 0.4, dx=dx, dt=dt)
    assert grid.shape == SCALING_SHAPES[dim]
    return problem, grid, QuadratureSpec(12, 8, steps)


@pytest.mark.parametrize("steps", [1, 2])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_picard_solve_scales_exactly_with_the_data(dim, p, steps):
    tol = 1e-11
    for k in (-3, 3):
        amp = 2.0**k
        grown = amp ** (p - 1)
        eps = 0.25 / max(grown, 1.0)  # both factors eps and eps * A^(p-1) in (0, 1]
        scaled, grid, quad = scaling_case(dim, p, amp, steps)
        unit, _, _ = scaling_case(dim, p, 1.0, steps)
        u, rep = picard_solve(scaled, eps, grid, quad, tol=amp * tol)
        v, rep1 = picard_solve(unit, eps * grown, grid, quad, tol=tol)
        assert rep.converged and rep1.converged
        assert rep.iterations == rep1.iterations >= 3
        assert rep.increment_history == [amp * x for x in rep1.increment_history]
        assert np.array_equal(u.samples, amp * v.samples)


def test_solve_net_scales_exactly_with_the_data_on_two_threads():
    p, amp, tol = 3, 8.0, 1e-11
    scaled, grid, quad = scaling_case(1, p, amp, 1)
    unit, _, _ = scaling_case(1, p, 1.0, 1)
    net, reports = solve_net(scaled, make_ladder(1 / 256, 0.5, 4), grid, quad,
                             tol=amp * tol, threads=2)
    net1, reports1 = solve_net(unit, make_ladder(1 / 4, 0.5, 4), grid, quad, tol=tol)
    assert [r.eps * amp ** (p - 1) for r in reports] == [r.eps for r in reports1]
    assert [r.iterations for r in reports] == [r.iterations for r in reports1]
    assert all(r.converged for r in reports)
    for a, b in zip(net.fields, net1.fields):
        assert np.array_equal(a.samples, amp * b.samples)
