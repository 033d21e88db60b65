import math
from dataclasses import replace

import numpy as np
import pytest

import colwave.seminorms as seminorms
import colwave.verify as verify
from colwave.errors import LifespanExceededError, ValidationError
from colwave.linwave import QuadratureSpec, solve_linear
from colwave.nets import InitialDatum, NonlinearitySpec, Problem, make_ladder
from colwave.seminorms import (
    MAX_SEMINORM_ORDER,
    Field,
    Net,
    SpaceTimeGrid,
    classify,
    seminorm,
    ultra_metric,
    valuation,
)
from colwave.semilinear import apply_fixed_point_map, solve_net
from colwave.verify import (
    UniquenessReport,
    check_association,
    check_contraction,
    check_uniqueness_surrogate,
    check_wave_oracle,
    cubic_oracle_problem,
    ode_check,
    oracle_lifespan,
)
from helpers import shift_u0

QUAD = QuadratureSpec(angular_points=8, polar_points=10)
LADDER = make_ladder(0.5, 0.5, 8)


def bump_problem(b=1.0, f=NonlinearitySpec("sine")):
    return Problem(
        dim=1,
        horizon=1.0,
        support_radius=0.5,
        u0=InitialDatum("gaussian_bump", outer_radius=0.5, amplitude=1.0),
        u1=InitialDatum("zero"),
        f=f,
        small_exponent=b,
    )


def grid_1d(dx=0.04):
    return SpaceTimeGrid.covering(1, 1.0, 0.5, dx=dx, dt=dx / 2)


def solved(prob):
    """The problem's net on LADDER and its linear part, on the default grid."""
    grid = grid_1d()
    net, _ = solve_net(prob, LADDER, grid, QUAD)
    return net, solve_linear(prob.u0, prob.u1, None, grid, QUAD)


# ---------------------------------------------------------------------------
# ODE / wave oracles
# ---------------------------------------------------------------------------

def test_oracle_values():
    assert oracle_lifespan(0.5, 1.0) == 2.0
    assert oracle_lifespan(0.1, 0.0) == 1.0
    with pytest.raises(LifespanExceededError):
        oracle_lifespan(0.5, 2.0)


def test_ode_check_defects():
    t = np.linspace(0.0, 1.5, 301)
    rep = ode_check(0.5, t)
    assert rep.max_analytic_defect <= 1e-12
    # finite-difference defect shrinks at second order
    rep2 = ode_check(0.5, np.linspace(0.0, 1.5, 601))
    assert rep2.max_fd_defect <= rep.max_fd_defect / 3.0
    with pytest.raises(LifespanExceededError):
        ode_check(0.5, np.linspace(0.0, 2.5, 11))


def test_rescaled_ode_identity():
    # z = eps * y satisfies z' = z^2 with z(0) = eps, exactly
    eps = 0.3
    t = np.linspace(0.0, 2.0, 201)
    z = eps / (1.0 - eps * t)
    dz_exact = eps**2 / (1.0 - eps * t) ** 2
    assert float(np.max(np.abs(dz_exact - z**2))) <= 1e-12
    assert z[0] == eps


def test_cubic_oracle_problem_guard():
    with pytest.raises(ValidationError, match="eps"):
        cubic_oracle_problem(1, 0.9, 1.0, 0.5, 0.65)


def test_wave_oracle_1d():
    rep = check_wave_oracle(1, (0.1,))
    assert rep.ok
    assert rep.per_eps[0][1] <= 1e-4


@pytest.mark.parametrize("eps_values", [(), []])
def test_wave_oracle_rejects_an_empty_eps_list(eps_values):
    # it used to report ok=True having compared nothing
    with pytest.raises(ValidationError) as info:
        check_wave_oracle(1, eps_values)
    assert info.value.parameter == "eps_values"


# ---------------------------------------------------------------------------
# association
# ---------------------------------------------------------------------------

def test_association_trivial_for_zero_nonlinearity():
    prob = bump_problem(f=NonlinearitySpec("zero"))
    rep = check_association(prob, *solved(prob))
    assert rep.associated
    assert rep.strong_rate_ok
    assert rep.ok
    assert max(rep.mu0_history) <= 1e-12


def test_association_rate_cubic_b1():
    prob = bump_problem(f=NonlinearitySpec("polynomial", (0.0, 0.0, 2.0)))
    rep = check_association(prob, *solved(prob))
    assert rep.associated
    assert 0.9 <= rep.fitted_rate.slope <= 1.3


def test_association_rate_b2():
    prob = bump_problem(b=2.0)
    rep = check_association(prob, *solved(prob))
    assert rep.fitted_rate.slope >= 1.9
    assert rep.strong_rate_ok


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def test_contraction_zero_nonlinearity_sentinel():
    prob = bump_problem(f=NonlinearitySpec("zero"))
    rep = check_contraction(prob, *solved(prob), QUAD)
    assert rep.ok
    assert all(math.isinf(g) for g in rep.slope_gaps.values())
    assert rep.metric_ratio == 0.0


def test_contraction_gap_b1():
    prob = bump_problem()
    rep = check_contraction(prob, *solved(prob), QUAD)
    assert rep.ok
    assert min(rep.slope_gaps.values()) >= 0.9
    assert rep.metric_ratio <= math.exp(-0.9) + 1e-12
    assert rep.kappa_bound == pytest.approx(math.exp(-1.0))


def test_contraction_gap_b_half():
    prob = bump_problem(b=0.5)
    rep = check_contraction(prob, *solved(prob), QUAD)
    assert rep.ok
    assert rep.metric_ratio <= math.exp(-0.4) + 1e-12


@pytest.mark.parametrize("b", [0.5, 1.0])
def test_contraction_matches_per_order_reference(monkeypatch, b):
    # the gaps and the metric ratio come from one seminorm table per
    # difference net; they must equal per-order valuations and the
    # ultra-metric of freshly formed differences bit for bit
    prob = bump_problem(b=b)
    net_u, u_lin = solved(prob)
    grid = u_lin.grid
    pert = verify.CONTRACTION_PERTURBATION * verify._bump_pattern(prob, grid)
    net_v = Net(LADDER, tuple(Field(grid, f.samples + pert) for f in net_u.fields))

    def mapped(net):
        return Net(LADDER, tuple(
            apply_fixed_point_map(prob, float(eps), f, grid, QUAD, u_lin)
            for eps, f in zip(LADDER.values, net.fields)
        ))

    net_fu, net_fv = mapped(net_u), mapped(net_v)
    gaps = {
        n: valuation(net_fu - net_fv, n).slope - valuation(net_u - net_v, n).slope
        for n in range(MAX_SEMINORM_ORDER + 1)
    }
    n_terms = MAX_SEMINORM_ORDER + 1
    ratio = ultra_metric(net_fu, net_fv, n_terms) / ultra_metric(net_u, net_v, n_terms)

    stacks = []

    def recording_orders(field, n, buf=None):
        stacks.append(n)
        return orders(field, n, buf)

    orders = seminorms._seminorm_orders
    monkeypatch.setattr(seminorms, "_seminorm_orders", recording_orders)
    rep = check_contraction(prob, net_u, u_lin, QUAD)
    assert rep.slope_gaps == gaps
    assert rep.metric_ratio == ratio
    # one derivative stack per entry of each of the two difference nets
    assert stacks == [MAX_SEMINORM_ORDER] * (2 * len(LADDER))


# ---------------------------------------------------------------------------
# uniqueness surrogate
# ---------------------------------------------------------------------------

def test_uniqueness_seed_perturbation_damped():
    prob = bump_problem()
    net, _ = solved(prob)
    rep = check_uniqueness_surrogate(prob, net, QUAD)
    assert rep.ok
    assert all(v <= 1e-9 for v in rep.mu_max.values())


def test_uniqueness_data_perturbation_detected():
    prob = bump_problem()
    net, _ = solved(prob)
    rep = check_uniqueness_surrogate(shift_u0(prob, 0.5), net, QUAD)
    assert not rep.ok
    assert rep.mu_max[0] > 0.1


def test_uniqueness_fails_unmeasured_when_the_seeded_solve_diverges(monkeypatch):
    # the seeded solve's eps 0.5 entry is planted as diverged, its last
    # iterate huge: the difference net then decays steeply, and it used to
    # classify as negligible and pass
    def diverging_solve_net(*args, **kwargs):
        net_b, reports = solve_net(*args, **kwargs)
        huge = Field(net_b.grid, net_b.fields[0].samples * 1e70)
        diverged = replace(reports[0], converged=False, final_increment=math.inf)
        return Net(net_b.ladder, (huge,) + net_b.fields[1:]), [diverged] + reports[1:]

    prob = bump_problem()
    net, _ = solved(prob)
    monkeypatch.setattr(verify, "solve_net", diverging_solve_net)
    rep = check_uniqueness_surrogate(prob, net, QUAD)
    assert rep == UniquenessReport(None, {}, False, "seeded solve unconverged at eps [0.5]")


@pytest.mark.parametrize("data_perturbation", [0.0, 0.5])
def test_uniqueness_mu_max_matches_per_order_seminorms(monkeypatch, data_perturbation):
    # mu_max comes from one derivative-stack pass per field; it must equal
    # the per-order seminorms of the difference net bit for bit
    seeded = []

    def recording_solve_net(*args, **kwargs):
        result = solve_net(*args, **kwargs)
        seeded.append(result[0])
        return result

    monkeypatch.setattr(verify, "solve_net", recording_solve_net)
    prob = bump_problem()
    net, _ = solved(prob)
    rep = check_uniqueness_surrogate(shift_u0(prob, data_perturbation), net, QUAD)
    (net_b,) = seeded
    diff = net - net_b
    expected = {
        n: max(seminorm(f, n) for f in diff.fields) for n in range(MAX_SEMINORM_ORDER + 1)
    }
    assert rep.mu_max == expected
    assert all(type(v) is float for v in rep.mu_max.values())


@pytest.mark.parametrize(
    "data_perturbation, ok, reason",
    [(0.0, True, "all seminorms below 10*tol"), (0.5, False, "difference not negligible")],
)
def test_uniqueness_one_derivative_stack_per_entry(monkeypatch, data_perturbation, ok, reason):
    # mu_max and the class come from one seminorm table of the difference
    # net: one derivative stack per entry, and the report classify gives
    prob = Problem(
        dim=3, horizon=0.3, support_radius=0.3,
        u0=InitialDatum("gaussian_bump", outer_radius=0.3, amplitude=1.0),
        u1=InitialDatum("zero"), f=NonlinearitySpec("sine"), small_exponent=1.0,
    )
    grid = SpaceTimeGrid.covering(3, 0.3, 0.3, dx=0.1, dt=0.05)
    quad = QuadratureSpec(angular_points=8, polar_points=4)
    ladder = make_ladder(0.5, 0.5, 4)
    net, _ = solve_net(prob, ladder, grid, quad)
    seeded, stacks = [], []

    def recording_solve_net(*args, **kwargs):
        result = solve_net(*args, **kwargs)
        seeded.append(result[0])
        return result

    def recording_orders(field, n, buf=None):
        stacks.append(n)
        return orders(field, n, buf)

    orders = seminorms._seminorm_orders
    monkeypatch.setattr(verify, "solve_net", recording_solve_net)
    monkeypatch.setattr(seminorms, "_seminorm_orders", recording_orders)
    rep = check_uniqueness_surrogate(shift_u0(prob, data_perturbation), net, quad)
    assert stacks == [MAX_SEMINORM_ORDER] * len(ladder)
    monkeypatch.undo()
    (net_b,) = seeded
    diff = net - net_b
    mu_max = {n: max(seminorm(f, n) for f in diff.fields) for n in range(MAX_SEMINORM_ORDER + 1)}
    assert rep == UniquenessReport(classify(diff), mu_max, ok, reason)
