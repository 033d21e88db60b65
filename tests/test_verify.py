"""The paper's claims as checks: the closed-form oracles and the net checks.

The oracles live in ``colwave.verify``; the association, contraction and
uniqueness checks of a solved net are config checks of ``colwave.suite``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import colwave.seminorms as seminorms
import colwave.suite as suite
from colwave.errors import LifespanExceededError, ValidationError
from colwave.linwave import QuadratureSpec
from colwave.nets import InitialDatum, NonlinearitySpec, Problem, make_ladder
from colwave.seminorms import (
    MAX_SEMINORM_ORDER,
    Field,
    Net,
    SpaceTimeGrid,
    classify,
    fit_decay_exponent,
    seminorm,
    ultra_metric,
    valuation,
)
from colwave.semilinear import apply_fixed_point_map, solve_net
from colwave.suite import CheckResult, ExperimentConfig
from colwave.verify import check_wave_oracle, cubic_oracle_problem, oracle_lifespan
from helpers import checked_as_shifted, recorded_seeded_nets

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


def config(prob):
    """The problem on LADDER and its covering grid of spacing 0.04."""
    grid = SpaceTimeGrid.covering(1, 1.0, 0.5, dx=0.04, dt=0.02)
    return ExperimentConfig(prob, LADDER, grid, QUAD)


def check(config_check, prob):
    """``config_check`` of the problem's config on its solved net."""
    solved = suite.solve(config(prob))
    return config_check(solved.config, solved, 1)


def fitted_rate(result):
    """The decay exponent of an ``eps,mu0_difference`` table, as the association fits it."""
    eps, mu0 = zip(*result.rows)
    return fit_decay_exponent(eps, mu0).slope


def detail(result, key):
    """The float the detail line prints as ``key=value``."""
    (value,) = [word.split("=")[1] for word in result.details.split() if word.startswith(key + "=")]
    return float(value)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def test_oracle_values():
    assert oracle_lifespan(0.5, 1.0) == 2.0
    assert oracle_lifespan(0.1, 0.0) == 1.0
    with pytest.raises(LifespanExceededError):
        oracle_lifespan(0.5, 2.0)


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
    result = check(suite._association, bump_problem(f=NonlinearitySpec("zero")))
    assert result.ok
    assert max(mu0 for _, mu0 in result.rows) <= 1e-12


def test_association_rate_cubic_b1():
    cubic = NonlinearitySpec("polynomial", (0.0, 0.0, 2.0))
    result = check(suite._association, bump_problem(f=cubic))
    assert result.ok
    assert 0.9 <= fitted_rate(result) <= 1.3


def test_association_rate_b2():
    result = check(suite._association, bump_problem(b=2.0))
    assert result.ok
    assert fitted_rate(result) >= 1.9


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def test_contraction_zero_nonlinearity_sentinel():
    result = check(suite._contraction, bump_problem(f=NonlinearitySpec("zero")))
    assert result.ok
    assert all(math.isinf(gap) for _, gap in result.rows)
    assert detail(result, "metric_ratio") == 0.0


def test_contraction_gap_b1():
    result = check(suite._contraction, bump_problem())
    assert result.ok
    assert min(gap for _, gap in result.rows) >= 0.9
    assert detail(result, "metric_ratio") <= math.exp(-0.9) + 1e-12
    assert detail(result, "kappa_bound") == pytest.approx(math.exp(-1.0))


def test_contraction_gap_b_half():
    result = check(suite._contraction, bump_problem(b=0.5))
    assert result.ok
    assert detail(result, "metric_ratio") <= math.exp(-0.4) + 1e-12


def test_contraction_fails_on_the_metric_ratio_alone(monkeypatch):
    # both differences of every entry planted at 1/eps times their size:
    # U - V grows like eps**-1 and F(U) - F(V) like eps**(b - 1), so the
    # gaps still reach b, but min(p_n, 1) clips both metrics to about 1 and
    # only the ratio clause, ratio <= exp(-(b - RATE_MARGIN)), can fail
    solved = suite.solve(config(bump_problem()))
    scales = np.repeat(1.0 / LADDER.values, 2)  # u - v, then F(u) - F(v), per entry

    def planted(fields, max_order):
        return table((f * s for f, s in zip(fields, scales, strict=True)), max_order)

    table = suite._seminorm_table
    monkeypatch.setattr(suite, "_seminorm_table", planted)
    result = suite._contraction(solved.config, solved, 1)
    assert min(gap for _, gap in result.rows) >= 1.0 - suite.RATE_MARGIN
    assert detail(result, "metric_ratio") > 0.9 > math.exp(-(1.0 - suite.RATE_MARGIN))
    assert not result.ok


@pytest.mark.parametrize("b", [0.5, 1.0])
def test_contraction_matches_per_order_reference(monkeypatch, b):
    # the gaps and the metric ratio come from one seminorm table per
    # difference net; they must equal per-order valuations and the
    # ultra-metric of freshly formed differences bit for bit
    solved = suite.solve(config(bump_problem(b=b)))
    prob, net_u, u_lin = solved.config.problem, solved.net, solved.linear
    grid = u_lin.grid
    pert = suite.CONTRACTION_PERTURBATION * suite._bump_pattern(prob, grid)
    net_v = Net(LADDER, tuple(Field(grid, f.samples + pert) for f in net_u.fields))

    def mapped(net):
        return Net(LADDER, tuple(
            apply_fixed_point_map(prob, float(eps), f, grid, QUAD, u_lin)
            for eps, f in zip(LADDER.values, net.fields)
        ))

    net_fu, net_fv = mapped(net_u), mapped(net_v)
    gaps = [
        valuation(net_fu - net_fv, n).slope - valuation(net_u - net_v, n).slope
        for n in range(MAX_SEMINORM_ORDER + 1)
    ]
    n_terms = MAX_SEMINORM_ORDER + 1
    ratio = ultra_metric(net_fu, net_fv, n_terms) / ultra_metric(net_u, net_v, n_terms)

    stacks = []

    def recording_orders(field, n, buf=None):
        stacks.append(n)
        return orders(field, n, buf)

    orders = seminorms._seminorm_orders
    monkeypatch.setattr(seminorms, "_seminorm_orders", recording_orders)
    result = suite._contraction(solved.config, solved, 1)
    assert result.rows == list(enumerate(gaps))
    assert detail(result, "metric_ratio") == ratio
    # one derivative stack per entry of each of the two difference nets
    assert stacks == [MAX_SEMINORM_ORDER] * (2 * len(LADDER))


# ---------------------------------------------------------------------------
# uniqueness
# ---------------------------------------------------------------------------

def test_uniqueness_seed_perturbation_damped():
    result = check(suite._uniqueness, bump_problem())
    assert result.ok
    assert all(mu <= 1e-9 for _, mu in result.rows)


def test_uniqueness_data_perturbation_detected():
    solved = checked_as_shifted(suite.solve(config(bump_problem())), 0.5)
    result = suite._uniqueness(solved.config, solved, 1)
    assert not result.ok
    assert result.rows[0][1] > 0.1


def test_uniqueness_fails_unmeasured_when_the_seeded_solve_diverges(monkeypatch):
    # the seeded solve's eps 0.5 entry is planted as diverged, its last
    # iterate huge: the difference net then decays steeply, and it used to
    # classify as negligible and pass
    def diverging_solve_net(*args, **kwargs):
        net_b, reports = solve_net(*args, **kwargs)
        huge = Field(net_b.grid, net_b.fields[0].samples * 1e70)
        diverged = replace(reports[0], converged=False, final_increment=math.inf)
        return Net(net_b.ladder, (huge,) + net_b.fields[1:]), [diverged] + reports[1:]

    solved = suite.solve(config(bump_problem()))
    monkeypatch.setattr(suite, "solve_net", diverging_solve_net)
    assert suite._uniqueness(solved.config, solved, 1) == CheckResult(
        "uniqueness", False, "uniqueness ok=False class=n/a (seeded solve unconverged at eps [0.5])",
        "order,mu_max",
    )


@pytest.mark.parametrize("data_perturbation", [0.0, 0.5])
def test_uniqueness_mu_max_matches_per_order_seminorms(monkeypatch, data_perturbation):
    # mu_max comes from one derivative-stack pass per field; it must equal
    # the per-order seminorms of the difference net bit for bit
    solved = checked_as_shifted(suite.solve(config(bump_problem())), data_perturbation)
    seeded = recorded_seeded_nets(monkeypatch)
    result = suite._uniqueness(solved.config, solved, 1)
    (net_b,) = seeded
    diff = solved.net - net_b
    expected = [max(seminorm(f, n) for f in diff.fields) for n in range(MAX_SEMINORM_ORDER + 1)]
    assert result.rows == list(enumerate(expected))
    assert all(type(mu) is float for _, mu in result.rows)


@pytest.mark.parametrize(
    "data_perturbation, ok, reason",
    [(0.0, True, "all seminorms below 10*tol"), (0.5, False, "difference not negligible")],
)
def test_uniqueness_one_derivative_stack_per_entry(monkeypatch, data_perturbation, ok, reason):
    # mu_max and the class come from one seminorm table of the difference
    # net: one derivative stack per entry, and the class classify gives
    prob = Problem(
        dim=3, horizon=0.3, support_radius=0.3,
        u0=InitialDatum("gaussian_bump", outer_radius=0.3, amplitude=1.0),
        u1=InitialDatum("zero"), f=NonlinearitySpec("sine"), small_exponent=1.0,
    )
    grid = SpaceTimeGrid.covering(3, 0.3, 0.3, dx=0.1, dt=0.05)
    quad = QuadratureSpec(angular_points=8, polar_points=4)
    cfg = ExperimentConfig(prob, make_ladder(0.5, 0.5, 4), grid, quad)
    solved = checked_as_shifted(suite.solve(cfg), data_perturbation)
    seeded = recorded_seeded_nets(monkeypatch)
    stacks = []

    def recording_orders(field, n, buf=None):
        stacks.append(n)
        return orders(field, n, buf)

    orders = seminorms._seminorm_orders
    monkeypatch.setattr(seminorms, "_seminorm_orders", recording_orders)
    result = suite._uniqueness(solved.config, solved, 1)
    assert stacks == [MAX_SEMINORM_ORDER] * len(cfg.ladder)
    monkeypatch.undo()
    (net_b,) = seeded
    diff = solved.net - net_b
    mu_max = [max(seminorm(f, n) for f in diff.fields) for n in range(MAX_SEMINORM_ORDER + 1)]
    assert result == CheckResult(
        "uniqueness", ok, f"uniqueness ok={ok} class={classify(diff).value} ({reason})",
        "order,mu_max", list(enumerate(mu_max)),
    )
