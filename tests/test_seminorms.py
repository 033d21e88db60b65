import math
import tracemalloc

import numpy as np
import pytest

import colwave.seminorms as seminorms
from colwave.errors import InsufficientDataError, UnsupportedOrderError, ValidationError
from colwave.nets import make_ladder
from colwave.seminorms import (
    Field,
    Net,
    NetClass,
    SpaceTimeGrid,
    classify,
    fit_decay_exponent,
    power_net,
    seminorm,
    ultra_metric,
    valuation,
    valuation_table,
)
from colwave.seminorms import CONE_INFLATION_CELLS, MAX_SEMINORM_ORDER
from helpers import cone_mask, constant_field, sampled_field

LADDER = make_ladder(0.5, 0.5, 8)


def small_grid(dim=1, dx=0.1):
    return SpaceTimeGrid.covering(dim, 0.4, 0.3, dx=dx, dt=dx / 2)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def test_grid_snaps_spacings():
    g = SpaceTimeGrid(dim=1, horizon=1.0, support_radius=0.5, spatial_extent=2.0,
                      dx=0.021, dt=0.0105)
    assert g.spatial_extent / g.dx == pytest.approx(round(2.0 / 0.021))
    assert g.horizon / g.dt == pytest.approx(g.n_time)
    assert g.axis[0] == -2.0 and g.axis[-1] == 2.0
    assert 0.0 in g.axis


@pytest.mark.parametrize(
    "extent,dx",
    [(2.0, 0.1), (2.0, 0.021), (1.3, 0.07), (0.9, 0.3), (5.0, 0.013), (0.77, 0.77)],
)
def test_axis_exactly_antisymmetric(extent, dx):
    g = SpaceTimeGrid(dim=1, horizon=0.5, support_radius=0.2, spatial_extent=extent,
                      dx=dx, dt=min(dx, 0.5) / 2)
    half = len(g.axis) // 2
    assert np.array_equal(g.axis, -g.axis[::-1])
    assert g.axis[half] == 0.0
    assert g.axis[0] == -extent and g.axis[-1] == extent
    assert np.all(np.diff(g.axis) > 0.0)
    np.testing.assert_allclose(np.diff(g.axis), g.dx, rtol=1e-12)


@pytest.mark.parametrize("dim,dx", [(1, 0.033), (2, 0.07), (3, 0.11)])
def test_covering_axis_exactly_antisymmetric(dim, dx):
    g = SpaceTimeGrid.covering(dim, 0.45, 0.35, dx=dx)
    half = len(g.axis) // 2
    assert np.array_equal(g.axis, -g.axis[::-1])
    assert g.axis[half] == 0.0
    assert g.axis[0] == -g.spatial_extent and g.axis[-1] == g.spatial_extent


def test_grid_validation():
    with pytest.raises(ValidationError, match="spatial_extent"):
        SpaceTimeGrid(dim=1, horizon=1.0, support_radius=0.5, spatial_extent=1.0,
                      dx=0.1, dt=0.05)
    with pytest.raises(ValidationError, match="dt"):
        SpaceTimeGrid(dim=1, horizon=1.0, support_radius=0.5, spatial_extent=2.0,
                      dx=0.1, dt=0.2)
    with pytest.raises(ValidationError, match="margin_cells"):
        SpaceTimeGrid(dim=1, horizon=1.0, support_radius=0.5, spatial_extent=2.0,
                      dx=0.1, dt=0.05, margin_cells=1)
    with pytest.raises(ValidationError, match="dim"):
        SpaceTimeGrid(dim=4, horizon=1.0, support_radius=0.5, spatial_extent=2.0,
                      dx=0.1, dt=0.05)
    # a bool is an int to Python, but no count: this built a (9, 19) grid
    with pytest.raises(ValidationError, match="dim"):
        SpaceTimeGrid.covering(True, 0.4, 0.3, dx=0.1)


def test_covering_grid_contains_cone():
    g = SpaceTimeGrid.covering(2, 0.7, 0.4, dx=0.05)
    assert g.spatial_extent >= 0.7 + 0.4 + 2 * g.dx - 1e-12
    assert g.dx == pytest.approx(0.05)


def test_cone_mask_grows_with_time():
    g = small_grid()
    mask = g.cone_mask()
    assert np.array_equal(mask, cone_mask(g, CONE_INFLATION_CELLS))
    assert mask[0].sum() < mask[-1].sum()
    assert cone_mask(g, 2)[0].any()


# ---------------------------------------------------------------------------
# fields and nets
# ---------------------------------------------------------------------------

def test_field_arithmetic_and_validation():
    g = small_grid()
    a = constant_field(g, 2.0)
    b = sampled_field(g, lambda T, X: T)
    c = a + b - (0.5 * a)
    assert c.samples[0, 0] == pytest.approx(1.0)
    with pytest.raises(ValidationError, match="samples"):
        Field(g, np.zeros((2, 2)))
    bad = np.zeros(g.shape)
    bad[0, 0] = np.nan
    with pytest.raises(ValidationError, match="samples"):
        Field(g, bad)


def test_net_requires_shared_grid():
    g = small_grid()
    other = small_grid(dx=0.05)
    fields = [constant_field(g, float(e)) for e in LADDER.values]
    net = Net(LADDER, tuple(fields))
    assert net.grid == g
    with pytest.raises(ValidationError, match="fields"):
        Net(LADDER, tuple(fields[:-1] + [constant_field(other, 1.0)]))


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------

def test_seminorm_constant():
    g = small_grid()
    assert seminorm(constant_field(g, 1.0), 0) == 1.0


def test_seminorm_linear_in_time():
    g = SpaceTimeGrid.covering(1, 1.0, 0.5, dx=0.05, dt=0.025)
    f = sampled_field(g, lambda T, X: T)
    assert seminorm(f, 0) == pytest.approx(1.0)
    assert seminorm(f, 1) == pytest.approx(1.0, abs=1e-12)


def test_seminorm_sine_derivative():
    # analytic oracle: sup |cos| = 1 on the cone; finite differences must
    # reproduce it to the stencil truncation level
    dx = math.pi / 1600
    g = SpaceTimeGrid(dim=1, horizon=5 * dx, support_radius=math.pi / 2,
                      spatial_extent=805 * dx, dx=dx, dt=dx)
    f = sampled_field(g, lambda T, X: np.sin(X))
    assert seminorm(f, 1) == pytest.approx(1.0, abs=1e-6)


def test_seminorm_order_cap():
    g = small_grid()
    with pytest.raises(UnsupportedOrderError):
        seminorm(constant_field(g, 1.0), 3)


BAD_ORDERS = [1.5, 1.0, np.float64(2.0), True, False, "1", None]


@pytest.mark.parametrize("n", BAD_ORDERS, ids=repr)
def test_seminorm_rejects_non_integer_order(n):
    # a float order failed late with a bare TypeError, and True read as mu_1
    with pytest.raises(UnsupportedOrderError, match="integer"):
        seminorm(constant_field(small_grid(), 1.0), n)


@pytest.mark.parametrize("n", BAD_ORDERS, ids=repr)
def test_valuation_rejects_non_integer_order(n):
    with pytest.raises(UnsupportedOrderError, match="integer"):
        valuation(power_net(small_grid(), LADDER, 1.0), n)


@pytest.mark.parametrize("n_terms", BAD_ORDERS + [0, 4], ids=repr)
def test_ultra_metric_rejects_non_integer_n_terms(n_terms):
    u = power_net(small_grid(), LADDER, 1.0)
    with pytest.raises(UnsupportedOrderError, match="n_terms must be an integer"):
        ultra_metric(u, u, n_terms)


def test_numpy_integer_orders_are_orders():
    g = small_grid()
    f = sampled_field(g, lambda T, X: np.sin(3.0 * X) * (1.0 + T))
    u, v = power_net(g, LADDER, 1.0), power_net(g, LADDER, 2.0)
    assert seminorm(f, np.int64(1)) == seminorm(f, 1)
    assert ultra_metric(u, v, np.int32(2)) == ultra_metric(u, v, 2)


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------

def test_valuation_exact_power_fits():
    g = small_grid()
    for a in (0.0, 1.0, 2.5, 10.0):
        est = valuation(power_net(g, LADDER, a), 0)
        assert est.slope == pytest.approx(a, abs=1e-10)
        assert est.stderr == pytest.approx(0.0, abs=1e-10)
        assert est.n_points == len(LADDER)


def test_valuation_sentinel_for_zero_net():
    g = small_grid()
    net = Net(LADDER, tuple(constant_field(g, 0.0) for _ in range(len(LADDER))))
    est = valuation(net, 0)
    assert est.is_negligible_sentinel
    assert est.n_points == 0


def test_valuation_insufficient_data():
    g = small_grid()
    fields = [constant_field(g, 1.0), constant_field(g, 0.5)] + [
        constant_field(g, 0.0) for _ in range(len(LADDER) - 2)
    ]
    with pytest.raises(InsufficientDataError):
        valuation(Net(LADDER, tuple(fields)), 0)


@pytest.mark.parametrize("eps, mu", [
    ([0.1, 0.1, 0.1], [1.0, 2.0, 3.0]),
    ([0.1, 0.1, 0.1, 0.5], [1.0, 2.0, 3.0, 0.0]),  # the distinct eps is below the floor
])
def test_fit_needs_two_distinct_eps(eps, mu):
    # equal eps used to divide by a zero spread: a RuntimeWarning, then ZeroDivisionError
    with pytest.raises(InsufficientDataError, match="distinct eps"):
        fit_decay_exponent(eps, mu)


def test_fit_stderr_positive_for_noisy_data():
    eps = LADDER.values
    mus = eps * (1.0 + 0.1 * np.array([1, -1] * 4))
    est = fit_decay_exponent(eps, mus)
    assert est.stderr > 0.0
    assert est.slope == pytest.approx(1.0, abs=0.1)


# ---------------------------------------------------------------------------
# ultra-pseudo-seminorms and the metric
# ---------------------------------------------------------------------------

def pseudo_seminorm(net_u, net_v, n):
    """p_n(U - V) = exp(-nu_n(U - V)); 0 for the negligible sentinel."""
    return seminorms._pseudo_seminorm(valuation(net_u - net_v, n))


def test_ultra_pseudo_seminorm_values():
    g = small_grid()
    u = power_net(g, LADDER, 1.0)
    zero = Net(LADDER, tuple(constant_field(g, 0.0) for _ in range(len(LADDER))))
    ones = power_net(g, LADDER, 0.0)
    assert pseudo_seminorm(u, u, 0) == 0.0
    assert ultra_metric(u, u, 1) == 0.0
    for n in range(3):
        assert pseudo_seminorm(u, zero, n) == pytest.approx(math.exp(-1.0), rel=1e-9)
    assert ultra_metric(u, zero, 1) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-9)
    assert pseudo_seminorm(ones, zero, 0) == pytest.approx(1.0, rel=1e-12)
    assert ultra_metric(ones, zero, 1) == pytest.approx(0.5, rel=1e-12)


def test_ultra_metric_values():
    g = small_grid()
    u = power_net(g, LADDER, 1.0)
    zero = Net(LADDER, tuple(constant_field(g, 0.0) for _ in range(len(LADDER))))
    ones = power_net(g, LADDER, 0.0)
    assert ultra_metric(u, u, 3) == 0.0
    assert ultra_metric(u, zero, 3) == pytest.approx(0.875 * math.exp(-1.0), rel=1e-9)
    assert ultra_metric(ones, zero, 3) == pytest.approx(0.875, rel=1e-12)
    with pytest.raises(UnsupportedOrderError):
        ultra_metric(u, zero, 4)


def test_classification_planted_nets():
    g = small_grid()
    assert classify(power_net(g, LADDER, 10.0)) is NetClass.NEGLIGIBLE_AT_TESTED_ORDER
    assert classify(power_net(g, LADDER, 0.0)) is NetClass.BOUNDED_TYPE
    assert classify(power_net(g, LADDER, -1.0)) is NetClass.MODERATE
    assert classify(power_net(g, LADDER, -25.0)) is NetClass.NOT_MODERATE


def test_valuation_monotone_in_order():
    # property (c): higher-order seminorms can only lower the fitted rate
    g = SpaceTimeGrid.covering(1, 0.4, 0.3, dx=0.05, dt=0.025)
    pattern = sampled_field(g, lambda T, X: np.cos(3 * X) + T * X).samples
    net = power_net(g, LADDER, 1.5, pattern=pattern)
    slopes = [valuation(net, n).slope for n in range(3)]
    assert slopes[1] <= slopes[0] + 0.1
    assert slopes[2] <= slopes[1] + 0.1


def test_valuation_multiplicative_direction():
    g = small_grid()
    u = power_net(g, LADDER, 1.0)
    v = power_net(g, LADDER, 2.0)
    prod = u * v
    assert valuation(prod, 0).slope >= valuation(u, 0).slope + valuation(v, 0).slope - 0.1


def test_pseudo_seminorm_subadditive():
    # p_n(U + V - 2W) <= max(p_n(U-W), p_n(V-W)) on disjoint-support arms
    g = small_grid()
    base = np.zeros(g.shape)
    phi1 = base.copy()
    phi1[:, 1:3] = 1.0
    phi2 = phi1[:, ::-1].copy()
    w = power_net(g, LADDER, 0.5)
    u = Net(LADDER, tuple(
        Field(g, f.samples + float(e) ** 1.0 * phi1)
        for f, e in zip(w.fields, LADDER.values)
    ))
    v = Net(LADDER, tuple(
        Field(g, f.samples + float(e) ** 3.0 * phi2)
        for f, e in zip(w.fields, LADDER.values)
    ))
    for n in range(3):
        lhs = pseudo_seminorm(u + v, w + w, n)
        rhs = max(pseudo_seminorm(u, w, n), pseudo_seminorm(v, w, n))
        assert lhs <= rhs + 1e-12


# ---------------------------------------------------------------------------
# export rows
# ---------------------------------------------------------------------------


def test_valuation_table_shape():
    g = small_grid()
    rows = valuation_table(power_net(g, LADDER, 1.0))
    assert len(rows) == 3 * len(LADDER)
    eps, mu, n, slope, stderr = rows[0]
    assert (eps, n) == (0.5, 0)
    assert slope == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# one derivative stack for every order, against per-order references
# ---------------------------------------------------------------------------

def reference_seminorm(field, n):
    """Per-order sup over the cone of the FD derivatives, built independently."""
    g = field.grid
    spacings = (g.dt,) + (g.dx,) * g.dim
    mask = g.cone_mask()
    arrays = [field.samples]
    firsts = [np.gradient(field.samples, h, axis=a, edge_order=2) for a, h in enumerate(spacings)]
    if n >= 1:
        arrays += firsts
    if n >= 2:
        arrays += [
            np.gradient(firsts[i], spacings[j], axis=j, edge_order=2)
            for i in range(g.dim + 1)
            for j in range(i, g.dim + 1)
        ]
    # a NaN derivative anywhere on the cone makes the sup NaN
    return float(np.max([np.max(np.abs(a[mask])) for a in arrays]))


def reference_class(slopes):
    if all(s >= 6.0 for s in slopes):
        return NetClass.NEGLIGIBLE_AT_TESTED_ORDER
    if all(s >= -0.05 for s in slopes):
        return NetClass.BOUNDED_TYPE
    if all(s >= -20.0 for s in slopes):
        return NetClass.MODERATE
    return NetClass.NOT_MODERATE


def calculus_nets():
    g = SpaceTimeGrid.covering(2, 0.3, 0.25, dx=0.05, dt=0.025)
    T, X, Y = g.meshes()
    pattern = np.cos(4 * X) * np.sin(3 * Y + T) + T * X * Y
    # each ladder entry mixes orders differently, so mu_0, mu_1, mu_2 decay apart
    u = Net(LADDER, tuple(
        Field(g, float(e) ** 1.5 * pattern + float(e) ** 0.5 * np.sin(9 * X) * T**2)
        for e in LADDER.values
    ))
    v = power_net(g, LADDER, 0.5, pattern=np.exp(-(X**2 + Y**2) * 10) * (1 + T))
    return u, v


def test_seminorm_orders_match_references():
    u, v = calculus_nets()
    for net in (u, v, u - v):
        for f in net.fields[::3]:
            for n in range(MAX_SEMINORM_ORDER + 1):
                assert seminorm(f, n) == reference_seminorm(f, n)


def test_valuation_table_matches_per_order_fits():
    u, _ = calculus_nets()
    rows = valuation_table(u)
    expected = []
    for n in range(3):
        mus = [reference_seminorm(f, n) for f in u.fields]
        est = fit_decay_exponent(LADDER.values, mus)
        expected += [(float(e), mu, n, est.slope, est.stderr) for e, mu in zip(LADDER.values, mus)]
    assert rows == expected


def test_classify_and_ultra_metric_match_per_order_fits():
    u, v = calculus_nets()
    for net in (u, v, u - v, power_net(u.grid, LADDER, -1.0)):
        slopes = [
            fit_decay_exponent(LADDER.values, [reference_seminorm(f, n) for f in net.fields]).slope
            for n in range(3)
        ]
        assert slopes == [valuation(net, n).slope for n in range(3)]
        assert classify(net) is reference_class(slopes)
    for a, b in ((u, v), (v, u), (u, u)):
        for n_terms in (1, 2, 3):
            expected = 0.0
            for n in range(n_terms):
                expected += 2.0 ** (-n - 1) * min(pseudo_seminorm(a, b, n), 1.0)
            assert ultra_metric(a, b, n_terms) == expected


# ---------------------------------------------------------------------------
# cones that reach the box edge: the one-sided stencils of the cone gather
# ---------------------------------------------------------------------------

def edge_grid(dim, horizon, radius, dx):
    """Grid with ``spatial_extent == support_radius + horizon``.

    Its inflated cone holds the first and last node of every axis, which
    covering grids (``margin_cells >= 2``) never reach in space.
    """
    return SpaceTimeGrid(dim=dim, horizon=horizon, support_radius=radius,
                         spatial_extent=radius + horizon, dx=dx, dt=dx / 2)


EDGE_GRIDS = {
    1: edge_grid(1, 0.4, 0.3, 0.05),
    2: edge_grid(2, 0.3, 0.25, 0.05),
    3: edge_grid(3, 0.4, 0.8, 0.1),  # 9x25^3, the benchmark's calculus shape
}


def edge_fields(g):
    """Fields whose largest derivatives sit on the box edges, plus noise."""
    T, *X = g.meshes()
    rng = np.random.default_rng(g.dim)
    fields = [Field(g, rng.standard_normal(g.shape))]
    for a in range(g.dim):
        for sign in (1.0, -1.0):
            # steep along axis a, so the one-sided second difference at its
            # first (sign -1) or last (sign +1) node is the sup
            fields.append(Field(g, np.exp(sign * 4.0 * X[a]) * (1.0 + T + 0.1 * X[a - 1])))
    return fields


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_edge_cone_reaches_first_and_last_nodes(dim):
    g = EDGE_GRIDS[dim]
    assert g.spatial_extent == g.support_radius + g.horizon
    cone = g.cone_nodes
    assert np.array_equal(cone.flat, np.flatnonzero(g.cone_mask()))
    for stride, inner, first, last in cone.axes:
        assert len(first) and len(last) and len(inner)
        assert len(inner) + len(first) + len(last) == len(cone.flat)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_edge_cone_seminorms_match_references(dim):
    for f in edge_fields(EDGE_GRIDS[dim]):
        expected = [reference_seminorm(f, n) for n in range(MAX_SEMINORM_ORDER + 1)]
        assert seminorms._seminorm_orders(f, MAX_SEMINORM_ORDER) == expected
        assert [seminorm(f, n) for n in range(MAX_SEMINORM_ORDER + 1)] == expected


def test_edge_cone_planted_net_matches_per_order_fits():
    # planted powers on a field that is nonzero up to the box edge, as the
    # benchmark plants them on a solved linear field
    g = EDGE_GRIDS[3]
    assert g.shape == (9, 25, 25, 25)
    T, X, Y, Z = g.meshes()
    base = np.cos(2.0 * X) * np.exp(Y) * (1.0 + T * Z) + 0.5 * np.sin(3.0 * Z - T)
    u = Net(LADDER, tuple(Field(g, float(e) ** 1.7 * 1.3 * base) for e in LADDER.values))
    v = Net(LADDER, tuple(
        Field(g, float(e) ** 8.0 * 0.7 * np.roll(base, 2, axis=1)) for e in LADDER.values
    ))
    ref = {}
    for name, net in (("u", u), ("v", v), ("u-v", u - v), ("v-u", v - u)):
        mus = np.array([[reference_seminorm(f, n) for n in range(3)] for f in net.fields])
        ests = [fit_decay_exponent(LADDER.values, mus[:, n]) for n in range(3)]
        ref[name] = (mus, ests)
    mus, ests = ref["u"]
    assert valuation_table(u) == [
        (float(e), mu, n, ests[n].slope, ests[n].stderr)
        for n in range(3)
        for e, mu in zip(LADDER.values, mus[:, n])
    ]
    for name, net, cls in (("u", u, NetClass.BOUNDED_TYPE),
                           ("v", v, NetClass.NEGLIGIBLE_AT_TESTED_ORDER)):
        assert classify(net) is reference_class([est.slope for est in ref[name][1]]) is cls
    for a, b, name in ((u, v, "u-v"), (v, u, "v-u")):
        for n_terms in (1, 2, 3):
            expected = 0.0
            for n, est in enumerate(ref[name][1][:n_terms]):
                expected += 2.0 ** (-n - 1) * min(math.exp(-est.slope), 1.0)
            assert ultra_metric(a, b, n_terms) == expected


def test_seminorm_table_peak_allocation():
    # the first derivatives share one buffer per net and the rest is read at
    # the cone nodes, so an 8-entry table never holds 2 whole-box arrays;
    # whole-box np.gradient arrays took about 5
    g = SpaceTimeGrid.covering(3, 0.4, 0.6, dx=0.1, dt=0.05)
    assert g.shape == (9, 25, 25, 25)
    T, X, Y, Z = g.meshes()
    base = np.cos(2.0 * X) * np.exp(Y) * (1.0 + T * Z) + 0.5 * np.sin(3.0 * Z - T)
    net = Net(LADDER, tuple(Field(g, float(e) ** 1.7 * base) for e in LADDER.values))
    g.cone_nodes  # built once per grid, before the measurement
    tracemalloc.start()
    try:
        seminorms._seminorm_table(net.fields, MAX_SEMINORM_ORDER)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * base.nbytes


# ---------------------------------------------------------------------------
# first derivatives as flat strided differences, against np.gradient
# ---------------------------------------------------------------------------

def strided_copies(a):
    """Arrays equal to ``a`` as transposed, reversed and step-2 views (1D: the last two)."""
    return [a.T.copy().T, a[::-1].copy()[::-1], np.repeat(a, 2, axis=-1)[..., ::2]]


def extreme_samples(shape, decades):
    """Random samples over ``2 * decades`` decades with signed zeros.

    At 307 decades a quarter of them are +-1.7e308: differences overflow,
    and inf - inf gives NaN in the one-sided formulas and second derivatives.
    """
    rng = np.random.default_rng(len(shape) + decades)
    a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-decades, decades, size=shape)
    a.flat[::5] *= -0.0  # signed zeros: the one-sided faces must keep their sign
    if decades == 307:
        a.flat[1::4] = np.copysign(1.7e308, a.flat[1::4])
    return a


def whole_faces(shape, axis):
    """Flat indices of every node on the first and on the last face of ``axis``."""
    index = np.arange(math.prod(shape)).reshape(shape)
    return tuple(np.take(index, k, axis=axis).ravel() for k in (0, -1))


@pytest.mark.parametrize(
    "shape", [(3,), (11,), (3, 3), (4, 7), (5, 3, 6), (3, 4, 5, 3), (6, 5, 3, 7)], ids=str
)
@pytest.mark.parametrize("decades", [0, 150, 307])
def test_gradient_into_matches_np_gradient(shape, decades):
    # given both whole faces, every node of the box is np.gradient's
    a = extreme_samples(shape, decades)
    views = [a, a.T, a[::-1], *strided_copies(a)]
    for f in views:
        for h in (0.05, 0.1, 1.0 / 3.0, 7.0):
            for axis in range(f.ndim):
                with np.errstate(over="ignore", invalid="ignore"):
                    expected = np.gradient(f, h, axis=axis, edge_order=2)
                    out = np.full(f.size, np.nan)
                    got = seminorms._gradient_into(f, h, axis, out, whole_faces(f.shape, axis))
                assert got is out
                got = got.reshape(f.shape)
                assert np.array_equal(got, expected, equal_nan=decades == 307)
                assert np.array_equal(np.signbit(got), np.signbit(expected))


def three_level_grid(dim):
    """Covering grid with 3 time levels, the fewest a grid has."""
    g = SpaceTimeGrid.covering(dim, 0.1, 0.2, dx=0.05, dt=0.05)
    assert g.shape[0] == 3
    return g


#: Covering, edge and 3-level grids per dimension.
GRID_KINDS = {
    "covering": lambda dim: SpaceTimeGrid.covering(dim, 0.2, 0.3, dx=0.1 if dim == 3 else 0.05),
    "edge": EDGE_GRIDS.get,
    "three_level": three_level_grid,
}


def cone_reads(g, axis):
    """Nodes where the first derivative along ``axis`` is read, as a boolean box.

    The seminorm reads it at every cone node, and the second derivatives
    along ``axis`` and each later axis read it at their stencils' nodes:
    both neighbours of a node inside that axis, the next two inward of a
    node on its first or last node.
    """
    mask = g.cone_mask()
    reads = mask.copy()
    nodes = np.argwhere(mask)
    for j in range(axis, mask.ndim):
        c, last = nodes[:, j], mask.shape[j] - 1
        for sel, offsets in (((c > 0) & (c < last), (-1, 1)), (c == 0, (1, 2)), (c == last, (-1, -2))):
            for o in offsets:
                nb = nodes[sel].copy()
                nb[:, j] += o
                reads[tuple(nb.T)] = True
    return reads


@pytest.mark.parametrize("kind", sorted(GRID_KINDS))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gradient_into_matches_np_gradient_where_the_cone_reads(kind, dim):
    g = GRID_KINDS[kind](dim)
    cone = g.cone_nodes
    spacings = (g.dt,) + (g.dx,) * dim
    fields = [extreme_samples(g.shape, decades) for decades in (0, 150, 307)]
    fields += [f.samples for f in edge_fields(g)]
    for axis, h in enumerate(spacings):
        reads = cone_reads(g, axis)
        # the cone's face lists hold exactly the face nodes it reads
        for k, face in zip((0, g.shape[axis] - 1), cone.faces[axis]):
            on_face = np.zeros(g.shape, dtype=bool)
            on_face[(slice(None),) * axis + (k,)] = True
            assert np.array_equal(face, np.flatnonzero(reads & on_face))
        for a in fields:
            with np.errstate(over="ignore", invalid="ignore"):
                expected = np.gradient(a, h, axis=axis, edge_order=2)[reads]
                got = seminorms._gradient_into(a, h, axis, np.full(a.size, np.nan), cone.faces[axis])
            got = got.reshape(g.shape)[reads]
            assert np.array_equal(got, expected, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("kind", sorted(GRID_KINDS))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_seminorms_match_references_on_every_grid_kind(kind, dim):
    g = GRID_KINDS[kind](dim)
    fields = [Field(g, extreme_samples(g.shape, decades)) for decades in (0, 150, 307)]
    fields += edge_fields(g)
    # the time derivative's one-sided formula at one first-level cone node
    # reads -inf + inf: mu_1 is NaN, not the inf of the centred differences
    s, _, first, _ = g.cone_nodes.axes[0]
    spike = np.zeros(g.shape)
    spike.flat[[first[0], first[0] + s]] = 1.7e308
    fields.append(Field(g, spike))
    for f in fields:
        with np.errstate(over="ignore", invalid="ignore"):
            expected = [reference_seminorm(f, n) for n in range(MAX_SEMINORM_ORDER + 1)]
            got = seminorms._seminorm_orders(f, MAX_SEMINORM_ORDER)
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


def test_cone_derivative_sup_keeps_a_nan_of_one_face_node():
    # inf - inf at one first-face node: np.max over the cone reads NaN, and
    # so must the sup, though the centred differences next to it read inf
    g = EDGE_GRIDS[2]
    stencil = g.cone_nodes.axes[1]
    s, _, first, _ = stencil
    f = np.zeros(math.prod(g.shape))
    f[first[0]] = f[first[0] + s] = np.inf
    with np.errstate(invalid="ignore"):
        d = np.gradient(f.reshape(g.shape), g.dx, axis=1, edge_order=2)[g.cone_mask()]
        got = seminorms._cone_derivative_sup(f, g.dx, stencil)
    assert np.isnan(np.max(np.abs(d))) and np.isinf(np.nanmax(np.abs(d)))
    assert np.isnan(got)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_seminorms_of_strided_samples_match_contiguous_copy(dim):
    g = EDGE_GRIDS[dim]
    base = edge_fields(g)[1].samples
    contiguous = [float(e) ** 1.5 * base for e in LADDER.values]
    strided = [strided_copies(c)[j % 3] for j, c in enumerate(contiguous)]
    for a, b in zip(contiguous, strided):
        assert np.array_equal(a, b) and not b.flags.c_contiguous
    net_c = Net(LADDER, tuple(Field(g, c) for c in contiguous))
    net_s = Net(LADDER, tuple(Field(g, c) for c in strided))
    for fc, fs in zip(net_c.fields, net_s.fields):
        assert not fs.samples.flags.c_contiguous
        for n in range(MAX_SEMINORM_ORDER + 1):
            assert seminorm(fs, n) == seminorm(fc, n)
    assert valuation_table(net_s) == valuation_table(net_c)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_seminorm_orders_difference_the_box_once_per_axis(dim, monkeypatch):
    # only the dim + 1 first derivatives difference the whole box; a
    # whole-box second-derivative stack would make (dim + 1)(dim + 4)/2
    # passes, 14 in 3D, and np.gradient is not called at all
    calls = []
    gradient_into = seminorms._gradient_into

    def counted(f, h, axis, out, faces):
        assert f.shape == EDGE_GRIDS[dim].shape and out.size == f.size
        calls.append(axis)
        return gradient_into(f, h, axis, out, faces)

    def forbidden(*args, **kwargs):
        raise AssertionError("np.gradient called on the seminorm path")

    f = edge_fields(EDGE_GRIDS[dim])[0]
    monkeypatch.setattr(seminorms, "_gradient_into", counted)
    monkeypatch.setattr(np, "gradient", forbidden)
    seminorms._seminorm_orders(f, MAX_SEMINORM_ORDER)
    assert calls == list(range(dim + 1))
