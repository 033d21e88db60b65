import ast
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colwave
from colwave.errors import ValidationError
from colwave.linwave import QuadratureSpec
from colwave.nets import (
    _FLAT_CLIP,
    EpsilonLadder,
    InitialDatum,
    NonlinearitySpec,
    Problem,
    make_ladder,
)
from colwave.seminorms import SpaceTimeGrid, power_net
from helpers import datum_gradient


# ---------------------------------------------------------------------------
# package exports
# ---------------------------------------------------------------------------

def test_export_list_resolves():
    # ``from colwave import *`` fails on any stale name in __all__
    assert len(set(colwave.__all__)) == len(colwave.__all__)
    for name in colwave.__all__:
        assert hasattr(colwave, name), name


def _references(node, outside=frozenset()):
    """Names and attributes read in ``node``, each outside any def of that name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        outside = outside | {node.name}
    if isinstance(node, ast.Name) and node.id not in outside:
        yield node.id
    elif isinstance(node, ast.Attribute) and node.attr not in outside:
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _references(child, outside)


#: Public functions and methods named like a numpy attribute.  The scan
#: counts every ``array.shape`` as a use of ``SpaceTimeGrid.shape``, so it
#: cannot see whether these have a caller; each one here was checked by hand.
NUMPY_NAMES_REVIEWED = {"shape"}

def _public_defs(tree):
    """(def, is a method) of ``tree``'s public module-level functions and class methods."""
    for node in tree.body:
        method = isinstance(node, ast.ClassDef)
        for d in node.body if method else [node]:
            if isinstance(d, ast.FunctionDef) and not d.name.startswith("_"):
                yield d, method


def _defaulted(d, method):
    """(name, position in a call) of each defaulted parameter of ``d``; None if keyword-only."""
    args = d.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    static = any(getattr(dec, "id", None) == "staticmethod" for dec in d.decorator_list)
    skip = 1 if method and not static else 0  # self or cls
    params = [(p.arg, i - skip) for i, p in enumerate(positional) if i >= first]
    return params + [
        (p.arg, None)
        for p, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _passed(tree):
    """(callee name, keyword or position) of every argument a call in ``tree`` passes.

    A function handed to a call as an argument, as ``cli._build`` takes a
    constructor, also receives that call's keywords.
    """
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        name = _name(call.func)
        keywords = [kw.arg for kw in call.keywords if kw.arg is not None]
        for callee in filter(None, [name, *map(_name, call.args)]):
            yield from ((callee, k) for k in keywords)
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break
            yield name, i


def test_every_export_has_a_caller():
    # a public function or method that only tests call is dead code in the
    # package, and so is a defaulted parameter that only tests pass
    root = Path(__file__).resolve().parents[1]
    modules = sorted((root / "src" / "colwave").glob("*.py"))
    files = [p for p in modules if p.name != "__init__.py"]
    files += sorted((root / "benchmarks").glob("*.py"))
    used, passed = set(), set()
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        used.update(_references(tree))
        passed.update(_passed(tree))
    defs = [d for path in modules for d in _public_defs(ast.parse(path.read_text()))]
    functions = [d.name for d, _ in defs]
    assert {"meshes", "small_factor"} <= set(functions)  # methods are scanned
    exported = [n for n in colwave.__all__ if inspect.isfunction(getattr(colwave, n))]
    assert exported and set(exported) <= set(functions)
    assert [n for n in functions if n not in used] == []
    numpy_names = {n for n in functions if hasattr(np, n) or hasattr(np.ndarray, n)}
    assert numpy_names == NUMPY_NAMES_REVIEWED
    # the residual gathers its nodes from the cone; the whole-box mask is gone
    assert "residual_mask" not in used | set(functions)
    assert ("covering", "margin_cells") in passed  # through cli._build
    unpassed = [
        (d.name, p)
        for d, method in defs
        for p, i in _defaulted(d, method)
        if (d.name, p) not in passed and (d.name, i) not in passed
    ]
    assert unpassed == []


# ---------------------------------------------------------------------------
# ladders
# ---------------------------------------------------------------------------

def test_make_ladder_geometric():
    lad = make_ladder(0.5, 0.5, 3)
    np.testing.assert_allclose(lad.values, [0.5, 0.25, 0.125], rtol=0)


def test_make_ladder_powers_of_ten():
    lad = make_ladder(1.0, 0.1, 4)
    np.testing.assert_allclose(lad.values, [1.0, 0.1, 0.01, 0.001], rtol=1e-15)


def test_make_ladder_rejects_bad_ratio():
    with pytest.raises(ValidationError, match="ratio"):
        make_ladder(0.5, 1.5, 3)


@pytest.mark.parametrize(
    "kwargs,name",
    [
        (dict(eps0=0.0, ratio=0.5, count=3), "eps0"),
        (dict(eps0=1.5, ratio=0.5, count=3), "eps0"),
        (dict(eps0=0.5, ratio=0.5, count=2), "count"),
        (dict(eps0=0.5, ratio=0.5, count=3.7), "count"),
        (dict(eps0=0.5, ratio=0.5, count=True), "count"),
    ],
)
def test_ladder_validation(kwargs, name):
    with pytest.raises(ValidationError, match=name):
        make_ladder(**kwargs)


def test_ladder_rejects_an_underflowing_last_entry():
    # 0.5 * (1e-200)**2 is 0.0: the ladder would hand a solver eps = 0
    with pytest.raises(ValidationError, match="ratio"):
        make_ladder(0.5, 1e-200, 3)
    with pytest.raises(ValidationError, match="ratio"):
        make_ladder(1.0, 0.5, 1076)
    assert make_ladder(1.0, 0.5, 1075)[-1] == 5e-324  # subnormal, but positive


def test_counts_accept_numpy_integers():
    # counts are validated as integers, and numpy integers are integers
    n = np.int64
    assert len(EpsilonLadder(count=n(4))) == 4
    assert QuadratureSpec(n(8), n(6), n(2)).polar_points == 6
    grid = SpaceTimeGrid.covering(n(2), 0.2, 0.2, dx=0.1, margin_cells=n(3))
    assert grid.spatial_shape == (15, 15)
    zero = InitialDatum("zero")
    assert Problem(n(3), 0.5, 0.2, zero, zero, NonlinearitySpec("zero")).dim == 3


_POWER_GRID = SpaceTimeGrid.covering(1, 0.1, 0.1, dx=0.05)


def _entries(net):
    # without a pattern every entry of power_net is the constant eps_j**b
    return tuple(float(f.samples[0, 0]) for f in net.fields)


def test_power_number_values():
    lad = make_ladder(1.0, 0.1, 3)
    assert _entries(power_net(_POWER_GRID, lad, 1.0)) == (1.0, 0.1, 0.01)
    assert _entries(power_net(_POWER_GRID, lad, 0.0)) == (1.0, 1.0, 1.0)
    squares = power_net(_POWER_GRID, make_ladder(0.5, 0.5, 3), 2.0)
    assert _entries(squares)[:2] == (0.25, 0.0625)


@given(b1=st.floats(-3, 3), b2=st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_power_number_multiplicative(b1, b2):
    lad = make_ladder(0.5, 0.5, 6)
    prod = power_net(_POWER_GRID, lad, b1) * power_net(_POWER_GRID, lad, b2)
    expected = power_net(_POWER_GRID, lad, b1 + b2)
    for a, b in zip(_entries(prod), _entries(expected)):
        assert a == pytest.approx(b, rel=1e-12)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def test_plateau_values():
    d = InitialDatum("plateau_bump", outer_radius=1.0, inner_radius=0.5, amplitude=1.0)
    assert d.value([0.0]) == 1.0
    assert d.value([2.0]) == 0.0
    # exactly the amplitude on the closed inner ball
    for x in (0.0, 0.3, 0.49, 0.5):
        assert d.value([x]) == 1.0
    # strictly between 0 and amplitude on the open annulus
    mid = d.value([0.75])
    assert 0.0 < mid < 1.0


def test_plateau_flat_inside():
    d = InitialDatum("plateau_bump", outer_radius=1.0, inner_radius=0.5, amplitude=2.0)
    pts = np.linspace(-0.5, 0.5, 41)[:, None]
    np.testing.assert_array_equal(d.value(pts), 2.0)
    np.testing.assert_array_equal(datum_gradient(d, pts), 0.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_datum_support(dim):
    rng = np.random.default_rng(7)
    for kind, kwargs in [
        ("plateau_bump", dict(outer_radius=0.8, inner_radius=0.4)),
        ("gaussian_bump", dict(outer_radius=0.8)),
    ]:
        d = InitialDatum(kind, amplitude=1.3, **kwargs)
        dirs = rng.normal(size=(100, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = 0.8 + rng.uniform(0.0, 5.0, size=(100, 1))
        assert np.all(d.value(dirs * radii) == 0.0)
        assert np.all(datum_gradient(d, dirs * radii) == 0.0)


def flat_band_radii(datum):
    """Dense radii through the datum, with the _FLAT_CLIP band edges and their neighbours."""
    if datum.kind == "zero":
        return np.linspace(0.0, 1.0, 101)
    if datum.kind == "plateau_bump":
        width = datum.outer_radius - datum.inner_radius
        edges = [datum.inner_radius + width * s for s in (_FLAT_CLIP, 1.0 - _FLAT_CLIP)]
    else:
        edges = [datum.outer_radius * math.sqrt(1.0 - _FLAT_CLIP)]
    edges.append(datum.outer_radius)
    near = [np.nextafter(e, d) for e in edges for d in (0.0, 2.0 * e)]
    dense = np.linspace(0.0, 1.5 * datum.outer_radius, 4001)
    return np.concatenate([dense, edges, near, [0.0, -0.0]])


@pytest.mark.parametrize(
    "datum",
    [
        InitialDatum("plateau_bump", outer_radius=0.8, inner_radius=0.3, amplitude=1.0),
        InitialDatum("plateau_bump", outer_radius=1.3, inner_radius=0.1, amplitude=-0.5),
        InitialDatum("gaussian_bump", outer_radius=0.5, amplitude=1.0),
        InitialDatum("gaussian_bump", outer_radius=0.3, amplitude=-2.0),
        InitialDatum("zero"),
    ],
    ids=["plateau", "plateau_neg", "gaussian", "gaussian_neg", "zero"],
)
def test_radial_orders_are_leading_entries(datum):
    # a lower order computes less, never a different value
    rho = flat_band_radii(datum)
    full = datum._radial(rho, 1)
    assert len(full) == 2
    part = datum._radial(rho, 0)
    assert len(part) == 1
    assert np.array_equal(part[0], full[0])
    assert np.array_equal(np.signbit(part[0]), np.signbit(full[0]))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize(
    "datum",
    [
        InitialDatum("gaussian_bump", outer_radius=1.0, amplitude=1.0),
        InitialDatum("plateau_bump", outer_radius=1.0, inner_radius=0.4, amplitude=0.7),
    ],
    ids=["gaussian", "plateau"],
)
def test_datum_gradient_matches_finite_differences(dim, datum):
    # centered finite differences as the independent derivative oracle
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.95, 0.95, size=(20, dim))
    h = 1e-4
    grad = datum_gradient(datum, pts)
    for axis in range(dim):
        e = np.zeros(dim)
        e[axis] = h
        fd = (datum.value(pts + e) - datum.value(pts - e)) / (2 * h)
        np.testing.assert_allclose(grad[:, axis], fd, atol=1e-6)


def test_datum_validation():
    with pytest.raises(ValidationError, match="kind"):
        InitialDatum("box")
    with pytest.raises(ValidationError, match="inner_radius"):
        InitialDatum("plateau_bump", outer_radius=1.0)
    with pytest.raises(ValidationError, match="inner_radius"):
        InitialDatum("plateau_bump", outer_radius=1.0, inner_radius=1.5)
    with pytest.raises(ValidationError, match="outer_radius"):
        InitialDatum("gaussian_bump", outer_radius=0.0)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def test_polynomial_value():
    f = NonlinearitySpec("polynomial", (0.0, 0.0, 2.0))  # 2 u^3
    assert f.value(2.0) == 16.0
    assert f.value(0.0) == 0.0


def test_sine_and_exp():
    assert NonlinearitySpec("sine").value(0.0) == 0.0
    assert NonlinearitySpec("exp_minus_one").value(1.0) == pytest.approx(math.e - 1.0, rel=1e-12)
    assert NonlinearitySpec("zero").value(3.0) == 0.0


def test_constant_term_rejected():
    with pytest.raises(ValidationError, match="constant_term"):
        NonlinearitySpec("polynomial", (1.0,), constant_term=0.5)


def test_nonlinearity_validation():
    with pytest.raises(ValidationError, match="kind"):
        NonlinearitySpec("tanh")
    with pytest.raises(ValidationError, match="coefficients"):
        NonlinearitySpec("polynomial", ())
    with pytest.raises(ValidationError, match="coefficients"):
        NonlinearitySpec("sine", (1.0,))


@given(
    kind=st.sampled_from(["sine", "exp_minus_one", "zero"]),
)
@settings(max_examples=20, deadline=None)
def test_f_vanishes_at_zero(kind):
    assert NonlinearitySpec(kind).value(0.0) == 0.0


@given(coeffs=st.lists(st.floats(-5, 5), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_polynomial_vanishes_at_zero(coeffs):
    f = NonlinearitySpec("polynomial", tuple(coeffs))
    assert f.value(0.0) == 0.0


# ---------------------------------------------------------------------------
# problems
# ---------------------------------------------------------------------------

def _datum(r=0.5):
    return InitialDatum("gaussian_bump", outer_radius=r, amplitude=1.0)


def test_problem_validation():
    ok = Problem(
        dim=2, horizon=1.0, support_radius=0.5, u0=_datum(), u1=InitialDatum("zero"),
        f=NonlinearitySpec("sine"), small_exponent=1.0,
    )
    assert ok.small_factor(0.5) == 0.5
    with pytest.raises(ValidationError, match="dim"):
        Problem(dim=4, horizon=1.0, support_radius=0.5, u0=_datum(),
                u1=InitialDatum("zero"), f=NonlinearitySpec("sine"))
    with pytest.raises(ValidationError, match="dim"):
        Problem(dim=True, horizon=1.0, support_radius=0.5, u0=_datum(),
                u1=InitialDatum("zero"), f=NonlinearitySpec("sine"))
    with pytest.raises(ValidationError, match="small_exponent"):
        Problem(dim=1, horizon=1.0, support_radius=0.5, u0=_datum(),
                u1=InitialDatum("zero"), f=NonlinearitySpec("sine"), small_exponent=0.0)
    with pytest.raises(ValidationError, match="u0"):
        Problem(dim=1, horizon=1.0, support_radius=0.3, u0=_datum(0.5),
                u1=InitialDatum("zero"), f=NonlinearitySpec("sine"))
