"""What the benchmark under ``benchmarks/`` needs from the library.

The benchmark runs the same scripts against two versions of the library,
so a function it wraps or a call it makes must keep working in both.  This
module only reads ``benchmarks/``: it parses the wrapped names out of
``tracing.py`` and binds the calls ``workloads.py`` makes.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import colwave

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def wrapped_names():
    """The keys of ``WRAPPED`` in ``benchmarks/tracing.py``, without importing it."""
    tree = ast.parse((BENCHMARKS / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError("benchmarks/tracing.py defines no WRAPPED")


@pytest.mark.parametrize("module_name, attr", wrapped_names())
def test_wrapped_function_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_traced_arguments_exist():
    # the tracer reads these arguments of a call by name
    assert {"h", "grid", "quad"} <= set(inspect.signature(colwave.solve_linear).parameters)
    for name in ("field_to_csv", "field_to_binary", "field_from_binary"):
        assert "path" in inspect.signature(getattr(colwave.linwave, name)).parameters


@pytest.mark.parametrize(
    "name, args, kwargs",
    [
        ("solve_net", ("problem", "ladder", "grid", "quad"), {"tol": 1e-10, "threads": 1}),
        ("picard_solve", ("problem", 0.25, "grid", "quad"), {"tol": 1e-10}),
        ("check_wave_oracle", (2, (0.1,)), {"dx": 0.1}),
        ("check_support", ("field", 0.4, 1e-8), {}),
        ("seminorms.fit_decay_exponent", ("eps", "mu"), {}),
        ("classify", ("net",), {}),
        ("ultra_metric", ("net_u", "net_v", 3), {}),
    ],
)
def test_workload_call_binds(name, args, kwargs):
    fn = colwave
    for part in name.split("."):
        fn = getattr(fn, part)
    inspect.signature(fn).bind(*args, **kwargs)


def test_picard_sweep_is_one_sourced_solve(linear_solves):
    # the tracer's ``semilinear.sweeps`` counts the ``solve_linear`` calls
    # with a source under ``picard_solve``; each sweep must make exactly one
    problem = colwave.Problem(
        dim=1, horizon=0.5, support_radius=0.4,
        u0=colwave.InitialDatum("gaussian_bump", outer_radius=0.4, amplitude=1.0),
        u1=colwave.InitialDatum("zero"), f=colwave.NonlinearitySpec("sine"), small_exponent=1.0,
    )
    grid = colwave.SpaceTimeGrid.covering(1, 0.5, 0.4, dx=0.05, dt=0.025)
    quad = colwave.QuadratureSpec(angular_points=8, polar_points=8)
    _, report = colwave.picard_solve(problem, 0.5, grid, quad, tol=1e-10)
    assert report.converged and report.iterations > 1
    assert sum(h is not None for h in linear_solves) == report.iterations
