"""Self-tests of the benchmark's own arithmetic.

    python3 -m pytest -q benchmarks/test_selftest.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import colwave  # noqa: E402
import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_times_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 5.0, 9.0, 0, 1),
        Span("c", 2.0, 3.0, 1, 1),
        Span("d", 5.0, 7.0, 2, 1),
        Span("e", 6.0, 8.0, 2, 1),  # overlaps d: b's children cover [5, 8]
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.0])


def test_layer_metrics_of_a_synthetic_solve():
    spans = [
        Span("semilinear.picard", 0.0, 10.0, None, 1, {"iterations": 2, "converged": True}),
        Span("linwave.data", 0.5, 1.5, 0, 1, {"node_levels": 100}),
        Span("nets.f", 2.0, 2.5, 0, 1),
        Span("linwave.duhamel", 2.5, 5.5, 0, 1, {"node_lags": 1000}),
        Span("nets.f", 6.0, 6.5, 0, 1),
        Span("linwave.duhamel", 6.5, 9.5, 0, 1, {"node_lags": 1000}),
        Span("linwave.duhamel", 11.0, 12.0, None, 2, {"node_lags": 10}),
    ]
    m = tracing.layer_metrics(spans)
    assert m["semilinear.solves"] == 1
    assert m["semilinear.sweeps"] == 2 == tracing.picard_iterations(spans)
    assert m["linwave.duhamel_calls"] == 3
    assert m["linwave.duhamel_s"] == pytest.approx(7.0)
    assert m["linwave.duhamel_node_lags"] == 2010
    assert m["linwave.duhamel_ns_per_node_lag"] == pytest.approx(7e9 / 2010)
    assert m["semilinear.self_s"] == pytest.approx(10.0 - 1.0 - 0.5 - 3.0 - 0.5 - 3.0)
    assert m["nets.f_calls"] == 2
    assert m["trace.layer_self_s"] == pytest.approx(11.0)
    assert set(m) | {"trace.wall_s", "trace.overhead_s"} == set(tracing.LAYER_METRICS)


def _tiny_grid(dim: int = 1):
    return colwave.SpaceTimeGrid(
        dim=dim, horizon=0.1, support_radius=0.2, spatial_extent=0.5, dx=0.05, dt=0.05
    )


def test_duhamel_node_lags_hand_count():
    grid = _tiny_grid()
    assert grid.n_time == 2 and grid.spatial_shape == (21,)
    # level 1 integrates over 1 lag, level 2 over 2: 3 lags at each of 21 nodes
    assert tracing.duhamel_node_lags(grid, colwave.QuadratureSpec()) == 63
    # two sub-steps per dt double every level's lags
    quad2 = colwave.QuadratureSpec(time_points_per_dt=2)
    assert tracing.duhamel_node_lags(grid, quad2) == 126
    assert tracing.duhamel_node_lags(_tiny_grid(2), quad2) == 126 * 21


def test_gate_counts_a_failing_operation_once():
    gate = workloads.Gate()
    with gate.op("passes") as check:
        check(True, "never reported")
    with gate.op("misses twice") as check:
        check(False, "first tolerance")
        check(False, "second tolerance")
    with gate.op("raises") as check:
        raise ValueError("boom")
    assert gate.attempted == 3
    assert gate.failed == 2
    assert gate.failures[0] == "misses twice: first tolerance; second tolerance"
    assert gate.failures[1].startswith("raises: raised ValueError")


def test_traced_solve_matches_its_report_and_restores():
    """Wrappers see every sweep of a real solve; the untraced bindings are intact."""
    before = tracing.bindings()
    assert not tracing.changed_bindings(before)
    tracer = tracing.Tracer()
    assert tracing.install(tracer) >= len(tracing.WRAPPED)
    try:
        assert tracing.changed_bindings(before)
        problem = colwave.Problem(
            1, 0.1, 0.2, colwave.InitialDatum("gaussian_bump", outer_radius=0.2),
            colwave.InitialDatum("zero"), colwave.NonlinearitySpec("sine"),
        )
        grid = _tiny_grid()
        _, report = colwave.picard_solve(problem, 0.5, grid, colwave.QuadratureSpec())
    finally:
        for owner, name, value in before:
            setattr(owner, name, value)
    assert not tracing.changed_bindings(before)
    m = tracing.layer_metrics(tracer.spans)
    assert m["semilinear.sweeps"] == report.iterations == tracing.picard_iterations(tracer.spans)
    assert m["linwave.data_calls"] == 1
    assert m["linwave.duhamel_node_lags"] == 63 * report.iterations
    assert m["nets.f_calls"] == report.iterations
    assert all(math.isfinite(v) for v in m.values())
    assert m["trace.layer_self_s"] <= tracer.spans[0].end - tracer.spans[0].start + 1e-9
