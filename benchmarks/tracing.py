"""Span tracing around colwave's public functions, from outside the library.

A traced worker replaces each function named in ``WRAPPED`` on its defining
module and on every ``colwave`` module that bound it with ``from ... import``
(and ``NonlinearitySpec.value`` on its class) by a wrapper that records one
span per call: (name, start, end, parent, run id) plus a few counts read off
the call's arguments or result.  Spans stay in memory; the worker reduces
them to per-layer metrics and writes them out once, at the end.

A layer's self time is its span's duration minus the time its child spans
cover, so the self times of all spans sum to the time spent inside wrapped
calls and never exceed the wall time around them.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

#: (module, attribute) of every wrapped function.  ``solve_linear`` is
#: labelled per call: ``linwave.duhamel`` when a source ``h`` is given,
#: ``linwave.data`` otherwise.
WRAPPED = {
    ("colwave.linwave", "solve_linear"): None,
    ("colwave.linwave", "check_support"): "linwave.support",
    ("colwave.linwave", "field_to_csv"): "linwave.io",
    ("colwave.linwave", "field_to_binary"): "linwave.io",
    ("colwave.linwave", "field_from_binary"): "linwave.io",
    ("colwave.semilinear", "picard_solve"): "semilinear.picard",
    ("colwave.semilinear", "solve_net"): "semilinear.solve_net",
    ("colwave.semilinear", "apply_fixed_point_map"): "semilinear.map",
    ("colwave.semilinear", "residual_sup"): "semilinear.residual",
    ("colwave.nets", "NonlinearitySpec.value"): "nets.f",
    ("colwave.seminorms", "seminorm"): "seminorms.seminorm",
    ("colwave.seminorms", "fit_decay_exponent"): "seminorms.fit",
    ("colwave.seminorms", "valuation"): "seminorms.metric",
    ("colwave.seminorms", "valuation_table"): "seminorms.metric",
    ("colwave.seminorms", "classify"): "seminorms.metric",
    ("colwave.seminorms", "ultra_metric"): "seminorms.metric",
    ("colwave.verify", "check_wave_oracle"): "verify.oracle",
    ("colwave.cli", "main"): "cli.main",
}

#: Per-layer metrics of a traced run, in report order, with their units.
LAYER_METRICS = {
    "linwave.duhamel_calls": "count",
    "linwave.duhamel_s": "s",
    "linwave.duhamel_ms_per_apply": "ms",
    "linwave.duhamel_node_lags": "count",
    "linwave.duhamel_ns_per_node_lag": "ns",
    "semilinear.solves": "count",
    "semilinear.sweeps": "count",
    "semilinear.sweeps_per_solve": "count",
    "semilinear.unconverged": "count",
    "semilinear.self_s": "s",
    "semilinear.residual_s": "s",
    "linwave.data_calls": "count",
    "linwave.data_s": "s",
    "linwave.data_ns_per_node_level": "ns",
    "seminorms.seminorm_calls": "count",
    "seminorms.seminorm_s": "s",
    "seminorms.fit_s": "s",
    "seminorms.metric_s": "s",
    "linwave.io_s": "s",
    "linwave.io_mb": "MB",
    "linwave.support_s": "s",
    "cli.self_s": "s",
    "nets.f_calls": "count",
    "nets.f_s": "s",
    "verify.self_s": "s",
    "verify.checks_failed": "count",
    "trace.wall_s": "s",
    "trace.layer_self_s": "s",
    "trace.overhead_s": "s",
}


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    info: dict = dataclasses.field(default_factory=dict)


def duhamel_node_lags(grid, quad) -> int:
    """Target nodes times trapezoid lags of one Duhamel apply on ``grid``.

    Level n (time n*dt) integrates over n * time_points_per_dt lags, for
    every spatial node; the count does not depend on how the operator is
    evaluated.
    """
    nodes = math.prod(grid.spatial_shape)
    nt = grid.n_time
    return nodes * quad.time_points_per_dt * nt * (nt + 1) // 2


def _solve_linear_info(bound, result) -> tuple[str, dict]:
    grid, quad = bound["grid"], bound["quad"]
    if bound["h"] is None:
        return "linwave.data", {"node_levels": math.prod(grid.shape)}
    return "linwave.duhamel", {"node_lags": duhamel_node_lags(grid, quad)}


def _io_info(bound, result) -> dict:
    return {"bytes": os.path.getsize(bound["path"])}


def _picard_info(bound, result) -> dict:
    report = result[1]
    return {"iterations": report.iterations, "converged": report.converged}


def _ok_info(bound, result) -> dict:
    return {"ok": bool(result.ok)}


_INFO = {
    "field_to_csv": _io_info,
    "field_to_binary": _io_info,
    "field_from_binary": _io_info,
    "picard_solve": _picard_info,
    "check_support": _ok_info,
    "check_wave_oracle": _ok_info,
}


class Tracer:
    """In-memory span recorder for one single-threaded worker process."""

    def __init__(self, run_id=lambda: 0):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, attr: str, fn, label: str | None):
        signature = inspect.signature(fn)
        info_fn = _INFO.get(attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(label or attr, time.perf_counter(), math.nan, parent, tracer.run_id())
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if label is None or info_fn is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if label is None:
                    span.name, span.info = _solve_linear_info(bound.arguments, result)
                else:
                    span.info = info_fn(bound.arguments, result)
            return result

        wrapper.__bench_original__ = fn
        return wrapper


def _colwave_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "colwave"]


def bindings() -> list[tuple[object, str, object]]:
    """Every current binding (owner, name, object) of a wrapped function."""
    out = []
    for mod_name, attr in WRAPPED:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[mod_name], cls_name)
            out.append((cls, meth, cls.__dict__[meth]))
            continue
        original = getattr(sys.modules[mod_name], attr)
        for module in _colwave_modules():
            for name, value in vars(module).items():
                if value is original:
                    out.append((module, name, value))
    return out


def changed_bindings(before: list[tuple[object, str, object]]) -> list[str]:
    """Bindings from ``before`` that no longer hold their original object."""
    return [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name, value in before
        if getattr(owner, name) is not value or is_wrapper(getattr(owner, name))
    ]


def install(tracer: Tracer) -> int:
    """Wrap every binding of every function in ``WRAPPED``; returns the count."""
    labels = {attr: label for (_, attr), label in WRAPPED.items()}
    wrappers = {}
    current = bindings()
    for owner, name, fn in current:
        if id(fn) not in wrappers:
            wrappers[id(fn)] = tracer.wrap(fn.__qualname__, fn, labels[fn.__qualname__])
        setattr(owner, name, wrappers[id(fn)])
    return len(current)


def is_wrapper(obj) -> bool:
    return hasattr(obj, "__bench_original__")


def write_spans(spans: list[Span], path) -> None:
    """One JSON object per span, in call order."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(dataclasses.asdict(s)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                covered += 0.0 if hi is None else hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        covered += 0.0 if hi is None else hi - lo
        out.append(s.end - s.start - covered)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Reduce one traced workload's spans to the per-layer metrics.

    ``trace.wall_s`` and ``trace.overhead_s`` need the wall clock around
    the workload and are filled in by the caller.
    """
    st = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s, t in zip(spans, st):
        self_s[s.name] += t
        calls[s.name] += 1

    def total(name: str, key: str) -> float:
        return sum(s.info.get(key, 0) for s in spans if s.name == name)

    picard = [s for s in spans if s.name == "semilinear.picard"]
    picard_idx = {i for i, s in enumerate(spans) if s.name == "semilinear.picard"}
    sweeps = sum(1 for s in spans if s.name == "linwave.duhamel" and s.parent in picard_idx)
    duhamel_calls = calls["linwave.duhamel"]
    node_lags = total("linwave.duhamel", "node_lags")
    node_levels = total("linwave.data", "node_levels")
    return {
        "linwave.duhamel_calls": duhamel_calls,
        "linwave.duhamel_s": self_s["linwave.duhamel"],
        "linwave.duhamel_ms_per_apply": (
            1e3 * self_s["linwave.duhamel"] / duhamel_calls if duhamel_calls else 0.0
        ),
        "linwave.duhamel_node_lags": node_lags,
        "linwave.duhamel_ns_per_node_lag": (
            1e9 * self_s["linwave.duhamel"] / node_lags if node_lags else 0.0
        ),
        "semilinear.solves": len(picard),
        "semilinear.sweeps": sweeps,
        "semilinear.sweeps_per_solve": sweeps / len(picard) if picard else 0.0,
        "semilinear.unconverged": sum(1 for s in picard if not s.info.get("converged", False)),
        "semilinear.self_s": (
            self_s["semilinear.picard"] + self_s["semilinear.solve_net"] + self_s["semilinear.map"]
        ),
        "semilinear.residual_s": self_s["semilinear.residual"],
        "linwave.data_calls": calls["linwave.data"],
        "linwave.data_s": self_s["linwave.data"],
        "linwave.data_ns_per_node_level": (
            1e9 * self_s["linwave.data"] / node_levels if node_levels else 0.0
        ),
        "seminorms.seminorm_calls": calls["seminorms.seminorm"],
        "seminorms.seminorm_s": self_s["seminorms.seminorm"],
        "seminorms.fit_s": self_s["seminorms.fit"],
        "seminorms.metric_s": self_s["seminorms.metric"],
        "linwave.io_s": self_s["linwave.io"],
        "linwave.io_mb": total("linwave.io", "bytes") / 1e6,
        "linwave.support_s": self_s["linwave.support"],
        "cli.self_s": self_s["cli.main"],
        "nets.f_calls": calls["nets.f"],
        "nets.f_s": self_s["nets.f"],
        "verify.self_s": self_s["verify.oracle"],
        "verify.checks_failed": sum(
            1 for s in spans if s.info.get("ok") is False
        ),
        "trace.layer_self_s": sum(st),
    }


def picard_iterations(spans: list[Span]) -> int:
    """Sum of SolveReport.iterations over every traced Picard solve."""
    return sum(s.info.get("iterations", 0) for s in spans if s.name == "semilinear.picard")
