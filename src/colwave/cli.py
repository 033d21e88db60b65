"""Config-driven command line front end.

Subcommands: solve-linear, solve-semilinear, valuation, check, oracle,
demo.  Configs are JSON documents (schema in the README); outputs are CSV
files plus a plain-text run summary.  Exit codes: 0 ok, 1 check failed,
2 config error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field

from .errors import (
    ColwaveError,
    ConfigError,
    DivergenceError,
    LifespanExceededError,
    ValidationError,
)
from .linwave import (
    QuadratureSpec,
    check_support,
    field_to_binary,
    field_to_csv,
    solve_linear,
)
from .nets import EpsilonLadder, InitialDatum, NonlinearitySpec, Problem
from .seminorms import SpaceTimeGrid, valuation_table
from .semilinear import DEFAULT_MAX_ITER, DEFAULT_TOL, reports_to_csv, solve_net
from .suite import CHECK_NAMES, CONFIG_CHECKS, RESIDUAL_C, Solved, fmt, run_suite, write_csv
from .verify import oracle_lifespan

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_SOLVER_FAILURE = 3


@dataclass
class ExperimentConfig:
    problem: Problem
    ladder: EpsilonLadder
    grid: SpaceTimeGrid
    quad: QuadratureSpec
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    outputs: str = "out"
    checks: list[str] = field(default_factory=list)
    residual_constant: float = RESIDUAL_C

    def to_dict(self) -> dict:
        """Every dataclass field but the grid's three that come from the problem."""
        doc = asdict(self)
        for key in ("dim", "horizon", "support_radius"):
            del doc["grid"][key]
        return doc


def _need(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return doc[key]


def _object(doc: dict, key: str, path: str = "", default: dict | None = None) -> dict:
    """The JSON object at ``doc[key]``; required when there is no default."""
    value = _need(doc, key, path) if default is None else doc.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"{path}.{key}" if path else key, "expected an object")
    return value


def _build(path: str, ctor, **kwargs):
    try:
        return ctor(**kwargs)
    except ValidationError as err:
        prefix = f"{path}.{err.parameter}" if path else err.parameter
        raise ConfigError(prefix, str(err)) from err
    except (TypeError, ValueError) as err:
        raise ConfigError(path, f"bad fields: {err}") from err


def _reject_bad_scalars(doc, path: str) -> None:
    """No config field is boolean (passes every int check) or non-finite
    (an infinite ``tol`` or ``residual_constant`` makes its check unfailable)."""
    if isinstance(doc, bool):
        raise ConfigError(path, "must not be a boolean")
    if isinstance(doc, float) and not math.isfinite(doc):
        raise ConfigError(path, "must be finite")
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        _reject_bad_scalars(value, f"{path}.{key}" if path else str(key))


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a config document; errors name the offending field."""
    if not isinstance(doc, dict):
        raise ConfigError("", "config must be a JSON object")
    _reject_bad_scalars(doc, "")
    pdoc = _object(doc, "problem")
    u0 = _build("problem.u0", InitialDatum, **_object(pdoc, "u0", "problem"))
    u1 = _build("problem.u1", InitialDatum, **_object(pdoc, "u1", "problem"))
    f = _build("problem.f", NonlinearitySpec, **_object(pdoc, "f", "problem"))
    problem = _build(
        "problem",
        Problem,
        dim=_need(pdoc, "dim", "problem"),
        horizon=_need(pdoc, "horizon", "problem"),
        support_radius=_need(pdoc, "support_radius", "problem"),
        u0=u0,
        u1=u1,
        f=f,
        small_exponent=pdoc.get("small_exponent", 1.0),
    )
    ladder = _build("ladder", EpsilonLadder, **_object(doc, "ladder", default={}))
    gdoc = _object(doc, "grid", default={})
    if "dx" not in gdoc:
        raise ConfigError("grid.dx", "missing required field")
    if "spatial_extent" in gdoc:
        grid = _build(
            "grid",
            SpaceTimeGrid,
            dim=problem.dim,
            horizon=problem.horizon,
            support_radius=problem.support_radius,
            **gdoc,
        )
    else:
        grid = _build(
            "grid",
            SpaceTimeGrid.covering,
            dim=problem.dim,
            horizon=problem.horizon,
            support_radius=problem.support_radius,
            dx=gdoc["dx"],
            dt=gdoc.get("dt"),
            margin_cells=gdoc.get("margin_cells", 2),
        )
    quad = _build("quad", QuadratureSpec, **_object(doc, "quad", default={}))
    tol = doc.get("tol", DEFAULT_TOL)
    if not (isinstance(tol, (int, float)) and tol > 0):
        raise ConfigError("tol", "must be a positive number")
    max_iter = doc.get("max_iter", DEFAULT_MAX_ITER)
    if not (isinstance(max_iter, int) and max_iter >= 1):
        raise ConfigError("max_iter", "must be a positive integer")
    checks = doc.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError("checks", "expected a list of check names")
    for name in checks:
        if name not in CHECK_NAMES:
            raise ConfigError("checks", f"unknown check {name!r}; choose from {CHECK_NAMES}")
    outputs = doc.get("outputs", "out")
    if not isinstance(outputs, str):
        raise ConfigError("outputs", "expected a directory name")
    residual_constant = doc.get("residual_constant", RESIDUAL_C)
    if not (isinstance(residual_constant, (int, float)) and residual_constant > 0):
        raise ConfigError("residual_constant", "must be a positive number")
    return ExperimentConfig(
        problem=problem,
        ladder=ladder,
        grid=grid,
        quad=quad,
        tol=float(tol),
        max_iter=max_iter,
        outputs=outputs,
        checks=list(checks),
        residual_constant=float(residual_constant),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError("config", f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError("config", f"invalid JSON in {path}: {err}") from err
    return parse_config(doc)


def dump_config(cfg: ExperimentConfig, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _outdir(cfg: ExperimentConfig | None, args) -> str:
    out = args.out or (cfg.outputs if cfg else "out")
    os.makedirs(out, exist_ok=True)
    return out


def _write_summary(out: str, blocks: list[str]) -> None:
    with open(os.path.join(out, "summary.txt"), "w") as fh:
        fh.write("\n".join(blocks) + "\n")


def _cmd_solve_linear(cfg: ExperimentConfig, args) -> int:
    out = _outdir(cfg, args)
    fld = solve_linear(cfg.problem.u0, cfg.problem.u1, None, cfg.grid, cfg.quad)
    field_to_csv(fld, os.path.join(out, "linear_field.csv"))
    field_to_binary(fld, os.path.join(out, "linear_field.bin"))
    rep = check_support(fld, cfg.problem.support_radius, tol=1e-8)
    block = (
        f"solve-linear ok\n  grid shape {fld.grid.shape}\n"
        f"  support max_outside={fmt(rep.max_outside)}"
    )
    _write_summary(out, [block])
    print(block)
    return EXIT_OK


def _solve_net(cfg: ExperimentConfig, threads: int, linear_part=None):
    return solve_net(
        cfg.problem, cfg.ladder, cfg.grid, cfg.quad, cfg.tol, cfg.max_iter, threads=threads,
        linear_part=linear_part,
    )


def _cmd_solve_semilinear(cfg: ExperimentConfig, args) -> int:
    out = _outdir(cfg, args)
    net, reports = _solve_net(cfg, args.threads)
    reports_to_csv(reports, os.path.join(out, "solve_reports.csv"))
    for j, fld in enumerate(net.fields):
        field_to_binary(fld, os.path.join(out, f"field_{j:03d}.bin"))
    lines = [
        f"solve-semilinear eps={fmt(r.eps)} iterations={r.iterations} "
        f"converged={r.converged} final_increment={fmt(r.final_increment)}"
        for r in reports
    ]
    _write_summary(out, lines)
    print("\n".join(lines))
    if not all(r.converged for r in reports):
        return EXIT_SOLVER_FAILURE
    return EXIT_OK


def _cmd_valuation(cfg: ExperimentConfig, args) -> int:
    out = _outdir(cfg, args)
    net, reports = _solve_net(cfg, args.threads)
    rows = valuation_table(net)
    write_csv(os.path.join(out, "valuation.csv"), "eps,mu,n,slope,stderr", rows)
    print(f"valuation table written ({len(rows)} rows)")
    if not all(r.converged for r in reports):
        return EXIT_SOLVER_FAILURE
    return EXIT_OK


def _cmd_check(cfg: ExperimentConfig, args) -> int:
    out = _outdir(cfg, args)
    names = args.check or cfg.checks
    if not names:
        raise ConfigError("checks", "no checks selected (config 'checks' or --check)")
    solved = None
    if set(names) != {"oracle"}:  # the oracle solves its own plateau problems
        linear = solve_linear(cfg.problem.u0, cfg.problem.u1, None, cfg.grid, cfg.quad)
        solved = Solved(cfg.problem, *_solve_net(cfg, args.threads, linear), linear)
    blocks = []
    all_ok = True
    for name in names:
        result = CONFIG_CHECKS[name](cfg, solved, args.threads)
        write_csv(os.path.join(out, f"{name}.csv"), result.header, result.rows)
        blocks.append(result.details)
        print(result.details)
        all_ok = all_ok and result.ok
    _write_summary(out, blocks)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _cmd_oracle(args) -> int:
    value = oracle_lifespan(args.eps, args.t)
    print(repr(value))
    return EXIT_OK


def _cmd_demo(args) -> int:
    results = run_suite()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "demo_summary.txt"), "w") as fh:
            for r, seconds in results:
                fh.write(f"{'PASS' if r.ok else 'FAIL'} {r.name} {r.details} [{seconds:.1f}s]\n")
    return EXIT_OK if all(r.ok for r, _ in results) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _resolve_threads(value: int | None) -> int:
    if value is None:
        env = os.environ.get("COLWAVE_THREADS")
        try:
            value = int(env) if env else 1
        except ValueError:
            raise ConfigError("threads", f"COLWAVE_THREADS is not an integer: {env!r}") from None
    if value == 0:
        value = os.cpu_count() or 1
    if value < 0:
        raise ConfigError("threads", "must be >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colwave",
        description="Solution nets for small-nonlinearity wave equations, with verification checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (0 = auto; env COLWAVE_THREADS as fallback)")

    for name in ("solve-linear", "solve-semilinear", "valuation"):
        add_common(sub.add_parser(name))
    p_check = sub.add_parser("check")
    add_common(p_check)
    p_check.add_argument("--check", action="append", choices=CHECK_NAMES,
                         help="check to run (repeatable; defaults to config 'checks')")
    p_oracle = sub.add_parser("oracle")
    p_oracle.add_argument("--eps", type=float, required=True)
    p_oracle.add_argument("--t", type=float, required=True)
    p_demo = sub.add_parser("demo")
    add_common(p_demo, needs_config=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "oracle":
            return _cmd_oracle(args)
        args.threads = _resolve_threads(getattr(args, "threads", None))
        if args.command == "demo":
            return _cmd_demo(args)
        cfg = load_config(args.config)
        if args.command == "solve-linear":
            return _cmd_solve_linear(cfg, args)
        if args.command == "solve-semilinear":
            return _cmd_solve_semilinear(cfg, args)
        if args.command == "valuation":
            return _cmd_valuation(cfg, args)
        if args.command == "check":
            return _cmd_check(cfg, args)
        parser.error(f"unknown command {args.command}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (ValidationError, LifespanExceededError) as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except DivergenceError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    except ColwaveError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
