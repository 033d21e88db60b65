"""Config-driven command line front end.

Subcommands: solve-linear, solve-semilinear, valuation, check, oracle,
demo.  Configs are JSON documents (schema in the README); outputs are CSV
files plus a plain-text run summary.  Exit codes: 0 ok, 1 check failed,
2 config error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

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
from .suite import (
    CHECK_NAMES,
    CONFIG_CHECKS,
    SUPPORT_TOL,
    ExperimentConfig,
    fmt,
    run_suite,
    solve,
    write_csv,
)
from .verify import oracle_lifespan

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_SOLVER_FAILURE = 3


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
        raise ConfigError(prefix, str(err).removeprefix(f"{err.parameter}: ")) from err
    except (TypeError, ValueError) as err:
        raise ConfigError(path, f"bad fields: {err}") from err


def _reject_unknown(doc: dict, path: str, known) -> None:
    """A misspelt optional field would otherwise be dropped for its default."""
    for key in doc:
        if key not in known:
            name = f"{path}.{key}" if path else key
            raise ConfigError(name, f"unknown field; expected one of {known}")


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
    _reject_unknown(doc, "", [f.name for f in dataclasses.fields(ExperimentConfig)])
    pdoc = _object(doc, "problem")
    _reject_unknown(pdoc, "problem", [f.name for f in dataclasses.fields(Problem)])
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
        _reject_unknown(gdoc, "grid", ["dx", "dt", "margin_cells"])
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
    sections = {"problem": problem, "ladder": ladder, "grid": grid, "quad": quad}
    return _build("", ExperimentConfig, **{**doc, **sections})


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError("config", f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError("config", f"invalid JSON in {path}: {err}") from err
    return parse_config(doc)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _outdir(cfg: ExperimentConfig, args) -> str:
    return _makedirs(args.out or cfg.outputs)


def _makedirs(out: str) -> str:
    """``out``, made if missing; a path that cannot be a directory is a config error."""
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as err:
        raise ConfigError("outputs", f"cannot make directory {out!r}: {err.strerror or err}") from err
    return out


def _write_summary(out: str, blocks: list[str]) -> None:
    with open(os.path.join(out, "summary.txt"), "w") as fh:
        fh.write("\n".join(blocks) + "\n")


def _cmd_solve_linear(cfg: ExperimentConfig, args) -> int:
    out = _outdir(cfg, args)
    fld = solve_linear(cfg.problem.u0, cfg.problem.u1, None, cfg.grid, cfg.quad)
    field_to_csv(fld, os.path.join(out, "linear_field.csv"))
    field_to_binary(fld, os.path.join(out, "linear_field.bin"))
    rep = check_support(fld, cfg.problem.support_radius, tol=SUPPORT_TOL)
    block = (
        f"solve-linear ok\n  grid shape {fld.grid.shape}\n"
        f"  support max_outside={fmt(rep.max_outside)}"
    )
    _write_summary(out, [block])
    print(block)
    return EXIT_OK


def _cmd_solve_semilinear(cfg: ExperimentConfig, args) -> int:
    out = _outdir(cfg, args)
    _, net, reports, _ = solve(cfg, args.threads)
    write_csv(
        os.path.join(out, "solve_reports.csv"), "eps,iterations,final_increment,converged",
        [(r.eps, r.iterations, r.final_increment, r.converged) for r in reports],
    )
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
    _, net, reports, _ = solve(cfg, args.threads)
    rows = valuation_table(net)
    write_csv(os.path.join(out, "valuation.csv"), "eps,mu,n,slope,stderr", rows)
    print(f"valuation table written ({len(rows)} rows)")
    if not all(r.converged for r in reports):
        return EXIT_SOLVER_FAILURE
    return EXIT_OK


def _cmd_check(cfg: ExperimentConfig, args) -> int:
    if args.check:
        cfg = _build("", functools.partial(dataclasses.replace, cfg), checks=args.check)
    if not cfg.checks:
        raise ConfigError("checks", "no checks selected (config 'checks' or --check)")
    out = _outdir(cfg, args)
    # the oracle solves its own plateau problems
    solved = solve(cfg, args.threads) if set(cfg.checks) != {"oracle"} else None
    blocks = []
    all_ok = True
    for name in cfg.checks:
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
    if args.out:
        _makedirs(args.out)
    results = run_suite()
    if args.out:
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

    def add_common(p):
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
    p_demo.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "demo":
            return _cmd_demo(args)
        args.threads = _resolve_threads(args.threads)
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
