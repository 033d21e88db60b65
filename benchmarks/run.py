"""colwave benchmark: one workload, measured for a fixed time.

    python3 benchmarks/run.py --workload {ladder1d,solve23d,linear_calculus}
        [--seed N] [--seconds S] [--trace 0|1]

Every repetition runs in a fresh worker process (``worker.py``), so import
and per-process set-up are paid each time, as on every ``colwave`` CLI call.
Repetitions continue while the next one still fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics: median workload wall time,
median set-up time (import plus input building, sampled at least
``SETUP_SAMPLES`` times), median peak RSS and the largest discrete
wave-operator defect of the workload's solutions.  ``--trace 1`` alternates
plain and traced repetitions and reports per-layer self times and counts
from spans recorded around colwave's public functions, plus the tracing
overhead (traced minus plain median wall time).

Every output is gated against the acceptance tolerances; the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}`` and the
exit code is 1 when any operation failed.  Run metadata (CPUs, CPU model,
Python, numpy, BLAS and its threads, git commit, seed) is printed on the
line before.  Scratch files go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ladder1d", "solve23d", "linear_calculus")
DEFAULT_SEED = 1
SETUP_SAMPLES = 9
#: A run must finish within this many seconds, whatever --seconds says.
DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "residual_sup": "1",
}


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    def __init__(self, workload: str, seed: int, work_dir: Path, started: float):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.started = started
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env.setdefault(var, "1")

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def worker(self, mode: str) -> dict:
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--mode", mode, "--work-dir", str(self.work_dir),
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, DEADLINE_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            raise SystemExit(f"{mode} worker ran past the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{mode} worker exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values) -> float:
    return float(statistics.median(values))


def measure(runner: Runner, seconds: float, trace: bool):
    """Repetitions while the next one fits in ``seconds``; at least one.

    Returns (plain results, traced results, set-up samples).
    """
    plain, traced = [], []
    while True:
        plain.append(runner.worker("plain"))
        if trace:
            traced.append(runner.worker("traced"))
        if runner.elapsed() * (len(plain) + 1) / len(plain) > seconds:
            break
    setups = [r["setup_s"] for r in plain + traced]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.worker("setup")["setup_s"])
    return plain, traced, setups


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "colwave" / "__init__.py").is_file():
        print(f"no colwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, work_dir, started)
        plain, traced, setups = measure(runner, args.seconds, bool(args.trace))
        if traced:
            shutil.copy(work_dir / "spans.jsonl", ROOT / ".bench_work" / f"spans-{args.workload}.jsonl")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        for failure in r["failures"]:
            print(f"FAILED {failure}")
    wall = median(r["wall_s"] for r in plain)
    values = {
        "wall_s": wall,
        "setup_s": median(setups),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        "residual_sup": median(r["residual_sup"] for r in plain),
    }
    units = dict(END_TO_END)
    oracle = [r["oracle_err"] for r in plain if not math.isnan(r["oracle_err"])]
    if oracle:
        values["oracle_err"] = median(oracle)
        units["oracle_err"] = "1"
    values["error_rate"] = failed / attempted
    units["error_rate"] = "1"
    if traced:
        import tracing

        layers = {
            name: median(r["layers"][name] for r in traced)
            for name in tracing.LAYER_METRICS
            if name in traced[0]["layers"]
        }
        layers["trace.wall_s"] = median(r["wall_s"] for r in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall
        reported = {k: (v, tracing.LAYER_METRICS[k]) for k, v in layers.items()}
    else:
        reported = {k: (values[k], u) for k, u in END_TO_END.items()}

    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    if traced:
        for name, (value, unit) in reported.items():
            print(f"{args.workload} {name} = {value:.6g} {unit}")
    meta = dict(plain[0]["meta"], commit=git_commit(), workload=args.workload,
                plain_wall_s=[r["wall_s"] for r in plain],
                traced_wall_s=[r["wall_s"] for r in traced], setup_s=setups)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
