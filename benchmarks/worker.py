"""One benchmark repetition in a fresh process.

    python3 benchmarks/worker.py --workload NAME --seed N --mode MODE --work-dir DIR

MODE is ``setup`` (import colwave and build the inputs only), ``plain``
(also run the workload) or ``traced`` (run it with every public layer
function wrapped).  The last line of standard output is one JSON object;
``run.py`` starts the workers and reduces their results.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def blas_info(np) -> tuple[str, int | None]:
    """Name and thread count of the BLAS numpy loaded in this process."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        name = "unknown"
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "blas" in ln.lower() and ".so" in ln})
    except OSError:  # no /proc: the thread count stays unknown
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
            "MKL_Get_Max_Threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import colwave

    if Path(colwave.__file__).resolve().parent != ROOT / "src" / "colwave":
        print(f"colwave imported from {colwave.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    inputs = workloads.build(args.workload, args.seed, args.work_dir)
    setup_s = time.perf_counter() - t0

    import numpy as np

    nproc = len(os.sched_getaffinity(0))
    blas_name, blas_threads = blas_info(np)
    meta = {
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "seed": args.seed,
    }
    if blas_threads is not None and blas_threads > nproc:
        print(f"refusing to run: {blas_threads} BLAS threads on {nproc} CPUs", file=sys.stderr)
        return 2
    out = {"setup_s": setup_s, "meta": meta}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    import tracing

    gate = workloads.Gate()
    before = tracing.bindings()
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer(run_id=lambda: gate.attempted)
        tracing.install(tracer)
    t = time.perf_counter()
    result = workloads.run(args.workload, inputs, gate)
    wall_s = time.perf_counter() - t
    out.update(
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=gate.attempted,
        failed=gate.failed,
        failures=gate.failures,
        residual_sup=result.residual_sup,
        oracle_err=result.oracle_err,
    )
    if tracer is None:
        changed = tracing.changed_bindings(before)
        if changed:
            print(f"untraced run left wrapped functions: {changed}", file=sys.stderr)
            return 3
    else:
        layers = tracing.layer_metrics(tracer.spans)
        iterations = tracing.picard_iterations(tracer.spans)
        if layers["semilinear.sweeps"] != iterations:
            print(f"traced sweeps {layers['semilinear.sweeps']} != "
                  f"SolveReport iterations {iterations}", file=sys.stderr)
            return 3
        if not layers["trace.layer_self_s"] <= wall_s:
            print("layer self times exceed the traced wall time", file=sys.stderr)
            return 3
        tracing.write_spans(tracer.spans, os.path.join(args.work_dir, "spans.jsonl"))
        out["layers"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
