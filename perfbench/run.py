"""Benchmark entry point.

    python3 perfbench/run.py --workload {train,eval,probe} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. With --trace 0 it prints every end-to-end
metric; with --trace 1 every per-layer metric from a traced run, and writes
the spans to perfbench/out/. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The load is one process with one thread: BLAS and MODALCOMPOSE_THREADS are
pinned to 1 before numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "MODALCOMPOSE_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train", "eval", "probe")


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "modalcompose" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}; run from the repository root")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _platform() -> str:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.25 prints its config instead
        blas = {}
    return (f"python {platform.python_version()}, numpy {np.__version__}, BLAS "
            f"{blas.get('name', '?')} {blas.get('version', '?')}, "
            f"{os.cpu_count()} cpus, BLAS and MODALCOMPOSE_THREADS pinned to 1")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None, sizes=None, log=sys.stdout) -> dict:
    args = parse_args(argv)
    _import_program()
    import workloads as wl
    from tracing import Tracer

    out = HERE / "out"
    work = out / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    bench = wl.Bench(args.workload, args.seed, args.seconds, work,
                     sizes or wl.Sizes(), log=log)
    try:
        if args.trace:
            metrics = bench.run_traced(
                Tracer(), out / f"trace-{args.workload}-seed{args.seed}.npz")
        else:
            metrics = bench.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": bench.checks_failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(_platform(), file=log)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}", file=log)
    print(json.dumps(result), file=log, flush=True)
    return result


if __name__ == "__main__":
    main()
