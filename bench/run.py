"""Benchmark crossreg on one workload and print its metrics as JSON.

    python3 bench/run.py --workload register --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its `src`.
With --trace 0 the last line of standard output holds the end-to-end
metrics, with --trace 1 the per-layer ones. The line before it is a JSON
object of details: the machine, the workload digest, failures by type and,
when traced, each layer's share of the traced time. The exit code is 0
when a result was printed and 2 when the checkout has no crossreg sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_traces"

# One registration at a time on a small shared machine: a single BLAS
# thread is as fast as two here and steadier. It must be set before numpy
# is imported.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 7
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import crossreg; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("register", "outliers", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def time_import(env: dict) -> float:
    """Median seconds for a fresh interpreter to import crossreg."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crossreg" / "__init__.py").is_file():
        print(f"run.py: no crossreg sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    import_s = time_import(env)

    sys.path.insert(0, str(SRC))
    import harness

    work = WORK / f"{args.workload}-{os.getpid()}"
    trace_out = TRACES / f"{args.workload}-seed{args.seed}.json" if args.trace else None
    try:
        result = harness.run(
            args.workload, args.seed, args.seconds, bool(args.trace), import_s, work,
            trace_out=trace_out,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps({"details": result.details}))
    print(harness.format_result(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
