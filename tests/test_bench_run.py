"""The benchmark command runs end to end on seeds whose scene seeds pass 2**32.

bench/run.py derives scene seeds as seed * 1000 + i and the sweep's base
seed as seed * 1000, outside the harness's per-unit error handling, so a
seed the library refuses makes the whole command exit 1. Each run takes a
few seconds, mostly bench/run.py's import probes.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEED = 4294968  # times the harness's seed stride of 1000, past 2**32
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


@pytest.mark.parametrize("workload", ["register", "sweep"])
def test_bench_run_succeeds_past_2_to_the_32(workload):
    work = ROOT / ".bench_work"
    before = sorted(work.iterdir()) if work.is_dir() else None
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    for name in END_TO_END:
        assert math.isfinite(result["metrics"][name]["value"]), name
    # the run removes its own work directory, and .bench_work with it when empty
    assert (sorted(work.iterdir()) if work.is_dir() else None) == before
