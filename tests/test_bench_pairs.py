"""scripts/bench_pairs.py: paired runs of two trees and the record it writes.

The end-to-end test runs one tiny pair of every gated workload on two
copies of this checkout, about 16 s, most of it bench/run.py's import
probes.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def copy_tree(dest: Path) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for name in ("src", "bench"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def test_a_pair_of_one_tree_has_equal_digests(tmp_path):
    parent, change = copy_tree(tmp_path / "parent"), copy_tree(tmp_path / "change")
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(parent), "--change", str(change),
         "--label", "tiny", "--pairs", "1", "--seconds", "0.01", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads((tmp_path / "BENCH_tiny.json").read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert record["seed"] == 1
    assert record["machine"]["blas_threads"] == "1"
    assert sorted(record["workloads"]) == sorted(w["name"] for w in benchmark["workloads"])
    for workload in record["workloads"].values():
        assert workload["digests_equal"] is True
        assert workload["digests"]["parent"] == workload["digests"]["change"]
        assert len(workload["digests"]["parent"]) == 1
        assert sorted(workload["metrics"]) == sorted(m["name"] for m in benchmark["end_to_end"])
        for name in ("success_rate", "rr", "ir_mean"):
            metric = workload["metrics"][name]
            # the same work on both sides: equal accuracy, a tie and no win
            assert metric["parent"]["median"] == metric["change"]["median"]
            assert metric["win_share"] == 0.0
            assert metric["within_bound"] is True


def test_a_run_judged_wrong_stops_with_its_problems(bench_pairs, tmp_path):
    # a stand-in run.py that exits 0 but prints a result the harness judged wrong
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(textwrap.dedent("""\
        import json
        print(json.dumps({"details": {"problems": ["a pixel is matched twice"]}}))
        print(json.dumps({"correct": False, "attempted": 3, "failed": 1, "metrics": {}}))
    """))
    with pytest.raises(SystemExit, match="not correct") as stop:
        bench_pairs.run_once(tmp_path, "register", 0.01)
    assert "1 of 3 registrations failed" in str(stop.value)
    assert str(stop.value).endswith("a pixel is matched twice")


def test_run_once_passes_the_run_seed(bench_pairs, tmp_path):
    # a stand-in run.py that records its arguments and prints a correct result
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(textwrap.dedent("""\
        import json, sys
        print(json.dumps({"details": {"argv": sys.argv[1:]}}))
        print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {}}))
    """))
    details, _ = bench_pairs.run_once(tmp_path, "sweep", 0.5, 3)
    argv = details["argv"]
    assert argv[argv.index("--seed") + 1] == "3"
    assert argv[argv.index("--workload") + 1] == "sweep"
    details, _ = bench_pairs.run_once(tmp_path, "sweep", 0.5)
    assert details["argv"][details["argv"].index("--seed") + 1] == "1"


def test_the_seed_lands_in_the_record(bench_pairs, tmp_path):
    # a stand-in tree: one workload, one metric, and a run.py that reports its seed
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(textwrap.dedent("""\
        import json, sys
        seed = sys.argv[sys.argv.index("--seed") + 1]
        print(json.dumps({"details": {"digest": seed, "machine": {}}}))
        print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                          "metrics": {"rr": {"value": 1.0}}}))
    """))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "register"}],
        "end_to_end": [{"name": "rr", "unit": "ratio", "better": "higher", "bound": 0.1}],
    }))
    tree = ["--parent", str(tmp_path), "--change", str(tmp_path), "--label", "seeded",
            "--pairs", "1", "--out", str(tmp_path)]
    assert bench_pairs.main(tree + ["--seed", "3"]) == 0
    record = json.loads((tmp_path / "BENCH_seeded.json").read_text())
    assert record["seed"] == 3
    assert record["workloads"]["register"]["digests"] == {"parent": ["3"], "change": ["3"]}
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(tree + ["--seed", "-1"])


def test_a_tie_is_not_a_win(bench_pairs):
    parent, change = [1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 4.0]
    assert bench_pairs.win_share(parent, change, "lower") == 0.25
    assert bench_pairs.win_share(parent, change, "higher") == 0.25
    assert bench_pairs.win_share(parent, parent, "higher") == 0.0


def test_worse_by_is_a_fraction_of_the_parent(bench_pairs):
    assert bench_pairs.worse_by(0.10, 0.12, "lower") == pytest.approx(0.2)
    assert bench_pairs.worse_by(10.0, 8.0, "higher") == pytest.approx(0.2)
    assert bench_pairs.worse_by(10.0, 12.0, "higher") == pytest.approx(-0.2)
    assert bench_pairs.worse_by(0.0, 0.0, "higher") == 0.0
    assert bench_pairs.worse_by(0.0, 1.0, "lower") == float("inf")


def test_summary_gives_median_and_quartiles(bench_pairs):
    got = bench_pairs.summary([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (got["q1"], got["median"], got["q3"]) == (2.0, 3.0, 4.0)
    assert bench_pairs.summary([7.0])["q1"] == 7.0
