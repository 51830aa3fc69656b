"""Tests of the benchmark harness itself, at tiny scale.

Run with: python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import crossreg.graph
import crossreg.normals
import crossreg.pipeline as pipeline
import harness
import spans
from harness import Workload

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# The real workloads shrunk to a few small scenes; names and code paths unchanged.
TINY = {
    "register": Workload("register", {"point_count": 300, "mask_ratio": 0.2}, 1.0, 2),
    "outliers": Workload("outliers", {"point_count": 300, "outlier_fraction": 0.5,
                                      "min_fine_score": 0.0}, 1.0, 2),
    "sweep": Workload("sweep", {"point_count": 300, "scene_count": 1}, 1.0, 2),
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(harness, "WORKLOADS", TINY)


def _patched_attrs():
    pairs = [(pipeline, name) for name in spans.PIPELINE_LAYERS]
    pairs += [(crossreg.graph, "knn_indices"), (crossreg.normals, "knn_indices")]
    return {(m.__name__, a): getattr(m, a) for m, a in pairs}


def test_tracer_wraps_and_restores_every_function():
    before = _patched_attrs()
    with spans.Tracer() as tracer:
        during = _patched_attrs()
        assert not tracer.missing
        assert all(during[key] is not before[key] for key in before)
    assert _patched_attrs() == before
    assert all(_patched_attrs()[key] is before[key] for key in before)


def test_tracer_restores_after_an_exception():
    before = _patched_attrs()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            raise RuntimeError("boom")
    assert all(_patched_attrs()[key] is before[key] for key in before)


def test_every_function_the_pipeline_imports_is_traced():
    imported = {
        name for name, obj in vars(pipeline).items()
        if callable(obj) and not isinstance(obj, type)
        and getattr(obj, "__module__", "").startswith("crossreg.")
        and obj.__module__ != "crossreg.pipeline"
    }
    assert imported <= set(spans.PIPELINE_LAYERS)


def test_self_times_are_never_negative_and_partition_the_root(tmp_path):
    config = pipeline.PipelineConfig(point_count=300, mask_ratio=0.2)
    scene = harness.generate_scene(config.scene_spec(), seed=3)
    with spans.Tracer() as tracer:
        with tracer.span("unit"):
            pipeline.register_scene(scene, config)
    assert tracer.counts["knn_calls"] == 4
    assert all(s.self_s >= 0.0 for s in tracer.spans)
    root = [s for s in tracer.spans if s.parent_id is None]
    assert len(root) == 1
    assert sum(s.self_s for s in tracer.spans) == pytest.approx(root[0].duration, rel=1e-9)
    by_id = {s.span_id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.parent_id is not None:
            parent = by_id[s.parent_id]
            assert parent.start <= s.start <= s.end <= parent.end


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_emits_every_named_metric_and_traced_digest_matches(tiny, tmp_path, name):
    plain = harness.run(name, 1, 0.01, False, 0.1, tmp_path / "plain")
    traced = harness.run(name, 1, 0.01, True, 0.1, tmp_path / "traced")
    assert set(plain.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced.metrics) == {m["name"] for m in SPEC["per_layer"]}
    for result, spec in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert result.correct and result.failed == 0 and result.attempted >= 1
        assert {n: u for n, (_, u) in result.metrics.items()} == {
            m["name"]: m["unit"] for m in spec
        }
        line = json.loads(harness.format_result(result))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert all(plain.metrics[m["name"]][0] > 0 for m in SPEC["end_to_end"])
    assert plain.details["digest"] == traced.details["digest"]
    assert plain.details["accuracy"] == traced.details["accuracy"]
    assert traced.metrics["graph.knn_calls"][0] == 4.0


def test_work_of_a_run_depends_on_its_arguments_alone(tiny, monkeypatch, tmp_path):
    first = harness.run("outliers", 1, 3.0, False, 0.0, tmp_path / "first")
    # A slower machine registers exactly the same inputs.
    real = pipeline.register_scene
    monkeypatch.setattr(pipeline, "register_scene",
                        lambda *a, **k: (time.sleep(0.05), real(*a, **k))[1])
    second = harness.run("outliers", 1, 3.0, False, 0.0, tmp_path / "second")
    assert first.details["units"] == second.details["units"] == 3
    assert (first.attempted, first.failed) == (second.attempted, second.failed)
    assert first.details["digest"] == second.details["digest"]
    assert second.metrics["scene_p50_s"][0] > first.metrics["scene_p50_s"][0]


def test_known_pose_defect_is_counted_not_fatal(monkeypatch, tmp_path):
    # pnp_ransac's final refit raises DegenerateConfigurationError out of
    # register_scene on this scene (seed 1); the run must count it by type.
    repro = Workload("outliers", {"point_count": 800, "outlier_fraction": 0.4,
                                  "min_fine_score": 0.2}, 1.0, 2)
    monkeypatch.setattr(harness, "WORKLOADS", {"outliers": repro})
    result = harness.run("outliers", 0, 0.01, False, 0.0, tmp_path)
    assert result.details["errors"] == {"DegenerateConfigurationError": 1}
    assert (result.attempted, result.failed) == (2, 1)
    assert result.metrics["success_rate"][0] == 0.5
    assert result.correct


def test_changed_output_counts_as_a_failure(tiny, monkeypatch, tmp_path):
    calls = []
    real = pipeline.ablation_rows

    def drifting(*args, **kwargs):
        rows = real(*args, **kwargs)
        calls.append(1)
        if len(calls) > 1:
            rows[0] = (rows[0][0], rows[0][1] * 0.5, rows[0][2], rows[0][3])
        return rows

    monkeypatch.setattr(pipeline, "ablation_rows", drifting)
    result = harness.run("sweep", 1, 0.01, False, 0.0, tmp_path)
    assert not result.correct
    assert result.failed == result.attempted // 2


def test_run_fails_without_printing_where_no_sources_exist(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "register", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
