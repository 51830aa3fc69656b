"""The bench tracer's bindings: every name it wraps still exists in crossreg.

bench/spans.py patches module attributes by name, so a name that a module
stops binding would only surface as a failed benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import crossreg.pipeline
from crossreg.pipeline import PipelineConfig
from crossreg.synth import generate_scene

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is made
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_bound_where_they_are_wrapped(monkeypatch):
    spans = load_spans(monkeypatch)
    unbound = [name for name in spans.PIPELINE_LAYERS
               if not callable(getattr(crossreg.pipeline, name, None))]
    assert unbound == []
    assert [site.__name__ for site in spans.KNN_SITES
            if not callable(getattr(site, "knn_indices", None))] == []


def test_the_tracer_times_every_stage_of_a_registration(monkeypatch):
    # register_scene's stages call the traced names through crossreg.pipeline,
    # so a stage that bound a name elsewhere would book its time to no layer
    spans = load_spans(monkeypatch)
    cfg = PipelineConfig(gaussian_sigma_m=0.01, mask_ratio=0.2)
    scene = generate_scene(cfg.scene_spec(), seed=1)
    with spans.Tracer() as tracer:
        crossreg.pipeline.register_scene(scene, cfg)
    assert tracer.missing == set()
    times = tracer.self_times()
    for layer in ("normals.estimate", "synth.corrupt", "matching.coarse", "pose.ransac"):
        assert times.get(layer, 0.0) > 0.0, layer
    assert {span.name for span in tracer.spans} >= {
        "register_scene", "corrupt_depth", "lifted_pixel_normals", "normal_agreement",
        "warmup_weight", "synthesize_features", "cosine_score_map", "coarse_match", "pnp_ransac",
    }
