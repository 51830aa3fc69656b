"""Span tracing of crossreg's layers, patched in from outside the library.

A Tracer replaces module attributes with thin wrappers that open a span
around each call, and puts the originals back when it is closed. Spans
stay in memory; each records its name, start, end, the span that caused
it and the unit (one benchmark input) it belongs to. A layer's time is
the sum of the self times of the functions mapped to it, where self time
is a span's duration minus the durations of its direct children, so the
layers partition the traced wall time without double counting.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import crossreg.graph
import crossreg.normals
import crossreg.pipeline

# Function name (as the pipeline module sees it) -> layer it is booked to.
# Every free function crossreg.pipeline imports from a sibling module is
# listed, plus the pipeline's own public entry points.
PIPELINE_LAYERS = {
    "backproject_pixels": "normals.estimate",
    "lifted_pixel_normals": "normals.estimate",
    "estimate_point_normals": "normals.estimate",
    "estimate_point_normals_adaptive": "normals.estimate",
    "normal_agreement": "normals.agreement",
    "build_knn_graph": "graph.attention",
    "light_gat_forward": "graph.attention",
    "gated_fusion": "graph.attention",
    "warmup_weight": "pipeline.register_self",
    "corrupt_depth": "synth.corrupt",
    "synthesize_features": "synth.corrupt",
    "generate_scene": "synth.generate",
    "cosine_score_map": "matching.coarse",
    "coarse_match": "matching.coarse",
    "fine_match": "matching.fine",
    "patch_overlap": "matching.patch_overlap",
    "pnp_ransac": "pose.ransac",
    "register_scene": "pipeline.register_self",
    "evaluate_scene": "metrics.evaluate",
    "inlier_ratio": "metrics.evaluate",
    "registration_rmse": "metrics.evaluate",
    "patch_inlier_ratio": "metrics.evaluate",
    "relative_rotation_error": "metrics.evaluate",
    "relative_translation_error": "metrics.evaluate",
    "feature_matching_recall": "metrics.evaluate",
    "registration_recall": "metrics.evaluate",
}

# knn_indices is bound by name in two modules; both call sites are wrapped.
KNN_SITES = (crossreg.graph, crossreg.normals)

# Spans the benchmark opens itself around its calls into crossreg.io.
IO_LAYERS = {"load_scene_bundle": "io.load", "write_results": "io.write"}

TIME_LAYERS = (
    "graph.knn",
    "graph.attention",
    "normals.estimate",
    "normals.agreement",
    "synth.corrupt",
    "synth.generate",
    "matching.coarse",
    "matching.fine",
    "matching.patch_overlap",
    "pipeline.register_self",
    "pose.ransac",
    "io.load",
    "io.write",
    "metrics.evaluate",
)


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    unit: int
    name: str
    start: float
    end: float
    self_s: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Patches crossreg's layer functions with span-recording wrappers.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original attribute, also when the body raises.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self.unit = 0
        self._stack: list[list] = []  # [span_id, name, start, child_s]
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = 0

    # -- spans ------------------------------------------------------------ #

    def begin(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def end(self) -> None:
        stop = time.perf_counter()
        span_id, name, start, child_s = self._stack.pop()
        duration = stop - start
        parent_id = None
        if self._stack:
            self._stack[-1][3] += duration
            parent_id = self._stack[-1][0]
        self.spans.append(
            Span(span_id, parent_id, self.unit, name, start, stop, duration - child_s)
        )

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    # -- patching --------------------------------------------------------- #

    def wrap(self, module, attr: str, on_result=None) -> None:
        """Replace module.attr with a wrapper that records a span named `attr`.

        on_result(counts, args, result) runs after a successful call, for
        counts measured where the work happens. A missing attribute is
        noted rather than fatal, so the trace survives a renamed function.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.add(f"{module.__name__}.{attr}")
            return
        tracer = self

        def traced(*args, **kwargs):
            tracer.begin(attr)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end()
            if on_result is not None:
                on_result(tracer.counts, args, result)
            return result

        traced.__wrapped__ = original
        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def install(self) -> "Tracer":
        for site in KNN_SITES:
            self.wrap(site, "knn_indices", _count_knn)
        hooks = {
            "fine_match": _count_fine,
            "register_scene": _count_register,
            "pnp_ransac": _count_ransac,
            "generate_scene": _count_generate,
        }
        for attr in PIPELINE_LAYERS:
            self.wrap(crossreg.pipeline, attr, hooks.get(attr))
        return self

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- aggregation ------------------------------------------------------ #

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer, summed over all recorded spans."""
        layer_of = {"knn_indices": "graph.knn", **PIPELINE_LAYERS, **IO_LAYERS}
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[layer_of.get(span.name, span.name)] += span.self_s
        return dict(totals)


def _count_knn(counts: Counter, args, result) -> None:
    n = len(args[0])
    counts["knn_calls"] += 1
    counts["knn_dist_evals"] += n * n


def _count_fine(counts: Counter, args, result) -> None:
    counts["fine_calls"] += 1
    counts["fine_matches"] += len(result)


def _count_register(counts: Counter, args, result) -> None:
    counts["correspondences"] += len(result.correspondences)


def _count_ransac(counts: Counter, args, result) -> None:
    counts["ransac_inputs"] += len(args[0])
    counts["inliers"] += result.inlier_count


def _count_generate(counts: Counter, args, result) -> None:
    counts["generate_calls"] += 1


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-registration layer times and counts: metric name -> (value, unit)."""
    counts = tracer.counts
    regs = max(sum(s.name == "register_scene" for s in tracer.spans), 1)
    times = tracer.self_times()
    out = {f"{layer}_s": (times.get(layer, 0.0) / regs, "s") for layer in TIME_LAYERS}
    for name, key in (
        ("graph.knn_calls", "knn_calls"),
        ("graph.knn_dist_evals", "knn_dist_evals"),
        ("synth.generate_calls", "generate_calls"),
        ("matching.fine_calls", "fine_calls"),
        ("matching.fine_matches", "fine_matches"),
        ("pipeline.correspondences", "correspondences"),
        ("pose.inliers", "inliers"),
    ):
        out[name] = (counts[key] / regs, "count")
    out["pipeline.dedup_keep_ratio"] = (
        counts["correspondences"] / max(counts["fine_matches"], 1), "ratio",
    )
    out["pose.inlier_share"] = (counts["inliers"] / max(counts["ransac_inputs"], 1), "ratio")
    out["trace.scene_s"] = (sum(s.self_s for s in tracer.spans) / regs, "s")
    out["trace.spans"] = (len(tracer.spans) / regs, "count")
    return out
