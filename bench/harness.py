"""Workloads, the measurement loop and the output checks of the benchmark.

The loop is closed with one client: the next input is registered only
after the previous one has finished, because crossreg is a batch library
and not a server. A run registers a fixed number of units, set by
`--seconds` and the workload's nominal rate (units per second on the
reference machine of README.md) and never fewer than its `min_units`.
The work of a run therefore depends on its arguments alone and not on the
machine's speed: the same seed and seconds give the same inputs, the same
digest, the same accuracy metrics and the same failures, and only the
times differ. Scene workloads register their first input once, untimed,
before the timed loop; its digest is the one every later run of that
input must reproduce.

Importing this module imports crossreg; the caller puts the checkout's
`src` on sys.path first.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import crossreg.pipeline as pipeline
from crossreg.io import (
    load_scene_bundle,
    read_correspondences,
    read_patches,
    read_pose,
    save_scene_bundle,
    write_correspondences,
    write_patches,
    write_pose_estimate,
)
from crossreg.pipeline import SWEEP_DEFAULTS, PipelineConfig
from crossreg.synth import generate_scene

from spans import TIME_LAYERS, Tracer, layer_metrics

RESULT_FILES = ("pose.json", "correspondences.csv", "patches.csv")
SEED_STRIDE = 1000  # scene seeds of run seed s are s * SEED_STRIDE + i
SWEEP_NAME = "mask_ratio"


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why each exists."""

    name: str
    settings: dict  # PipelineConfig overrides
    rate: float  # nominal units per second; a run registers round(seconds * rate) units
    min_units: int  # a run never registers fewer units than this

    def units(self, seconds: float) -> int:
        return max(self.min_units, round(seconds * self.rate))


WORKLOADS = {
    w.name: w
    for w in (
        # Every scene of a run is distinct, so no scene repeats.
        Workload("register", {"gaussian_sigma_m": 0.01, "mask_ratio": 0.2}, rate=0.7, min_units=8),
        Workload(
            "outliers",
            {"point_count": 800, "outlier_fraction": 0.5, "min_fine_score": 0.0},
            rate=0.9,
            min_units=8,
        ),
        # One ablation_rows call over the default mask_ratio values is one
        # unit; every call repeats the first.
        Workload("sweep", {"scene_count": 2}, rate=0.1, min_units=2),
    )
}


@dataclass
class UnitResult:
    seconds: float
    registrations: int
    failed: int
    digest: str
    rr: float
    ir: float
    error: str | None = None
    problems: list[str] = field(default_factory=list)


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    details: dict


# --------------------------------------------------------------------------- #
#  Set-up
# --------------------------------------------------------------------------- #


def workload_config(workload: Workload, seed: int) -> PipelineConfig:
    config = PipelineConfig().replace(**workload.settings)
    if workload.name == "sweep":
        config = config.replace(base_seed=seed * SEED_STRIDE)
    return config


def make_inputs(workload: Workload, config: PipelineConfig, seed: int, units: int, work: Path):
    """Generate one input per unit; returns (inputs, seconds spent on each)."""
    if workload.name == "sweep":
        return [config] * units, []
    inputs, input_s = [], []
    for i in range(units):
        scene_seed = seed * SEED_STRIDE + i
        start = time.perf_counter()
        scene = generate_scene(config.scene_spec(), seed=scene_seed)
        if workload.name == "register":
            bundle = work / "scenes" / f"scene_{scene_seed}"
            save_scene_bundle(bundle, scene)
            inputs.append(bundle)
        else:
            inputs.append(scene)
        input_s.append(time.perf_counter() - start)
    return inputs, input_s


# --------------------------------------------------------------------------- #
#  One unit of work
# --------------------------------------------------------------------------- #


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _write_results(out: Path, result) -> None:
    out.mkdir(parents=True, exist_ok=True)
    write_pose_estimate(out / "pose.json", result.estimate)
    write_correspondences(out / "correspondences.csv", result.correspondences)
    write_patches(out / "patches.csv", result.patches)


def _digest_files(out: Path) -> str:
    h = hashlib.sha256()
    for name in RESULT_FILES:
        h.update((out / name).read_bytes())
    return h.hexdigest()


def _failed_unit(exc: BaseException, seconds: float, registrations: int) -> UnitResult:
    """Account for a unit that raised; call from inside the except block."""
    traceback.print_exc()
    error = type(exc).__name__
    digest = hashlib.sha256(f"{error}: {exc}".encode()).hexdigest()
    return UnitResult(seconds, registrations, registrations, digest, 0.0, 0.0, error=error)


def run_scene_unit(workload, config, item, out: Path, tracer: Tracer | None) -> UnitResult:
    """register: bundle -> register -> writers -> evaluate; outliers: in memory."""
    start = time.perf_counter()
    try:
        with _span(tracer, "unit"):
            if workload.name == "register":
                with _span(tracer, "load_scene_bundle"):
                    scene = load_scene_bundle(item)
            else:
                scene = item
            result = pipeline.register_scene(scene, config)
            if workload.name == "register":
                with _span(tracer, "write_results"):
                    _write_results(out, result)
            ev = pipeline.evaluate_scene(
                scene, result.correspondences, result.estimate.transform,
                result.patches, config,
            )
    except Exception as exc:  # the unit boundary: count the failure and keep going
        return _failed_unit(exc, time.perf_counter() - start, 1)
    seconds = time.perf_counter() - start
    if workload.name != "register":
        _write_results(out, result)
    problems = check_registration(scene, config, result, ev, out)
    return UnitResult(
        seconds, 1, 1 if problems else 0, _digest_files(out),
        float(ev.rr_flag), ev.inlier_ratio, problems=problems,
    )


def sweep_csv(rows) -> str:
    """The rows as `crossreg ablate` writes them."""
    lines = ["setting,ir,fmr,rr"]
    lines.extend(f"{s!r},{ir!r},{fmr!r},{rr!r}" for s, ir, fmr, rr in rows)
    return "\n".join(lines) + "\n"


def run_sweep_unit(workload, config, item, out: Path, tracer: Tracer | None) -> UnitResult:
    values = SWEEP_DEFAULTS[SWEEP_NAME]
    registrations = config.scene_count * len(values)
    start = time.perf_counter()
    try:
        with _span(tracer, "unit"):
            rows = pipeline.ablation_rows(item, SWEEP_NAME, values)
    except Exception as exc:  # the unit boundary: count the failure and keep going
        return _failed_unit(exc, time.perf_counter() - start, registrations)
    seconds = time.perf_counter() - start
    problems = check_sweep(rows, values)
    return UnitResult(
        seconds, registrations, registrations if problems else 0,
        hashlib.sha256(sweep_csv(rows).encode()).hexdigest(),
        float(np.mean([r[3] for r in rows])), float(np.mean([r[1] for r in rows])),
        problems=problems,
    )


# --------------------------------------------------------------------------- #
#  Output checks
# --------------------------------------------------------------------------- #


def check_registration(scene, config, result, ev, out: Path) -> list[str]:
    """Problems with one registration's output; empty when it is sound."""
    problems = []
    corrs = result.correspondences
    est = result.estimate
    pose = read_pose(out / "pose.json")
    if not (
        np.array_equal(pose.rotation, est.transform.rotation)
        and np.array_equal(pose.translation, est.transform.translation)
    ):
        problems.append("pose.json does not round-trip the estimate")
    back = read_correspondences(out / "correspondences.csv")
    if not (
        np.array_equal(back.pixels, corrs.pixels)
        and np.array_equal(back.point_indices, corrs.point_indices)
        and np.array_equal(back.scores, corrs.scores)
    ):
        problems.append("correspondences.csv does not round-trip")
    if read_patches(out / "patches.csv") != tuple(result.patches):
        problems.append("patches.csv does not round-trip")

    n = len(corrs)
    gt_pixels = {tuple(p) for p in scene.gt_correspondences.pixels.tolist()}
    emitted = [tuple(p) for p in corrs.pixels.tolist()]
    if len(set(emitted)) != n:
        problems.append("a pixel is matched twice")
    if not set(emitted) <= gt_pixels:
        problems.append("a matched pixel is not an image pixel of the scene")
    if n and (corrs.point_indices.min() < 0 or corrs.point_indices.max() >= len(scene.cloud)):
        problems.append("a point index is out of range")
    if n and (corrs.scores.min() < config.min_fine_score or corrs.scores.max() > 1.0 + 1e-9):
        problems.append("a match score is outside [min_fine_score, 1]")
    if est.inlier_mask.shape != (n,) or est.inlier_count < config.ransac_min_sample:
        problems.append("the inlier mask does not fit the correspondences")
    rot = est.transform.rotation
    if not (np.allclose(rot @ rot.T, np.eye(3), atol=1e-9) and np.linalg.det(rot) > 0.0):
        problems.append("the estimated rotation is not proper")
    if not (0.0 <= ev.inlier_ratio <= 1.0 and np.isfinite(ev.rmse_m)):
        problems.append("the evaluation is out of range")
    return problems


def check_sweep(rows, values) -> list[str]:
    if [r[0] for r in rows] != [float(v) for v in values]:
        return ["the sweep rows do not follow the sweep values"]
    if not all(0.0 <= x <= 1.0 for r in rows for x in r[1:]):
        return ["a sweep statistic is outside [0, 1]"]
    return []


# --------------------------------------------------------------------------- #
#  The run
# --------------------------------------------------------------------------- #


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float,
    work: Path,
    trace_out: Path | None = None,
) -> RunResult:
    """Set up, register the units `seconds` asks for, check every output, and summarise."""
    workload = WORKLOADS[workload_name]
    config = workload_config(workload, seed)
    units = workload.units(seconds)
    inputs, input_s = make_inputs(workload, config, seed, units, work)
    # The median input's cost stands for every input, so one slow moment of
    # the machine does not move set-up time.
    setup_s = import_s + (units * statistics.median(input_s) if input_s else 0.0)
    run_unit = run_sweep_unit if workload.name == "sweep" else run_scene_unit
    out = work / "result"

    tracer = Tracer() if trace else None
    first_digest: dict[int, str] = {}
    accuracy: list[UnitResult] = []  # one result per unit
    latencies: list[float] = []
    untraced_s: list[float] = []
    traced_s: list[float] = []
    errors: Counter = Counter()
    problems: list[str] = []
    attempted = failed = completed = 0

    # Sweep units all share one input; every other unit has its own.
    def input_of(index: int) -> int:
        return 0 if workload.name == "sweep" else index

    def record(index: int, unit: UnitResult) -> None:
        nonlocal attempted, failed, completed
        attempted += unit.registrations
        if unit.error is not None:
            errors[unit.error] += 1
        reference = first_digest.setdefault(input_of(index), unit.digest)
        if unit.digest != reference:
            unit.problems.append(f"input {input_of(index)}: digest differs from its first run")
            unit.failed = unit.registrations
        problems.extend(unit.problems)
        failed += unit.failed
        completed += unit.registrations - unit.failed

    if workload.name != "sweep":
        # Warm-up, not timed and not counted: first calls pay one-off costs.
        first_digest[0] = run_unit(workload, config, inputs[0], out, None).digest

    start = time.perf_counter()
    for index, item in enumerate(inputs):
        if tracer is None:
            unit = run_unit(workload, config, item, out, None)
            record(index, unit)
            if unit.error is None and not unit.problems:
                latencies.append(unit.seconds / unit.registrations)
        else:
            # Each input runs untraced and traced, in alternating order: the
            # pair gives the tracing overhead and must agree byte for byte.
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                tracer.unit = index
                if traced:
                    with tracer:
                        unit = run_unit(workload, config, item, out, tracer)
                    traced_s.append(unit.seconds / unit.registrations)
                else:
                    unit = run_unit(workload, config, item, out, None)
                    untraced_s.append(unit.seconds / unit.registrations)
                record(index, unit)
        accuracy.append(unit)
    wall_s = time.perf_counter() - start

    digest = hashlib.sha256("".join(u.digest for u in accuracy).encode()).hexdigest()
    rr = float(np.mean([u.rr for u in accuracy]))
    ir_mean = float(np.mean([u.ir for u in accuracy]))
    details = {
        "workload": workload.name,
        "seed": seed,
        "settings": workload.settings,
        "units": units,
        "registrations": attempted,
        "latency_samples": len(latencies),
        "digest": digest,
        "accuracy": {"units": len(accuracy), "rr": rr, "ir_mean": ir_mean},
        "errors": dict(errors),
        "problems": problems[:20],
        "machine": machine_info(),
        "setup": {"import_s": import_s, "input_s": input_s},
    }
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "scenes_per_s": (completed / wall_s, "1/s"),
            "scene_p50_s": (statistics.median(latencies) if latencies else float("nan"), "s"),
            "success_rate": ((attempted - failed) / attempted, "ratio"),
            "rr": (rr, "ratio"),
            "ir_mean": (ir_mean, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = layer_metrics(tracer)
        metrics["trace.slowdown"] = (
            statistics.median(traced_s) / statistics.median(untraced_s), "ratio",
        )
        scene_s = metrics["trace.scene_s"][0]
        details["layer_share"] = {
            f"{layer}_s": metrics[f"{layer}_s"][0] / scene_s for layer in TIME_LAYERS
        }
        details["missing_wrappers"] = sorted(tracer.missing)
        if trace_out is not None:
            trace_out.parent.mkdir(parents=True, exist_ok=True)
            trace_out.write_text(json.dumps(
                [[s.span_id, s.parent_id, s.unit, s.name, s.start, s.end] for s in tracer.spans]
            ))
            details["spans_file"] = trace_out.name
    return RunResult(not problems, attempted, failed, metrics, details)


def format_result(result: RunResult) -> str:
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()
        },
    })
