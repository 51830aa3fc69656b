"""Golden digests: SHA-256 hashes of a small library-level output matrix.

    python3 scripts/golden_digests.py          # print the digests as JSON
    python3 scripts/golden_digests.py --write  # regenerate tests/golden_digests.json
    python3 scripts/golden_digests.py --against PARENT_TREE  # what each moved key did
    python3 scripts/golden_digests.py --kernel CORETYPE  # what moves under that OpenBLAS core

The matrix (about 5 s on a 2-vCPU Xeon, one core but for the --jobs 2 runs):

- register/<variant>/seed<s>: six register variants (plain, adaptive_k,
  epoch 25, corrupted depth, row outliers, 32 channels) on two 600-point
  scenes; each digest covers the correspondences, the pose, the inlier
  mask, the coarse patches, the agreement, the blend and the evaluation;
- register/default_size/seed21: the corrupted variant on one 2,000-point
  scene, the benchmark's register size. The k-NN's bytes do not depend
  on its block shape, but the score maps, fine blocks and attention are
  still BLAS products whose rounding can follow their shape, which the row
  count sets, so only a default-size scene pins the bytes the benchmark
  produces;
- register/refit_fallback/seed35: an 800-point scene with half its rows
  outliers, every fine match kept and 30% of the pixels masked, whose
  RANSAC refit keeps fewer than min_sample inliers, so the voted pose and
  mask come back; no other key reaches that fallback, and 35 is the first
  seed at these settings that does;
- bundle_bytes: the bytes of a bundle saved, loaded and saved again;
- sweep/<name>: the four ablation sweeps at their default values over two
  600-point scenes;
- sweep/noisy_mask_ratio and sweep/noisy_mask_ratio_epoch25: the default
  mask_ratio sweep over the same scenes with feature noise (sigma 0.05),
  row outliers (0.1) and depth noise (0.01 m), at epoch 0 and at epoch 25,
  so one prep serves settings whose features are noised and refined;
- normals/<variant> and losses/epoch<e>: the files the normals and losses
  commands write, normals plain, adaptive and adaptive at k 16;
- cli/synth: the two 600-point bundles `synth --jobs 2` writes;
- cli/register/<file>, cli/eval and cli/ablate: the four files register
  writes for the seed-21 bundle, the eval report of that result, and an
  ablate CSV of a two-value mask_ratio sweep over two 600-point scenes;
- cli/ablate/<variant>: ablate CSVs on two workers over the same scenes,
  the default mask_ratio sweep with adaptive_k and a warmup sweep of
  explicit values with half the rows outliers, every fine match kept and
  a RANSAC budget of 100.

Every subcommand writes at least one digested output; the refusals the
CLI prints instead of an output are tier-1 tests (tests/test_cli.py,
tests/test_config_fuzz.py). tests/test_golden_digests.py compares a fresh
run with the checked-in file. The file records the numpy and BLAS versions
it was made with and the CPU kernels they ran (the OpenBLAS core and
numpy's active SIMD dispatch targets), since BLAS rounding, and some of
numpy's functions, can move the low bits of a float on another build or
CPU. A numeric warning is an error here, as in the tests, so --write
cannot record the digests of a run that raised one.

--against PARENT_TREE computes the matrix a second time with the `src` of
PARENT_TREE (a checkout, such as a `git archive` of the parent commit) in a
child process, and prints, for each key whose digest differs, what moved in
each of its scenes or rows: the angle and distance between the two poses,
the Jaccard overlap of the (pixel, point) correspondence sets, IR and RR
before and after, a changed registration outcome, the largest change among
a registration's other numbers, and for a normals file the rows that
changed validity, the normals that turned over and the largest angle
between the others; then a summary line.

--kernel CORETYPE computes the matrix here and again in a child process
with OPENBLAS_CORETYPE=CORETYPE (such as Haswell or Prescott), and prints
the OpenBLAS core each ran and the --against report of the second run
against the first.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import hashlib
import io
import json
import os
import pickle
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from crossreg.cli import main as cli_main  # noqa: E402
from crossreg.errors import REGISTRATION_FAILURES  # noqa: E402
from crossreg.io import (  # noqa: E402
    load_scene_bundle,
    read_correspondences,
    read_json,
    read_normals,
    read_pose,
    save_scene_bundle,
)
from crossreg.pipeline import (  # noqa: E402
    SWEEP_DEFAULTS,
    PipelineConfig,
    ablation_rows,
    evaluate_scene,
    register_scene,
)
from crossreg.synth import PixelTable, generate_scene  # noqa: E402

GOLDEN = ROOT / "tests" / "golden_digests.json"
POINTS = 600
SEEDS = (21, 22)

# the register variants, each pinned on every scene of SEEDS
VARIANTS = {
    "plain": {},
    "adaptive": {"adaptive_k": True},
    "epoch25": {"epoch": 25},
    "corrupted": {"gaussian_sigma_m": 0.01, "mask_ratio": 0.2},
    "outliers": {"min_fine_score": 0.0, "outlier_fraction": 0.5},
    "channels32": {"channels": 32},
}
# the noise the sweep/noisy_mask_ratio keys add to the mask_ratio sweep
NOISY_SWEEP = {"feature_noise_sigma": 0.05, "outlier_fraction": 0.1, "gaussian_sigma_m": 0.01}
# the scene of register/refit_fallback/seed<REFIT_FALLBACK_SEED>, whose refit
# falls back to the vote
REFIT_FALLBACK = {
    "point_count": 800, "outlier_fraction": 0.5, "min_fine_score": 0.0, "mask_ratio": 0.3,
}
REFIT_FALLBACK_SEED = 35
# the ablate runs of the cli/ablate/<variant> keys, on two workers; at the
# default 1,000 RANSAC iterations the outlier-heavy warmup sweep takes about
# 4 s, at 100 under 1 s, and its rows then hold both hits and misses
ABLATE_VARIANTS = {
    "adaptive_mask_ratio": ["--sweep", "mask_ratio", "--set", "adaptive_k=true"],
    "outliers_warmup": [
        "--sweep", "warmup", "--values", "[0, 10, 12, 20]", "--set", "min_fine_score=0.0",
        "--set", "outlier_fraction=0.5", "--set", "ransac_iterations=100",
    ],
}


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        blob = part if isinstance(part, bytes) else repr(part).encode()
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()


def _f64(x) -> bytes:
    return np.float64(x).tobytes()


def _pose_record(transform) -> dict:
    return {"rotation": transform.rotation, "translation": transform.translation}


def _pairs(corrs) -> set:
    return set(zip(map(tuple, corrs.pixels.tolist()), corrs.point_indices.tolist()))


def _register_parts(scene, config, record: dict) -> list:
    """The digested parts of one registration; record gets what --against compares."""
    try:
        result = register_scene(scene, config)
    except REGISTRATION_FAILURES as exc:
        record["error"] = type(exc).__name__
        return [type(exc).__name__, str(exc)]
    corrs, est = result.correspondences, result.estimate
    ev = evaluate_scene(scene, corrs, est.transform, result.patches, config)
    record.update(_pose_record(est.transform), pairs=_pairs(corrs), ir=ev.inlier_ratio,
                  rr=float(ev.rr_flag), floats={
                      "scores": corrs.scores, "agreement": result.agreement,
                      "reprojection_px": est.mean_reprojection_px, "rmse_m": ev.rmse_m,
                  })
    return [
        corrs.pixels.tobytes(), corrs.point_indices.tobytes(), corrs.scores.tobytes(),
        est.transform.rotation.tobytes(), est.transform.translation.tobytes(),
        est.inlier_mask.tobytes(), _f64(est.mean_reprojection_px),
        repr(result.patches), _f64(result.agreement), _f64(result.blend),
        [(name, _f64(value)) for name, value in sorted(vars(ev).items())],
    ]


def _partial_gt(scene):
    """scene with every 7th table row's point index set to -1."""
    table = scene.table
    indices = table.point_indices.copy()
    indices[::7] = -1
    return dataclasses.replace(scene, table=PixelTable(
        table.width, table.height, table.pixels, table.depths, indices
    ))


def _cli(argv: list[str]) -> None:
    if cli_main(argv) != 0:
        raise AssertionError(f"crossreg {' '.join(argv)} failed")


def _tree_bytes(directory: Path) -> list:
    return [
        (str(p.relative_to(directory)), p.read_bytes())
        for p in sorted(directory.rglob("*")) if p.is_file()
    ]


def _rows_record(rows) -> dict:
    """setting -> IR and RR of (setting, IR, FMR, RR) rows."""
    return {f"{row[0]:g}": {"ir": float(row[1]), "rr": float(row[3])} for row in rows}


def _csv_rows(path: Path) -> list[list[float]]:
    return [[float(x) for x in line.split(",")] for line in path.read_text().splitlines()[1:]]


def compute(outputs: dict | None = None) -> dict[str, str]:
    """Digest name -> SHA-256 hex digest of that output.

    Given an outputs dict, it also fills it with what --against compares:
    digest name -> {scene or row label -> record}, a record holding any of
    a pose ("rotation", "translation"), "pairs" (a set of ((u, v), point)),
    "ir", "rr", "error" (a failure's type), "normals" with "valid", and
    "floats" (name -> the other digested numbers of a registration).
    """
    digests = {}
    records = {} if outputs is None else outputs

    def register_key(key: str, scene, config) -> None:
        record = {}
        digests[key] = _digest(_register_parts(scene, config, record))
        records[key] = {f"seed{scene.seed}": record}

    scenes = {seed: generate_scene(PipelineConfig(point_count=POINTS).scene_spec(), seed)
              for seed in SEEDS}
    for name, updates in VARIANTS.items():
        config = PipelineConfig(point_count=POINTS, **updates)
        for seed, scene in scenes.items():
            register_key(f"register/{name}/seed{seed}", scene, config)
    register_key(f"register/partial_gt/seed{SEEDS[0]}", _partial_gt(scenes[SEEDS[0]]),
                 PipelineConfig(point_count=POINTS))
    default_size = PipelineConfig(**VARIANTS["corrupted"])
    register_key(f"register/default_size/seed{SEEDS[0]}",
                 generate_scene(default_size.scene_spec(), SEEDS[0]), default_size)
    fallback = PipelineConfig(**REFIT_FALLBACK)
    register_key(f"register/refit_fallback/seed{REFIT_FALLBACK_SEED}",
                 generate_scene(fallback.scene_spec(), REFIT_FALLBACK_SEED), fallback)

    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        save_scene_bundle(first, scenes[SEEDS[0]])
        save_scene_bundle(second, load_scene_bundle(first))
        if _tree_bytes(second) != _tree_bytes(first):
            raise AssertionError("a bundle saved after a load differs from the first save")
        digests["bundle_bytes"] = _digest(_tree_bytes(second))

        synth = Path(tmp) / "synth"
        _cli(["synth", "--out", str(synth), "--jobs", "2", "--set", f"point_count={POINTS}",
              "--set", "scene_count=2", "--set", f"base_seed={SEEDS[0]}"])
        digests["cli/synth"] = _digest(_tree_bytes(synth))

        for name, sets in (
            ("plain", []),
            ("adaptive", ["--set", "adaptive_k=true"]),
            ("adaptive_k16", ["--set", "adaptive_k=true", "--set", "k_neighbors=16"]),
        ):
            out = Path(tmp) / f"normals_{name}"
            _cli(["normals", "--scene", str(first), "--out", str(out), *sets])
            digests[f"normals/{name}"] = _digest(_tree_bytes(out))
            records[f"normals/{name}"] = {
                path.name: vars(read_normals(path)) for path in sorted(out.iterdir())
            }
        for epoch in (0, 15):
            out = Path(tmp) / f"losses_{epoch}.json"
            _cli(["losses", "--out", str(out), "--set", f"epoch={epoch}"])
            digests[f"losses/epoch{epoch}"] = _digest([out.read_bytes()])

        result = Path(tmp) / "register"
        _cli(["register", "--scene", str(first), "--out", str(result)])
        report = Path(tmp) / "eval.json"
        _cli(["eval", "--scenes", str(first), "--results", str(result), "--out", str(report)])
        digests["cli/eval"] = _digest([report.read_bytes()])
        scored = read_json(report)["scenes"][0]
        record = {f"seed{SEEDS[0]}": {
            **_pose_record(read_pose(result / "pose.json")),
            "pairs": _pairs(read_correspondences(result / "correspondences.csv")),
            "ir": scored["inlier_ratio"], "rr": float(scored["rr_flag"]),
        }}
        records["cli/eval"] = record
        for name, blob in _tree_bytes(result):
            digests[f"cli/register/{name}"] = _digest([blob])
            records[f"cli/register/{name}"] = record
        table = Path(tmp) / "ablate.csv"
        _cli([
            "ablate", "--sweep", "mask_ratio", "--values", "[0.0, 0.2]", "--out", str(table),
            "--set", f"point_count={POINTS}", "--set", "scene_count=2",
        ])
        digests["cli/ablate"] = _digest([table.read_bytes()])
        records["cli/ablate"] = _rows_record(_csv_rows(table))
        for name, args in ABLATE_VARIANTS.items():
            table = Path(tmp) / f"ablate_{name}.csv"
            _cli(["ablate", *args, "--jobs", "2", "--out", str(table),
                  "--set", f"point_count={POINTS}", "--set", "scene_count=2"])
            digests[f"cli/ablate/{name}"] = _digest([table.read_bytes()])
            records[f"cli/ablate/{name}"] = _rows_record(_csv_rows(table))

    sweep_config = PipelineConfig(point_count=POINTS, scene_count=2, base_seed=SEEDS[0])
    for name, values in SWEEP_DEFAULTS.items():
        rows = ablation_rows(sweep_config, name, values)
        digests[f"sweep/{name}"] = _digest([[_f64(x) for x in row] for row in rows])
        records[f"sweep/{name}"] = _rows_record(rows)
    noisy = sweep_config.replace(**NOISY_SWEEP)
    for suffix, config in (("", noisy), ("_epoch25", noisy.replace(epoch=25))):
        rows = ablation_rows(config, "mask_ratio", SWEEP_DEFAULTS["mask_ratio"])
        digests[f"sweep/noisy_mask_ratio{suffix}"] = _digest(
            [[_f64(x) for x in row] for row in rows]
        )
        records[f"sweep/noisy_mask_ratio{suffix}"] = _rows_record(rows)
    return digests


# the versions() fields that name the CPU kernels rather than a build
KERNEL_FIELDS = ("openblas_core", "numpy_dispatch")


def versions() -> dict[str, str]:
    """The numpy and BLAS builds a digest depends on, and the CPU kernels they run."""
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        pass
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    dispatch = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return {"numpy": np.__version__, "blas": blas, "openblas_core": _openblas_core(),
            "numpy_dispatch": " ".join(dispatch) or "baseline"}


def _openblas_core() -> str:
    """The kernel set ("SkylakeX", "Haswell", ...) of the OpenBLAS numpy ships
    with, from its own scipy_openblas_get_corename64_, or "unknown"."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def version_note(made: dict[str, str], have: dict[str, str]) -> str:
    """Why digests made under versions() made may differ in a run under have:
    a different CPU kernel or a different build, or "" when they agree."""
    notes = []
    kernels = [f for f in KERNEL_FIELDS if made.get(f) != have.get(f)]
    builds = sorted(f for f in set(made) | set(have)
                    if f not in KERNEL_FIELDS and made.get(f) != have.get(f))
    for fields, cause in ((kernels, "the CPU kernels' rounding"),
                          (builds, "BLAS or numpy rounding")):
        if fields:
            notes.append(f"; the digests were made with { {f: made.get(f) for f in fields} } "
                         f"and this run uses { {f: have.get(f) for f in fields} }, "
                         f"so {cause} may explain the change")
    return "".join(notes)


def quietly(fn, *args):
    """fn(*args) with the CLI summaries kept off stdout and a numeric warning
    raised as an error."""
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return fn(*args)


# run in a child process: compute() of this script with another tree's crossreg
_CHILD = """
import importlib.util, pickle, sys
src, script, out = sys.argv[1:]
sys.path.insert(0, src)
import crossreg
spec = importlib.util.spec_from_file_location("golden_digests", script)
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
if not crossreg.__file__.startswith(src):
    raise SystemExit(f"crossreg came from {crossreg.__file__}, not {src}")
outputs = {}
digests = module.quietly(module.compute, outputs)
with open(out, "wb") as fh:
    pickle.dump({"digests": digests, "outputs": outputs, "versions": module.versions()}, fh)
"""


def computed_in(tree: Path, env: dict[str, str] | None = None) -> dict:
    """{"digests", "outputs", "versions"} of compute() with tree's src, in a
    child process that adds env to this process's environment."""
    src = (tree / "src").resolve()
    if not (src / "crossreg").is_dir():
        raise SystemExit(f"{tree} has no src/crossreg")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "outputs.pickle"
        subprocess.run([sys.executable, "-c", _CHILD, str(src), __file__, str(out)],
                       check=True, env={**os.environ, **(env or {})})
        return pickle.loads(out.read_bytes())


def _rotation_angle(r_a, r_b) -> float:
    """The angle of r_a r_b^T, from the Frobenius gap 2 sqrt(2) sin(angle / 2)."""
    gap = float(np.linalg.norm(np.asarray(r_a) - np.asarray(r_b)))
    return 2.0 * float(np.arcsin(min(1.0, gap / (2.0 * np.sqrt(2.0)))))


def _normals_change(a: dict, b: dict) -> tuple[int, int, float]:
    """(rows whose validity differs, rows valid in both whose normal turned
    past 90 degrees, the largest angle between the others)."""
    both = a["valid"] & b["valid"]
    x, y = a["normals"][both], b["normals"][both]
    dots = np.einsum("nd,nd->n", x, y)
    angles = np.arctan2(np.linalg.norm(np.cross(x, y), axis=-1), np.abs(dots))
    return (int(np.sum(a["valid"] != b["valid"])), int(np.sum(dots < 0.0)),
            float(np.max(angles, initial=0.0)))


def _float_change(a: dict, b: dict) -> tuple[float, str]:
    """The largest absolute change over the fields of two float records, and its field."""
    change, where = 0.0, ""
    for name in sorted(set(a) & set(b)):
        x, y = np.asarray(a[name], dtype=np.float64), np.asarray(b[name], dtype=np.float64)
        if x.shape != y.shape:
            continue  # a different number of rows; the pairs say how
        gap = float(np.max(np.abs(x - y), initial=0.0))
        if gap > change or not where:
            change, where = gap, name
    return change, where


def record_changes(a: dict, b: dict) -> tuple[list[str], dict]:
    """(phrases, figures) of what moved from record a to record b."""
    said, figures = [], {}
    if a.get("error") != b.get("error"):
        figures["outcome"] = 1
        said.append(f"{a.get('error', 'registered')} -> {b.get('error', 'registered')}")
    if "rotation" in a and "rotation" in b:
        figures["rad"] = _rotation_angle(a["rotation"], b["rotation"])
        figures["m"] = float(np.linalg.norm(np.asarray(a["translation"]) - b["translation"]))
        said.append(f"pose moved {figures['rad']:.3g} rad, {figures['m']:.3g} m")
    if "pairs" in a and "pairs" in b:
        union = len(a["pairs"] | b["pairs"])
        figures["jaccard"] = len(a["pairs"] & b["pairs"]) / union if union else 1.0
        said.append(f"pairs Jaccard {figures['jaccard']:.4f} "
                    f"({len(a['pairs'])} -> {len(b['pairs'])})")
    for name in ("ir", "rr"):
        if name in a and name in b:
            figures[name] = abs(b[name] - a[name])
            said.append(f"{name.upper()} {a[name]:.6g} -> {b[name]:.6g}")
    if "floats" in a and "floats" in b:
        figures["float"], name = _float_change(a["floats"], b["floats"])
        said.append(f"largest float change {figures['float']:.3g} ({name})")
    if "normals" in a and "normals" in b:
        figures["flips"], figures["turned"], figures["normal_rad"] = _normals_change(a, b)
        said.append(f"validity changed on {figures['flips']} rows, {figures['turned']} "
                    f"normals turned over, the others within {figures['normal_rad']:.3g} rad")
    return said, figures


# the report's summary: figure, phrase, and whether its smallest value is the worst
_SUMMARY = (
    ("rad", "largest pose rotation {:.3g} rad", False),
    ("m", "largest pose translation {:.3g} m", False),
    ("jaccard", "smallest pair Jaccard {:.4f}", True),
    ("ir", "largest IR change {:.3g}", False),
    ("float", "largest change in another registration number {:.3g}", False),
    ("flips", "most validity changes in one normals file {}", False),
    ("turned", "most normals turned over in one normals file {}", False),
    ("normal_rad", "largest angle between other normals {:.3g} rad", False),
)


def report(before: dict, after: dict) -> list[str]:
    """Lines saying what moved in each key whose digest differs between two
    {"digests", "outputs"} payloads, before (the parent) and after, and a
    summary line last."""
    keys = sorted(set(before["digests"]) | set(after["digests"]))
    moved = [k for k in keys if before["digests"].get(k) != after["digests"].get(k)]
    lines, seen, outcomes = [], {}, []
    for key in moved:
        if key not in before["digests"] or key not in after["digests"]:
            lines.append(f"{key}: only {'after' if key in after['digests'] else 'before'}")
            continue
        lines.append(key)
        was, now = before["outputs"].get(key, {}), after["outputs"].get(key, {})
        if not (was or now):
            lines.append("  no pose, pairs, scores or normals to compare")
        for label in sorted(set(was) | set(now)):
            if label not in was or label not in now:
                lines.append(f"  {label}: only {'after' if label in now else 'before'}")
                continue
            said, figures = record_changes(was[label], now[label])
            lines.append(f"  {label}: {'; '.join(said) or 'nothing compared moved'}")
            for name, value in figures.items():
                seen.setdefault(name, []).append(value)
            if figures.get("outcome") or figures.get("rr"):
                outcomes.append(f"{key} {label}")
    summary = [f"{len(moved)} of {len(keys)} keys moved"]
    summary += [text.format(min(seen[name]) if smallest else max(seen[name]))
                for name, text, smallest in _SUMMARY if name in seen]
    summary.append(f"outcome or RR changed on {', '.join(outcomes) or 'no scene or row'}")
    return lines + ["summary: " + "; ".join(summary)]


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] in ("--against", "--kernel"):
        outputs = {}
        here = {"digests": quietly(compute, outputs), "outputs": outputs}
        if argv[0] == "--against":
            before, after = computed_in(Path(argv[1])), here
        else:
            before, after = here, computed_in(ROOT, {"OPENBLAS_CORETYPE": argv[1]})
            print(f"openblas_core {versions()['openblas_core']} -> "
                  f"{after['versions']['openblas_core']}")
        print("\n".join(report(before, after)))
        return 0
    if argv not in ([], ["--write"]):
        print(__doc__, file=sys.stderr)
        return 1
    payload = {"versions": versions(), "digests": quietly(compute)}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if argv:
        GOLDEN.write_text(text)
        print(f"wrote {len(payload['digests'])} digests -> {GOLDEN}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
