"""Golden digests: SHA-256 hashes of a small library-level output matrix.

    python3 scripts/golden_digests.py          # print the digests as JSON
    python3 scripts/golden_digests.py --write  # regenerate tests/golden_digests.json

The matrix (about 4 s on one core of a 2-vCPU Xeon):

- register/<variant>/seed<s>: the six register variants of
  scripts/cli_matrix.sh on two 600-point scenes; each digest covers the
  correspondences, the pose, the inlier mask, the coarse patches, the
  agreement, the blend and the evaluation;
- register/default_size/seed21: the corrupted variant on one 2,000-point
  scene, the benchmark's register size. The k-NN's BLAS block shape, and so
  its rounding, depends on the row count, so only a default-size scene pins
  the bytes the benchmark produces;
- register/refit_fallback/seed2: an 800-point scene with half its rows
  outliers, every fine match kept and 30% of the pixels masked, whose
  RANSAC refit keeps fewer than min_sample inliers, so the voted pose and
  mask come back; no other key reaches that fallback;
- bundle_bytes: the bytes of a bundle saved, loaded and saved again;
- sweep/<name>: the four ablation sweeps at their default values over two
  600-point scenes;
- sweep/noisy_mask_ratio and sweep/noisy_mask_ratio_epoch25: the default
  mask_ratio sweep over the same scenes with feature noise (sigma 0.05),
  row outliers (0.1) and depth noise (0.01 m), at epoch 0 and at epoch 25,
  so one prep serves settings whose features are noised and refined;
- normals/<variant> and losses/epoch<e>: the files the normals and losses
  commands write;
- cli/register/<file>, cli/eval and cli/ablate: the four files register
  writes for the seed-21 bundle, the eval report of that result, and an
  ablate CSV of a two-value mask_ratio sweep over two 600-point scenes.

tests/test_golden_digests.py compares a fresh run with the checked-in file.
The file records the numpy and BLAS versions it was made with, since BLAS
rounding can move the low bits of a float on another build.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from crossreg.cli import main as cli_main  # noqa: E402
from crossreg.errors import REGISTRATION_FAILURES  # noqa: E402
from crossreg.io import load_scene_bundle, save_scene_bundle  # noqa: E402
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

# the register variants of scripts/cli_matrix.sh
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
# the scene of register/refit_fallback/seed2, whose refit falls back to the vote
REFIT_FALLBACK = {
    "point_count": 800, "outlier_fraction": 0.5, "min_fine_score": 0.0, "mask_ratio": 0.3,
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


def _register_parts(scene, config) -> list:
    try:
        result = register_scene(scene, config)
    except REGISTRATION_FAILURES as exc:
        return [type(exc).__name__, str(exc)]
    corrs, est = result.correspondences, result.estimate
    ev = evaluate_scene(scene, corrs, est.transform, result.patches, config)
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


def compute() -> dict[str, str]:
    """Digest name -> SHA-256 hex digest of that output."""
    digests = {}
    scenes = {seed: generate_scene(PipelineConfig(point_count=POINTS).scene_spec(), seed)
              for seed in SEEDS}
    for name, updates in VARIANTS.items():
        config = PipelineConfig(point_count=POINTS, **updates)
        for seed, scene in scenes.items():
            digests[f"register/{name}/seed{seed}"] = _digest(_register_parts(scene, config))
    digests[f"register/partial_gt/seed{SEEDS[0]}"] = _digest(
        _register_parts(_partial_gt(scenes[SEEDS[0]]), PipelineConfig(point_count=POINTS))
    )
    default_size = PipelineConfig(**VARIANTS["corrupted"])
    digests[f"register/default_size/seed{SEEDS[0]}"] = _digest(_register_parts(
        generate_scene(default_size.scene_spec(), SEEDS[0]), default_size
    ))
    fallback = PipelineConfig(**REFIT_FALLBACK)
    digests["register/refit_fallback/seed2"] = _digest(_register_parts(
        generate_scene(fallback.scene_spec(), 2), fallback
    ))

    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        save_scene_bundle(first, scenes[SEEDS[0]])
        save_scene_bundle(second, load_scene_bundle(first))
        if _tree_bytes(second) != _tree_bytes(first):
            raise AssertionError("a bundle saved after a load differs from the first save")
        digests["bundle_bytes"] = _digest(_tree_bytes(second))

        for name, sets in (
            ("plain", []),
            ("adaptive", ["--set", "adaptive_k=true"]),
        ):
            out = Path(tmp) / f"normals_{name}"
            _cli(["normals", "--scene", str(first), "--out", str(out), *sets])
            digests[f"normals/{name}"] = _digest(_tree_bytes(out))
        for epoch in (0, 15):
            out = Path(tmp) / f"losses_{epoch}.json"
            _cli(["losses", "--out", str(out), "--set", f"epoch={epoch}"])
            digests[f"losses/epoch{epoch}"] = _digest([out.read_bytes()])

        result = Path(tmp) / "register"
        _cli(["register", "--scene", str(first), "--out", str(result)])
        for name, blob in _tree_bytes(result):
            digests[f"cli/register/{name}"] = _digest([blob])
        report = Path(tmp) / "eval.json"
        _cli(["eval", "--scenes", str(first), "--results", str(result), "--out", str(report)])
        digests["cli/eval"] = _digest([report.read_bytes()])
        table = Path(tmp) / "ablate.csv"
        _cli([
            "ablate", "--sweep", "mask_ratio", "--values", "[0.0, 0.2]", "--out", str(table),
            "--set", f"point_count={POINTS}", "--set", "scene_count=2",
        ])
        digests["cli/ablate"] = _digest([table.read_bytes()])

    sweep_config = PipelineConfig(point_count=POINTS, scene_count=2, base_seed=SEEDS[0])
    for name, values in SWEEP_DEFAULTS.items():
        rows = ablation_rows(sweep_config, name, values)
        digests[f"sweep/{name}"] = _digest([[_f64(x) for x in row] for row in rows])
    noisy = sweep_config.replace(**NOISY_SWEEP)
    for suffix, config in (("", noisy), ("_epoch25", noisy.replace(epoch=25))):
        rows = ablation_rows(config, "mask_ratio", SWEEP_DEFAULTS["mask_ratio"])
        digests[f"sweep/noisy_mask_ratio{suffix}"] = _digest(
            [[_f64(x) for x in row] for row in rows]
        )
    return digests


def versions() -> dict[str, str]:
    """The numpy and BLAS builds a digest depends on."""
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        pass
    return {"numpy": np.__version__, "blas": blas}


def main(argv: list[str]) -> int:
    # the summaries of the CLI commands go to stdout; keep them off the JSON
    with contextlib.redirect_stdout(io.StringIO()):
        payload = {"versions": versions(), "digests": compute()}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if argv == ["--write"]:
        GOLDEN.write_text(text)
        print(f"wrote {len(payload['digests'])} digests -> {GOLDEN}")
    elif argv:
        print(__doc__, file=sys.stderr)
        return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
