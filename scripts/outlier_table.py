"""Outlier-heavy registrations: how many register, how many end wrong, and why.

    python3 scripts/outlier_table.py

Each scene is a `generate_scene` of seed 1..SEEDS at the `outliers` workload's
settings (bench/harness.py: 800 points, `min_fine_score` 0), registered at
each of FRACTIONS in place of the workload's `outlier_fraction`, one process,
one scene at a time. Per fraction the script prints one Markdown table row:

- registered: scenes whose RMSE is below `tau3_m`;
- wrong, exit 0: scenes registered without an error but at or past `tau3_m`,
  which the CLI would write with exit code 0;
- raised: scenes that end in a registration failure (exit 2 on the CLI);
- RANSAC ms: the median wall time of `pnp_ransac` over every scene, raised
  ones included;
- exact share and inlier share, median (min-max), of registered and of wrong
  scenes: the share of correspondences that pair a pixel with its
  ground-truth point, and RANSAC's inlier count over the correspondences.

Under the table it lists each wrong pose's seed, rotation error and inliers.
The whole run takes about a minute on one core of a 2-vCPU Xeon.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import crossreg.pipeline as pipeline  # noqa: E402
from crossreg.errors import REGISTRATION_FAILURES  # noqa: E402
from crossreg.metrics import registration_rmse, relative_rotation_error  # noqa: E402
from crossreg.pipeline import PipelineConfig, register_scene  # noqa: E402
from crossreg.synth import generate_scene  # noqa: E402
from harness import WORKLOADS  # noqa: E402

SETTINGS = WORKLOADS["outliers"].settings
FRACTIONS = (0.5, 0.6, 0.7)
SEEDS = 30


def exact_share(scene, corrs) -> float:
    """The share of corrs whose point is its pixel's ground-truth point."""
    if len(corrs) == 0:
        return 0.0
    table = scene.table
    keys = table.pixels[:, 1] * table.width + table.pixels[:, 0]
    rows = np.searchsorted(keys, corrs.pixels[:, 1] * table.width + corrs.pixels[:, 0])
    return float(np.mean(table.point_indices[rows] == corrs.point_indices))


def timed(ransac, seconds: list):
    """ransac, appending each call's wall time to seconds."""
    def call(*args, **kwargs):
        start = time.perf_counter()
        try:
            return ransac(*args, **kwargs)
        finally:
            seconds.append(time.perf_counter() - start)
    return call


def spread(values: list[float]) -> str:
    if not values:
        return "—"
    return f"{np.median(values):.3f} ({min(values):.3f}–{max(values):.3f})"


def fraction_row(fraction: float) -> tuple[str, list[str]]:
    cfg = PipelineConfig().replace(**{**SETTINGS, "outlier_fraction": fraction})
    seconds: list[float] = []
    shares = {"registered": ([], []), "wrong": ([], [])}
    raised, wrong = 0, []
    ransac = pipeline.pnp_ransac
    pipeline.pnp_ransac = timed(ransac, seconds)  # the name register_scene calls
    try:
        for seed in range(1, SEEDS + 1):
            scene = generate_scene(cfg.scene_spec(), seed=seed)
            try:
                result = register_scene(scene, cfg)
            except REGISTRATION_FAILURES:
                raised += 1
                continue
            corrs, estimate = result.correspondences, result.estimate
            ok = registration_rmse(scene.cloud, estimate.transform, scene.gt_transform) < cfg.tau3_m
            exact, inliers = shares["registered" if ok else "wrong"]
            exact.append(exact_share(scene, corrs))
            inliers.append(estimate.inlier_count / len(corrs))
            if not ok:
                rre = relative_rotation_error(
                    scene.gt_transform.rotation, estimate.transform.rotation
                )
                wrong.append(f"seed {seed}: RRE {rre:.1f}°, "
                             f"{estimate.inlier_count} of {len(corrs)} inliers")
    finally:
        pipeline.pnp_ransac = ransac
    row = [f"{fraction:g}", str(len(shares["registered"][0])), str(len(wrong)), str(raised),
           f"{1000 * np.median(seconds):.0f}"]
    row += [spread(values) for group in shares.values() for values in group]
    return "| " + " | ".join(row) + " |", wrong


def main() -> int:
    shared = {k: v for k, v in SETTINGS.items() if k != "outlier_fraction"}
    print(f"seeds 1–{SEEDS}, " + ", ".join(f"{k} {v}" for k, v in shared.items()))
    print()
    print("| `outlier_fraction` | registered | wrong, exit 0 | raised | RANSAC ms "
          "| exact share, registered | inlier share, registered "
          "| exact share, wrong | inlier share, wrong |")
    print("| --- " * 9 + "|")
    wrong_poses = {}
    for fraction in FRACTIONS:
        row, wrong_poses[fraction] = fraction_row(fraction)
        print(row, flush=True)
    print()
    for fraction, wrong in wrong_poses.items():
        print(f"wrong poses at {fraction:g}: " + ("; ".join(wrong) or "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
