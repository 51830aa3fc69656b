#!/usr/bin/env bash
# Byte-identity matrix: run every crossreg command on fixed seeds and configs
# and write all outputs, plus each command's exit code, under OUT.
#
#   scripts/cli_matrix.sh OUT
#
# It runs the crossreg of the checkout it lives in (its src/). Run it in two
# checkouts and compare the trees with `diff -r OUT_A OUT_B`: a refactor that
# keeps every output shows no difference. Numeric warnings are errors. Takes
# about a minute on two cores.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 OUT" >&2
    exit 1
fi
out=$1
root=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$root/src"
mkdir -p "$out"
: > "$out/exit_codes.txt"

# run NAME ARGS...: one crossreg command; its exit code is recorded, not
# fatal, and a failing command's message goes to stderr, not into OUT
run() {
    local name=$1 code=0
    shift
    python3 -W error::RuntimeWarning -m crossreg.cli "$@" > /dev/null 2> "$out/.stderr" || code=$?
    echo "$name $code" >> "$out/exit_codes.txt"
    if [ "$code" -ne 0 ]; then sed "s|^|$name: |" "$out/.stderr" >&2; fi
    rm -f "$out/.stderr"
}

# scenes: three at the default size, three smaller ones written by two workers
run synth synth --out "$out/scenes" --set scene_count=3 --set base_seed=21
run synth_small synth --out "$out/small" --jobs 2 \
    --set scene_count=3 --set base_seed=1 --set point_count=800

# register each scene under six configs, then evaluate serially and in parallel
variants=(
    "plain|"
    "adaptive|adaptive_k=true"
    "epoch25|epoch=25"
    "corrupted|gaussian_sigma_m=0.01 mask_ratio=0.2"
    "outliers|min_fine_score=0.0 outlier_fraction=0.5"
    "channels32|channels=32"
)
for entry in "${variants[@]}"; do
    name=${entry%%|*}
    sets=()
    for kv in ${entry#*|}; do sets+=(--set "$kv"); done
    for batch in scenes small; do
        for scene in "$out/$batch"/scene_*; do
            run "register_${name}_${batch}_$(basename "$scene")" register \
                --scene "$scene" --out "$out/results_${name}_$batch/$(basename "$scene")" \
                ${sets[@]+"${sets[@]}"}
        done
        for jobs in 1 2; do
            run "eval_${name}_${batch}_jobs$jobs" eval --scenes "$out/$batch" \
                --results "$out/results_${name}_$batch" \
                --out "$out/eval_${name}_${batch}_jobs$jobs.json" --jobs "$jobs" \
                ${sets[@]+"${sets[@]}"}
        done
    done
done

# bundles in the layouts before the current one, written without crossreg.io:
# scene_0000 with an ASCII cloud.ply, with a float32 DEPTH raster, and with
# 3-column DEPTHROWS rows beside a gt_corrs.csv
old="$out/old_formats"
mkdir -p "$old"
python3 -W error::RuntimeWarning - "$out/scenes/scene_0000" "$old" <<'PY'
import shutil
import sys
from pathlib import Path

import numpy as np

from crossreg.pipeline import PipelineConfig
from crossreg.synth import generate_scene

bundle, old = Path(sys.argv[1]), Path(sys.argv[2])
scene = generate_scene(PipelineConfig().scene_spec(), seed=21)  # scene_0000's seed
for name in ("ascii_ply", "float32_depth", "depthrows_gt_csv"):
    shutil.copytree(bundle, old / name)
lines = ["ply", "format ascii 1.0", f"element vertex {len(scene.cloud)}",
         "property double x", "property double y", "property double z", "end_header"]
lines += [f"{x!r} {y!r} {z!r}" for x, y, z in scene.cloud.tolist()]
(old / "ascii_ply" / "cloud.ply").write_text("\n".join(lines) + "\n")
h, w = scene.depth.shape
raster = np.where(scene.depth.valid, scene.depth.values, np.nan).astype("<f4")
(old / "float32_depth" / "depth.bin").write_bytes(f"DEPTH {w} {h}\n".encode() + raster.tobytes())
vs, us = np.nonzero(scene.depth.valid)
rows = np.column_stack([us, vs, scene.depth.values[vs, us]]).astype("<f8")
header = f"DEPTHROWS {w} {h} {len(rows)}\n".encode()
(old / "depthrows_gt_csv" / "depth.bin").write_bytes(header + rows.tobytes())
gt = scene.gt_correspondences
csv = ["u,v,point_index,score"]
csv += [f"{u!r},{v!r},{i},{s!r}" for (u, v), i, s in
        zip(gt.pixels.tolist(), gt.point_indices.tolist(), gt.scores.tolist())]
(old / "depthrows_gt_csv" / "gt_corrs.csv").write_text("\n".join(csv) + "\n")
PY
for name in ascii_ply float32_depth depthrows_gt_csv; do
    run "register_old_$name" register --scene "$old/$name" --out "$old/results_$name"
    run "normals_old_$name" normals --scene "$old/$name" --out "$old/normals_$name"
done

# standalone normals: plain, and adaptive at the default and a larger k
mkdir -p "$out/normals"
run normals_plain normals --scene "$out/scenes/scene_0000" --out "$out/normals/plain"
run normals_adaptive normals --scene "$out/scenes/scene_0000" --out "$out/normals/adaptive" \
    --set adaptive_k=true
run normals_adaptive_k16 normals --scene "$out/scenes/scene_0000" \
    --out "$out/normals/adaptive_k16" --set adaptive_k=true --set k_neighbors=16

run losses_epoch0 losses --out "$out/losses_epoch0.json"
run losses_epoch15 losses --out "$out/losses_epoch15.json" --set epoch=15

# every sweep over three scenes, plus three variants, two of them on two workers
sweep=(--set scene_count=3 --set base_seed=5)
for name in gaussian_sigma mask_ratio k warmup; do
    run "ablate_$name" ablate --sweep "$name" --out "$out/ablate_$name.csv" "${sweep[@]}"
done
run ablate_mask_ratio_adaptive ablate --sweep mask_ratio --jobs 2 \
    --out "$out/ablate_mask_ratio_adaptive.csv" "${sweep[@]}" --set adaptive_k=true
run ablate_warmup_outliers ablate --sweep warmup --jobs 2 --values "[0, 10, 12, 20]" \
    --out "$out/ablate_warmup_outliers.csv" "${sweep[@]}" \
    --set min_fine_score=0.0 --set outlier_fraction=0.5
run ablate_mask_ratio_noisy ablate --sweep mask_ratio \
    --out "$out/ablate_mask_ratio_noisy.csv" "${sweep[@]}" --set gaussian_sigma_m=0.01

# bad input that once ended with a traceback; both exit 1 and leave no file:
# a result whose first correspondence names a point outside the cloud, and
# a non-finite integer setting
bad="$out/.bad_point_index"
cp -r "$out/results_plain_small/scene_0000" "$bad"
awk -F, -v OFS=, 'NR == 2 { $3 = 99999 } { print }' "$bad/correspondences.csv" \
    > "$bad/edited.csv"
mv "$bad/edited.csv" "$bad/correspondences.csv"
run eval_point_outside_cloud eval --scenes "$out/small/scene_0000" --results "$bad" \
    --out "$bad/eval.json"
rm -rf "$bad"
run synth_nan_point_count synth --out "$out/nan_point_count" --set point_count=NaN
