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
# fatal, and a failing command's message goes to stderr, not into OUT. An
# uncaught exception exits 1 like a clean error line, so its row is marked
# `NAME 1 traceback`.
run() {
    local name=$1 code=0 mark=""
    shift
    python3 -W error::RuntimeWarning -m crossreg.cli "$@" > /dev/null 2> "$out/.stderr" || code=$?
    if grep -q "^Traceback (most recent call last)" "$out/.stderr"; then mark=" traceback"; fi
    echo "$name $code$mark" >> "$out/exit_codes.txt"
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
table = scene.table
w, h = table.width, table.height
us, vs = table.pixels.astype(np.int64).T
raster = np.full((h, w), np.nan, dtype="<f4")
raster[vs, us] = table.depths
(old / "float32_depth" / "depth.bin").write_bytes(f"DEPTH {w} {h}\n".encode() + raster.tobytes())
rows = np.column_stack([table.pixels, table.depths]).astype("<f8")
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

# bad input that once ended with a traceback; each exits 1 and leaves no file:
# a result whose first correspondence names a point outside the cloud, a
# non-finite integer setting, two pose bounds past their range, a negative
# seed in four settings and in a bundle, a tile grid whose ids overflow int64,
# and a config file that is not UTF-8 text
bad="$out/.bad_point_index"
cp -r "$out/results_plain_small/scene_0000" "$bad"
awk -F, -v OFS=, 'NR == 2 { $3 = 99999 } { print }' "$bad/correspondences.csv" \
    > "$bad/edited.csv"
mv "$bad/edited.csv" "$bad/correspondences.csv"
run eval_point_outside_cloud eval --scenes "$out/small/scene_0000" --results "$bad" \
    --out "$bad/eval.json"
rm -rf "$bad"
run synth_nan_point_count synth --out "$out/nan_point_count" --set point_count=NaN
run synth_huge_translation synth --out "$out/huge_translation" --set max_translation_m=1e308
run synth_huge_rotation synth --out "$out/huge_rotation" --set max_rotation_deg=1e200
run synth_negative_base_seed synth --out "$out/negative_base_seed" --set base_seed=-5
run ablate_negative_noise_seed ablate --sweep k --values "[8]" \
    --out "$out/negative_noise_seed.csv" --set noise_seed=-1 --set mask_ratio=0.1
run register_negative_param_seed register --scene "$out/small/scene_0000" \
    --out "$out/negative_param_seed" --set param_seed=-1 --set epoch=25
run losses_negative_base_seed losses --out "$out/negative_base_seed.json" --set base_seed=-3
bad="$out/.negative_bundle_seed"
cp -r "$out/small/scene_0000" "$bad"
sed -i 's/"seed": [0-9]*/"seed": -1/' "$bad/gt_pose.json"
run register_negative_bundle_seed register --scene "$bad" --out "$bad/result"
rm -rf "$bad"
run register_int64_tile_grid register --scene "$out/small/scene_0000" \
    --out "$out/int64_tile_grid" --set tile_rows=1000000000000 --set tile_cols=1000000000000
printf '\377{}' > "$out/.non_utf8_config.json"
run losses_non_utf8_config losses --out "$out/non_utf8_config.json" \
    --config "$out/.non_utf8_config.json"
rm -f "$out/.non_utf8_config.json"
# and a best inlier rate whose min_sample-th power underflows to 0, which once
# ended RANSAC's stop in a ZeroDivisionError; it exits 2, no consensus
run register_ransac_underflow register --scene "$out/scenes/scene_0002" \
    --out "$out/ransac_underflow" --set outlier_fraction=0.6 --set min_fine_score=0.0 \
    --set ransac_min_sample=400 --set ransac_iterations=20

# values past a key's declared range that once ended with a traceback or a
# numeric warning: a threshold whose square overflows, -0.0 at a closed 0
# end, and scales that overflow the sums of squares of unit_rows or of the
# lifted depths; and a loss weight whose total_loss once came out as Infinity
small0="$out/small/scene_0000"
run register_huge_ransac_threshold register --scene "$small0" \
    --out "$out/huge_ransac_threshold" --set ransac_threshold_px=1e300
run synth_negative_zero_translation synth --out "$out/negative_zero_translation" \
    --set max_translation_m=-0.0
run register_huge_feature_noise register --scene "$small0" \
    --out "$out/huge_feature_noise" --set feature_noise_sigma=1e300
run register_huge_normal_weight register --scene "$small0" \
    --out "$out/huge_normal_weight" --set normal_channel_weight=1e160
run register_huge_guidance_noise register --scene "$small0" \
    --out "$out/huge_guidance_noise" --set guidance_noise_scale=1e300 --set mask_ratio=0.2
run register_huge_gaussian_sigma register --scene "$small0" \
    --out "$out/huge_gaussian_sigma" --set gaussian_sigma_m=1e308
run losses_huge_gdc_weight losses --out "$out/huge_gdc_weight.json" \
    --set lambda_gdc=1.7976931348623157e308 --set epoch=25

# sizes past the address space, which once ended with numpy's allocation
# traceback; they fail before any page is touched
run synth_unallocatable_point_count synth --out "$out/unallocatable_point_count" \
    --set point_count=100000000000000
run register_unallocatable_channels register --scene "$small0" \
    --out "$out/unallocatable_channels" --set channels=536870912

# sizes past what the arithmetic they feed can hold, which once ended with a
# traceback: tile ids past int64, a neighbour count past the int64 cast, and
# arrays past numpy's maximum size; each now lies outside its key's range
run register_int64_tile_cols register --scene "$small0" --out "$out/int64_tile_cols" \
    --set tile_rows=1 --set tile_cols=9223372036854775808
run normals_huge_k normals --scene "$small0" --out "$out/huge_k" --set k_neighbors=1e30
run register_huge_channels register --scene "$small0" --out "$out/huge_channels" \
    --set channels=1e30
run losses_huge_channels losses --out "$out/huge_channels.json" --set channels=1e30
run synth_huge_point_count synth --out "$out/huge_point_count" --set point_count=1e30

# bundle values that once ended with a traceback or a numeric warning: a true
# translation whose squares overflow the metrics (register exits 0, eval 1), a
# rotation entry whose R^T R overflows, a depth whose lifted pixel does, and
# an image of more than 2**53 pixels (register once exited 0 on it, and eval
# scored its result with colliding depth keys: a wrong IR)
bad="$out/.huge_bundle_values"
mkdir -p "$bad"
for name in gt_translation rotation_entry depth wide_image; do cp -r "$small0" "$bad/$name"; done
python3 -W error::RuntimeWarning - "$bad" <<'PY'
import json
import sys
from pathlib import Path

import numpy as np

bad = Path(sys.argv[1])
for name, key, value in (("gt_translation", "translation", 1e160), ("rotation_entry", "rotation", 1e200)):
    path = bad / name / "gt_pose.json"
    raw = json.loads(path.read_text())
    raw[key][0] = value
    path.write_text(json.dumps(raw))
path = bad / "depth" / "depth.bin"
blob = path.read_bytes()
depth_at = blob.index(b"\n") + 1 + 16  # the first (u, v, depth, point index) row's depth
path.write_bytes(blob[:depth_at] + np.float64(1e308).tobytes() + blob[depth_at + 8:])
path = bad / "wide_image" / "intrinsics.json"
path.write_text(json.dumps({**json.loads(path.read_text()), "width": 2**54}))
path = bad / "wide_image" / "depth.bin"
head, rest = path.read_bytes().split(b"\n", 1)
tokens = head.split()
tokens[1] = str(2**54).encode()
path.write_bytes(b" ".join(tokens) + b"\n" + rest)
PY
run register_huge_gt_translation register --scene "$bad/gt_translation" --out "$bad/result"
run eval_huge_gt_translation eval --scenes "$bad/gt_translation" --results "$bad/result" \
    --out "$bad/eval.json"
run register_rotation_entry_past_one register --scene "$bad/rotation_entry" \
    --out "$bad/rotation_result"
run register_huge_depth register --scene "$bad/depth" --out "$bad/depth_result"
run register_wide_image register --scene "$bad/wide_image" --out "$bad/wide_result"
run eval_wide_image eval --scenes "$bad/wide_image" \
    --results "$out/results_plain_small/scene_0000" --out "$bad/wide_eval.json"
rm -rf "$bad"

# bundles that once ended with numpy's reshape traceback: pixels that all
# name no point, and a table without rows; register exits 2, too few
# correspondences. And JSON numbers given as a string or a bool, which once
# loaded as the number they spell: a bundle's fx and cx, its true
# translation, and a result's translation; each exits 1
odd="$out/.odd_bundle_values"
mkdir -p "$odd"
for name in unmatched_rows no_rows string_fx bool_translation; do cp -r "$small0" "$odd/$name"; done
cp -r "$out/results_plain_small/scene_0000" "$odd/string_pose"
python3 -W error::RuntimeWarning - "$odd" <<'PY'
import json
import sys
from pathlib import Path

import numpy as np

odd = Path(sys.argv[1])
path = odd / "unmatched_rows" / "depth.bin"
head, rest = path.read_bytes().split(b"\n", 1)
rows = np.frombuffer(rest, dtype="<f8").reshape(-1, 4).copy()
rows[:, 3] = -1.0
path.write_bytes(head + b"\n" + rows.tobytes())
path = odd / "no_rows" / "depth.bin"
path.write_bytes(b" ".join(path.read_bytes().split(b"\n", 1)[0].split()[:3] + [b"0\n"]))
for name, file, edits in (
    ("string_fx", "intrinsics.json", {"fx": "525", "cx": True}),
    ("bool_translation", "gt_pose.json", {"translation": ["0.1", True, 0]}),
    ("string_pose", "pose.json", {"translation": ["0.1", True, 0]}),
):
    path = odd / name / file
    path.write_text(json.dumps({**json.loads(path.read_text()), **edits}))
PY
run register_unmatched_rows register --scene "$odd/unmatched_rows" --out "$odd/result"
run register_no_pixel_rows register --scene "$odd/no_rows" --out "$odd/result"
run register_string_fx register --scene "$odd/string_fx" --out "$odd/result"
run register_bool_translation register --scene "$odd/bool_translation" --out "$odd/result"
run eval_string_pose eval --scenes "$small0" --results "$odd/string_pose" \
    --out "$odd/eval.json"
rm -rf "$odd"

# results that registration never writes and eval once scored, exiting 0: a
# correspondence whose score is NaN and a patch whose score overflows to inf;
# each exits 1. And a job count below one, which ablate refuses before any
# scene is registered
bad="$out/.non_finite_scores"
mkdir -p "$bad"
for name in nan_correspondence inf_patch; do
    cp -r "$out/results_plain_small/scene_0000" "$bad/$name"
done
awk -F, -v OFS=, 'NR == 2 { $4 = "nan" } { print }' "$bad/nan_correspondence/correspondences.csv" \
    > "$bad/edited.csv"
mv "$bad/edited.csv" "$bad/nan_correspondence/correspondences.csv"
awk -F, -v OFS=, 'NR == 2 { $3 = "1e999" } { print }' "$bad/inf_patch/patches.csv" \
    > "$bad/edited.csv"
mv "$bad/edited.csv" "$bad/inf_patch/patches.csv"
run eval_nan_correspondence_score eval --scenes "$small0" --results "$bad/nan_correspondence" \
    --out "$bad/eval.json"
run eval_inf_patch_score eval --scenes "$small0" --results "$bad/inf_patch" \
    --out "$bad/eval.json"
rm -rf "$bad"
run ablate_zero_jobs ablate --sweep k --values "[8]" --jobs 0 \
    --out "$out/zero_jobs.csv" "${sweep[@]}"
