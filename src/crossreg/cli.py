"""Command line front end: synth, register, eval, ablate, normals, losses.

Configuration comes from an optional JSON file (--config) overlaid with
repeatable --set key=value flags whose values are JSON literals. Every
command is deterministic for a given config, and reruns write
byte-identical files. Exit codes: 0 success, 1 bad input or config
(including a file that cannot be read or written, and a size too large to
allocate), 2 registration failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from ._settings import check, stream_rng
from .errors import (
    REGISTRATION_FAILURES,
    ConfigError,
    CrossregError,
    LengthMismatchError,
)
from .geometry import unit_rows
from .io import (
    load_scene_bundle,
    read_correspondences,
    read_grid,
    read_json,
    read_patches,
    read_pose,
    save_scene_bundle,
    write_correspondences,
    write_grid,
    write_json,
    write_normals,
    write_patches,
    write_pose_estimate,
    write_rows,
)
from .losses import (
    circle_loss,
    gdc_loss,
    mmd,
    normal_consistency_loss,
    total_loss,
    warmup_weight,
)
from .normals import NormalField
from .pipeline import (
    SWEEP_DEFAULTS,
    SWEEP_NAMES,
    PipelineConfig,
    ablation_rows,
    evaluate_scene,
    evaluation_report,
    lifted_pixel_normals,
    parallel_map,
    point_normals,
    register_scene,
)
from .synth import generate_scene

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_REGISTRATION_FAILED = 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped onto the bad-input exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)


def _job_count(text: str) -> int:
    try:
        return check("jobs", int(text))
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _add_config_flags(sub) -> None:
    sub.add_argument("--config", help="JSON file with config keys")
    sub.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key; VALUE is a JSON literal (repeatable)",
    )


def load_config(args) -> PipelineConfig:
    mapping = {}
    if args.config:
        try:
            raw = read_json(args.config)
        except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        mapping.update(raw)
    for item in args.set:
        key, sep, raw_value = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        try:
            mapping[key] = json.loads(raw_value)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"--set {key}: {raw_value!r} is not a JSON literal"
            ) from exc
    return PipelineConfig.from_mapping(mapping)


# --------------------------------------------------------------------------- #
#  synth
# --------------------------------------------------------------------------- #


def _synth_one(args) -> None:
    config, out_dir, index = args
    scene = generate_scene(config.scene_spec(), seed=config.base_seed + index)
    save_scene_bundle(Path(out_dir) / f"scene_{index:04d}", scene)


def cmd_synth(args) -> int:
    config = load_config(args)
    out = Path(args.out)
    tasks = [(config, str(out), i) for i in range(config.scene_count)]
    parallel_map(_synth_one, tasks, args.jobs)
    print(f"wrote {config.scene_count} scene bundles under {out}")
    return EXIT_OK


# --------------------------------------------------------------------------- #
#  register
# --------------------------------------------------------------------------- #


def cmd_register(args) -> int:
    config = load_config(args)
    scene = load_scene_bundle(args.scene)
    try:
        result = register_scene(scene, config)
    except REGISTRATION_FAILURES as exc:
        print(f"registration failed: {exc}", file=sys.stderr)
        return EXIT_REGISTRATION_FAILED
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_pose_estimate(out / "pose.json", result.estimate)
    write_correspondences(out / "correspondences.csv", result.correspondences)
    write_patches(out / "patches.csv", result.patches)
    write_grid(out / "grid.json", *_grid(config))
    print(
        f"registered {args.scene}: {len(result.correspondences)} correspondences, "
        f"{result.estimate.inlier_count} inliers"
    )
    return EXIT_OK


# --------------------------------------------------------------------------- #
#  eval
# --------------------------------------------------------------------------- #


def _run_dirs(parent: Path, marker: str) -> list[Path]:
    """parent itself when it holds `marker`, else its subdirectories in order."""
    if (parent / marker).is_file():
        return [parent]
    return sorted(p for p in parent.iterdir() if p.is_dir())


def _grid(config: PipelineConfig) -> tuple[int, int, float]:
    return config.tile_rows, config.tile_cols, config.voxel_size


def _eval_one(args):
    config, scene_dir, result_dir = args
    # patch ids mean nothing on another grid; a finer one scores the pairs
    # as disjoint instead of failing
    registered = read_grid(Path(result_dir) / "grid.json")
    if registered != _grid(config):
        names = "(tile_rows, tile_cols, voxel_size)"
        raise ConfigError(
            f"{result_dir} was registered on the grid {names} = {registered}, "
            f"but eval uses {_grid(config)}; pass the same values to both"
        )
    scene = load_scene_bundle(scene_dir)
    transform = read_pose(Path(result_dir) / "pose.json")
    corrs = read_correspondences(Path(result_dir) / "correspondences.csv")
    patches = read_patches(Path(result_dir) / "patches.csv")
    return evaluate_scene(scene, corrs, transform, patches, config)


def cmd_eval(args) -> int:
    config = load_config(args)
    scenes = _run_dirs(Path(args.scenes), "cloud.ply")
    results = _run_dirs(Path(args.results), "pose.json")
    if len(scenes) != len(results):
        raise LengthMismatchError(
            f"{len(scenes)} scenes but {len(results)} results"
        )
    if not scenes:
        raise LengthMismatchError(f"no scene bundles under {args.scenes}")
    tasks = [(config, str(s), str(r)) for s, r in zip(scenes, results)]
    evaluations = parallel_map(_eval_one, tasks, args.jobs)
    report = evaluation_report(evaluations)
    write_json(args.out, report)
    mean = report["mean"]
    print(
        f"evaluated {len(scenes)} scenes: IR={mean['inlier_ratio']:.4f} "
        f"FMR={mean['feature_matching_recall']:.4f} "
        f"RR={mean['registration_recall']:.4f}"
    )
    return EXIT_OK


# --------------------------------------------------------------------------- #
#  ablate
# --------------------------------------------------------------------------- #


def cmd_ablate(args) -> int:
    config = load_config(args)
    if args.values is None:
        values = SWEEP_DEFAULTS[args.sweep]
    else:
        try:
            values = json.loads(args.values)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--values is not a JSON list: {exc}") from exc
        if not isinstance(values, list):
            raise ConfigError("--values must be a JSON list of numbers")
    rows = ablation_rows(config, args.sweep, values, jobs=args.jobs)
    write_rows(args.out, "setting,ir,fmr,rr", rows)
    print(f"swept {args.sweep} over {len(rows)} settings -> {args.out}")
    return EXIT_OK


# --------------------------------------------------------------------------- #
#  normals
# --------------------------------------------------------------------------- #


def cmd_normals(args) -> int:
    config = load_config(args)
    scene = load_scene_bundle(args.scene)
    k, adaptive, table = config.k_neighbors, config.adaptive_k, scene.table
    field = point_normals(scene.cloud, k, adaptive)
    # one lifted normal per depth row, as registration computes them
    lifted = lifted_pixel_normals(table.pixels, table.depths, scene.intrinsics, k, adaptive)
    out = Path(args.out)  # made only once both fields are fit
    out.mkdir(parents=True, exist_ok=True)
    write_normals(out / "point_normals.bin", field)
    write_normals(out / "depth_normals.bin", lifted)
    print(
        f"wrote normals for {field.valid.sum()} of {scene.cloud.shape[0]} points under {out}"
    )
    return EXIT_OK


# --------------------------------------------------------------------------- #
#  losses
# --------------------------------------------------------------------------- #


def _tangent(rng: np.random.Generator, base: np.ndarray) -> np.ndarray:
    t = rng.standard_normal(base.shape)
    t -= np.einsum("mc,mc->m", t, base)[:, None] * base
    return t


def _directional_check(value_fn, grad: np.ndarray, base: np.ndarray, direction: np.ndarray) -> float:
    """Relative error of the analytic directional derivative vs central FD."""
    step = 1e-5
    fd = (value_fn(base + step * direction) - value_fn(base - step * direction)) / (2 * step)
    analytic = float(np.sum(grad * direction))
    return abs(fd - analytic) / max(1e-8, abs(analytic))


def cmd_losses(args) -> int:
    config = load_config(args)
    rng = stream_rng("loss_fixture", config.base_seed)
    m = 24
    f_img = unit_rows(rng.standard_normal((m, config.channels)))
    f_cloud = unit_rows(f_img + 0.1 * rng.standard_normal((m, config.channels)))
    target = unit_rows(rng.standard_normal((m, 3)))
    predicted = unit_rows(target + 0.05 * rng.standard_normal((m, 3)))
    all_valid = np.ones(m, dtype=bool)
    pred_field = NormalField(predicted, all_valid)
    tgt_field = NormalField(target, all_valid)

    pos_dists = np.linalg.norm(f_img - f_cloud, axis=1)
    neg_dists = np.linalg.norm(f_img - np.roll(f_cloud, 1, axis=0), axis=1)
    match_value = circle_loss(pos_dists, neg_dists)
    normal_value, normal_grad = normal_consistency_loss(pred_field, tgt_field)
    gdc_value, gdc_grad_img, _ = gdc_loss(f_img, f_cloud)
    weights = config.loss_weights()
    blend = warmup_weight(config.epoch, config.warmup())
    total = total_loss(match_value, normal_value, blend * gdc_value, weights)

    normal_err = _directional_check(
        lambda x: normal_consistency_loss(NormalField(x, all_valid), tgt_field)[0],
        normal_grad,
        predicted,
        _tangent(rng, predicted),
    )
    gdc_err = _directional_check(
        lambda x: gdc_loss(x, f_cloud)[0],
        gdc_grad_img,
        f_img,
        _tangent(rng, f_img),
    )

    epoch = config.epoch
    records = [
        {"name": "match_loss", "value": match_value, "epoch": epoch, "weight": weights.lambda_match},
        {"name": "normal_consistency_loss", "value": normal_value, "epoch": epoch, "weight": weights.lambda_normal},
        {"name": "gdc_loss", "value": gdc_value, "epoch": epoch, "weight": weights.lambda_gdc * blend},
        {"name": "total_loss", "value": total, "epoch": epoch, "weight": 1.0},
        {"name": "mmd", "value": mmd(f_img, f_cloud), "epoch": epoch, "weight": 0.0},
        {"name": "normal_consistency_grad_rel_err", "value": normal_err, "epoch": epoch, "weight": weights.lambda_normal},
        {"name": "gdc_grad_rel_err", "value": gdc_err, "epoch": epoch, "weight": weights.lambda_gdc * blend},
    ]
    write_json(args.out, {"records": records})
    print(f"wrote {len(records)} loss records -> {args.out}")
    return EXIT_OK


# --------------------------------------------------------------------------- #
#  Parser wiring
# --------------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crossreg", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    synth = subs.add_parser("synth", help="generate seeded scene bundles")
    synth.add_argument("--out", required=True, help="parent directory for bundles")
    synth.add_argument("--jobs", type=_job_count, default=1)
    _add_config_flags(synth)
    synth.set_defaults(func=cmd_synth)

    register = subs.add_parser("register", help="register one scene bundle")
    register.add_argument("--scene", required=True, help="scene bundle directory")
    register.add_argument("--out", required=True, help="output directory")
    _add_config_flags(register)
    register.set_defaults(func=cmd_register)

    evaluate = subs.add_parser("eval", help="score registration results")
    evaluate.add_argument("--scenes", required=True, help="bundle dir or parent of bundles")
    evaluate.add_argument("--results", required=True, help="result dir or parent of results")
    evaluate.add_argument("--out", required=True, help="report JSON path")
    evaluate.add_argument("--jobs", type=_job_count, default=1)
    _add_config_flags(evaluate)
    evaluate.set_defaults(func=cmd_eval)

    ablate = subs.add_parser("ablate", help="sweep one knob over a seeded scene batch")
    ablate.add_argument("--sweep", required=True, choices=SWEEP_NAMES)
    ablate.add_argument("--values", help="JSON list of sweep values (default: built-in)")
    ablate.add_argument("--out", required=True, help="CSV path")
    ablate.add_argument("--jobs", type=_job_count, default=1)
    _add_config_flags(ablate)
    ablate.set_defaults(func=cmd_ablate)

    normals = subs.add_parser("normals", help="standalone normal estimation on a bundle")
    normals.add_argument("--scene", required=True, help="scene bundle directory")
    normals.add_argument("--out", required=True, help="output directory")
    _add_config_flags(normals)
    normals.set_defaults(func=cmd_normals)

    losses = subs.add_parser("losses", help="loss values and gradient checks on a seeded fixture")
    losses.add_argument("--out", required=True, help="records JSON path")
    _add_config_flags(losses)
    losses.set_defaults(func=cmd_losses)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CrossregError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
