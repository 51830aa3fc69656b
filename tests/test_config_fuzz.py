"""Property fuzz of the config table: every key's edge values through the CLI.

Each key contributes its range's edges, one step past each, -0.0, the
smallest subnormal, 1e300 and 2**64 (whole values for integer keys). The
size-scaling keys are capped by ENVELOPE so that no call allocates much.
Every call must exit 0, 1 or 2 with no exception, numeric warning or
non-finite number in its JSON output, and a mapping holding a value
outside its key's range exits 1 with one `error:` line.

The rows of the second table, PARAMETERS, and the config rows that public
functions reuse draw the same values, plus True and NaN, and each goes
through its public function: a ConfigError naming the parameter exactly
when the row refuses the value, and a normal return otherwise.
"""

import contextlib
import functools
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossreg._settings import PARAMETERS, SETTINGS
from crossreg.cli import main
from crossreg.errors import ConfigError
from crossreg.graph import GraphAttentionParams, build_knn_graph, knn_indices
from crossreg.io import save_scene_bundle
from crossreg.losses import CircleLossConfig, mmd, warmup_weight
from crossreg.matching import PatchPair, coarse_match, fine_match
from crossreg.metrics import (
    feature_matching_recall,
    inlier_ratio,
    patch_inlier_ratio,
    registration_recall,
)
from crossreg.normals import estimate_point_normals
from crossreg.pipeline import PipelineConfig, ablation_rows
from crossreg.synth import generate_scene

ROWS = {**SETTINGS, **PARAMETERS}

# tile_rows, tile_cols and k_neighbors size no allocation (tile groups hold
# only the ids present, and k-NN clamps k to n - 1), so their table edges
# and 2**64 are drawn in full
ENVELOPE = {
    "point_count": 400,
    "channels": 64,
    "scene_count": 2,
    "ransac_iterations": 20,  # every call runs at most this many
    "top_k_coarse": 8,
    "normal_k": 12,  # a fit over more neighbours than the cloud holds fails
    "attention_channels": 64,
}
COMMANDS = ("register", "normals", "losses")


def draws(key: str) -> list:
    default, lo, hi = ROWS[key]
    if isinstance(default, bool):
        values = [False, True]
    elif isinstance(default, int):
        values = [lo, int(hi), lo - 1, int(hi) + 1]
    else:
        values = [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
    values += [-0.0, 5e-324]
    values += [int(1e300), 2**64] if type(default) is int else [1e300, 2**64]
    if key in ENVELOPE:
        values = [v for v in values if v < ENVELOPE[key]] + [ENVELOPE[key]]
    # -0.0 == 0 and True == 1, so dedupe by type and repr
    return list({(type(v), repr(v)): v for v in values}.values())


DRAWS = [(key, value) for key in SETTINGS for value in draws(key)]


def refused(key: str, value) -> bool:
    """Whether the config must refuse value for key, restated from the table."""
    default, lo, hi = ROWS[key]
    if isinstance(default, bool) or isinstance(value, bool):
        return type(value) is not type(default)
    outside = not lo <= value <= hi or (value == 0 == lo and math.copysign(1.0, value) < 0)
    return outside or (type(default) is int and value != int(value))


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    scene = generate_scene(PipelineConfig(point_count=300).scene_spec(), seed=0)
    save_scene_bundle(root / "scene", scene)
    return root


def check_call(paths, command: str, drawn: list) -> None:
    mapping = {"ransac_iterations": ENVELOPE["ransac_iterations"], **dict(drawn)}
    argv = [command, "--out", str(paths / command)]
    if command != "losses":
        argv += ["--scene", str(paths / "scene")]
    for key, value in mapping.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    if any(refused(key, value) for key, value in drawn):
        assert code == 1 and err.getvalue().startswith("error: "), (argv, code)
    assert code in (0, 1, 2), argv
    assert code == 0 or err.getvalue().count("\n") == 1, (argv, err.getvalue())
    if code == 0:  # and no JSON output holds a non-finite number
        out = paths / command
        for path in out.glob("*.json") if out.is_dir() else [out]:
            json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(f"{argv}: {c}"))


@settings(max_examples=len(DRAWS))  # sampled_from draws each value once
@given(draw=st.sampled_from(DRAWS))
def test_every_table_value_through_register(paths, draw):
    check_call(paths, "register", [draw])


@settings(max_examples=40)
@given(
    command=st.sampled_from(COMMANDS),
    drawn=st.lists(st.sampled_from(DRAWS), min_size=1, max_size=3, unique_by=lambda d: d[0]),
)
def test_table_mappings_through_every_command(paths, command, drawn):
    check_call(paths, command, drawn)


@functools.cache
def scene():
    return generate_scene(PipelineConfig(point_count=300).scene_spec(), seed=0)


CLOUD = np.random.default_rng(0).standard_normal((40, 3))
FEATURES = np.eye(3)
# each public scalar parameter: its row, its name, and a call of its function
PUBLIC = [
    ("knn_k", "k", lambda v: knn_indices(CLOUD, v)),
    ("normal_k", "k", lambda v: estimate_point_normals(CLOUD, v)),
    ("attention_channels", "channels", lambda v: GraphAttentionParams.initialize(v, 0)),
    ("param_seed", "seed", lambda v: GraphAttentionParams.initialize(4, v)),
    ("top_k_coarse", "top_k", lambda v: coarse_match(FEATURES, v)),
    ("min_fine_score", "min_score",
     lambda v: fine_match(FEATURES, FEATURES, np.zeros((3, 2)), np.arange(3), v)),
    ("circle_gamma", "CircleLossConfig.gamma", lambda v: CircleLossConfig(gamma=v)),
    ("circle_delta_p", "CircleLossConfig.delta_p", lambda v: CircleLossConfig(delta_p=v)),
    ("circle_delta_n", "CircleLossConfig.delta_n", lambda v: CircleLossConfig(delta_n=v)),
    ("epoch", "epoch", warmup_weight),
    ("mmd_bandwidth", "bandwidth", lambda v: mmd(CLOUD[:1], CLOUD[:1], bandwidth=v)),
    ("tau1", "tau1", lambda v: inlier_ratio(
        scene().gt_correspondences, scene().cloud, scene().table, scene().intrinsics,
        scene().gt_transform, v,
    )),
    ("tau2_ratio", "tau2", lambda v: feature_matching_recall([0.5], v)),
    ("tau3_m", "tau3", lambda v: registration_recall([0.05], v)),
    ("pir_threshold", "threshold", lambda v: patch_inlier_ratio([PatchPair(0, 0, 0.5, 0.5)], v)),
    ("jobs", "jobs", lambda v: ablation_rows(
        PipelineConfig(point_count=300, scene_count=1, outlier_fraction=1.0), "k", [8], v
    )),
]
PUBLIC_DRAWS = [
    pytest.param(row, name, call, value, id=f"{row}-{value!r}")
    for row, name, call in PUBLIC
    for value in draws(row) + [True, math.nan]
]


def test_every_parameter_row_has_a_public_call():
    assert set(PARAMETERS) <= {row for row, _, _ in PUBLIC}


@pytest.mark.parametrize("row, name, call, value", PUBLIC_DRAWS)
def test_parameter_edges_through_their_function(row, name, call, value):
    if refused(row, value):
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} "):
            call(value)
    else:
        call(value)


SCORES = np.array([[0.9, 0.1], [0.2, 0.8]])


# with the NaN and True draws above (e.g. circle_gamma-nan, tau3_m-nan,
# top_k_coarse-True), these are the inputs that once ended in a numpy
# TypeError or returned a silently wrong number
@pytest.mark.parametrize("call, name", [
    (lambda: estimate_point_normals(CLOUD, 8.5), "k"),
    (lambda: knn_indices(CLOUD, 8.5), "k"),
    (lambda: build_knn_graph(CLOUD, 4.5), "k"),
    (lambda: coarse_match(SCORES, 2.5), "top_k"),
    (lambda: GraphAttentionParams.initialize(7.5, 0), "channels"),
    (lambda: GraphAttentionParams.initialize(7, 2.5), "seed"),
    (lambda: feature_matching_recall([0.5], "x"), "tau2"),
], ids=["normals_k", "knn_k", "graph_k", "top_k", "channels", "seed", "string_tau2"])
def test_public_parameter_refused(call, name):
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} "):
        call()
