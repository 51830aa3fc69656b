"""Bundle fuzz: mutated scene files through register and eval, in-process.

One 300-point bundle is built per module, and each example mutates one of
its four files: a truncation, a byte flip in the cloud.ply or depth.bin
header, a number of gt_pose.json or intrinsics.json replaced by a
past-range literal, or by a string or a bool, a double of the cloud.ply or
depth.bin payload replaced by an extreme value, or a depth.bin whose rows
all name no point or that has no rows. register runs on the mutated bundle
and, when it exits 0, eval scores its result. Every call must exit 0, 1 or
2 with no exception and no warning, a failing call prints one line, and no
JSON output holds a non-finite number. A number given as a string or a
bool is a malformed bundle (register exits 1), and a bundle without
ground-truth rows has no correspondences (register exits 2).
"""

import contextlib
import io
import json
import re
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossreg.cli import main
from crossreg.io import BUNDLE_FILES, save_scene_bundle
from crossreg.pipeline import PipelineConfig
from crossreg.synth import generate_scene

NUMBERS = ("1e400", "-0.0", "1e200", "1e308", "12345678901234567890123")
DOUBLES = (
    1e308, -1e308, 1.7976931348623157e308, 1e200, -1e200, 1e154, 5e-324, -0.0,
    float("inf"), float("nan"),
)
HEADER_END = {"cloud.ply": b"end_header\n", "depth.bin": b"\n"}
ROW_DOUBLES = {"cloud.ply": 3, "depth.bin": 4}  # (x, y, z) and (u, v, depth, point index)
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
# RANSAC stays cheap on every mutated bundle; eval takes the same setting
SETS = ["--set", "ransac_iterations=20"]


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """The directory of a 300-point bundle."""
    root = tmp_path_factory.mktemp("bundle")
    save_scene_bundle(root, generate_scene(PipelineConfig(point_count=300).scene_spec(), seed=0))
    return root


# (kind, file, position as a share of its range, value[, column of a payload row])
AT = st.floats(0.0, 1.0, exclude_max=True)
MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.sampled_from(BUNDLE_FILES), AT),
    st.tuples(st.just("header"), st.sampled_from(tuple(HEADER_END)), AT, st.integers(1, 255)),
    st.tuples(
        st.just("number"), st.sampled_from(("gt_pose.json", "intrinsics.json")), AT,
        st.sampled_from(NUMBERS),
    ),
    st.tuples(
        st.just("payload"), st.sampled_from(tuple(HEADER_END)), AT, st.sampled_from(DOUBLES),
        st.integers(0, 3),
    ),
    st.tuples(
        st.just("json_type"), st.sampled_from(("gt_pose.json", "intrinsics.json")), AT,
        st.sampled_from(("string", "true", "false")),
    ),
    st.tuples(st.just("rows"), st.just("depth.bin"), st.just(0.0),
              st.sampled_from(("unmatched", "none"))),
)
# the exit code register must give each kind of mutation that always has one
EXPECTED = {"json_type": 1, "rows": 2}


def mutate(bundle, mutation) -> dict:
    """The bundle's files by name, with one of them mutated."""
    files = {name: (bundle / name).read_bytes() for name in BUNDLE_FILES}
    kind, name, at, *value = mutation
    blob = bytearray(files[name])
    if kind == "truncate":
        blob = blob[:int(at * len(blob))]
    elif kind == "header":
        pos = int(at * blob.index(HEADER_END[name]))  # a byte before the header's end
        blob[pos] ^= value[0]
    elif kind in ("number", "json_type"):
        spans = [m.span() for m in NUMBER.finditer(blob)]
        start, end = spans[int(at * len(spans))]
        if value[0] == "string":  # the number's own text, quoted
            blob[start:end] = b'"' + blob[start:end] + b'"'
        else:
            blob[start:end] = value[0].encode()
    elif kind == "rows":  # every point index -1, or no rows at all
        head, payload = bytes(blob).split(b"\n", 1)
        if value[0] == "none":
            blob = b" ".join(head.split()[:3] + [b"0\n"])
        else:
            rows = np.frombuffer(payload, dtype="<f8").reshape(-1, 4).copy()
            rows[:, 3] = -1.0
            blob = head + b"\n" + rows.tobytes()
    else:  # one float64 of a payload row; the payload follows the header
        start = blob.index(HEADER_END[name]) + len(HEADER_END[name])
        width = ROW_DOUBLES[name]
        row = int(at * ((len(blob) - start) // (8 * width)))
        slot = start + 8 * (row * width + value[1] % width)
        blob[slot:slot + 8] = struct.pack("<d", value[0])
    return {**files, name: bytes(blob)}


def run(argv: list[str]) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + SETS)
    assert code in (0, 1, 2), argv
    assert code == 0 or err.getvalue().count("\n") == 1, (argv, err.getvalue())
    return code


def no_non_finite_json(path):
    json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(f"{path}: {c}"))


# the classes the search found first: R^T R of a 1e200 rotation entry, the
# metrics' squares of a 1e160 true translation (gt_pose.json numbers: nine
# rotation entries, the seed, then the translation), and a lifted 1e308 depth
@example(mutation=("number", "gt_pose.json", 0.0, "1e200"))
@example(mutation=("number", "gt_pose.json", 10.5 / 13, "1e160"))
@example(mutation=("payload", "depth.bin", 0.5, 1e308, 2))
# what byte flips cannot reach: a string fx and a bool true translation,
# which once loaded as 525.0 and 1.0, and tables without ground-truth rows,
# which once ended with numpy's reshape error
@example(mutation=("json_type", "intrinsics.json", 0.4, "string"))
@example(mutation=("json_type", "gt_pose.json", 10.5 / 13, "true"))
@example(mutation=("rows", "depth.bin", 0.0, "unmatched"))
@example(mutation=("rows", "depth.bin", 0.0, "none"))
@settings(max_examples=300)
@given(mutation=MUTATIONS)
def test_mutated_bundle_through_register_and_eval(bundle, mutation):
    with tempfile.TemporaryDirectory() as tmp:
        scene, results, report = (Path(tmp) / name for name in ("scene", "results", "eval.json"))
        scene.mkdir()
        for name, blob in mutate(bundle, mutation).items():
            (scene / name).write_bytes(blob)
        code = run(["register", "--scene", str(scene), "--out", str(results)])
        assert code == EXPECTED.get(mutation[0], code), mutation
        if code != 0:
            return
        no_non_finite_json(results / "pose.json")
        evaluated = run(
            ["eval", "--scenes", str(scene), "--results", str(results), "--out", str(report)]
        )
        if evaluated == 0:
            no_non_finite_json(report)
