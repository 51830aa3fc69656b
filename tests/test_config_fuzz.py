"""Property fuzz of the config table: every key's edge values through the CLI.

Each key contributes its range's edges, one step past each, -0.0, the
smallest subnormal, 1e300 and 2**64 (whole values for integer keys). The
size-scaling keys are capped by ENVELOPE so that no call allocates much.
Every call must exit 0, 1 or 2 with no exception, numeric warning or
non-finite number in its JSON output, and a mapping holding a value
outside its key's range exits 1 with one `error:` line.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossreg._settings import SETTINGS
from crossreg.cli import main
from crossreg.io import save_scene_bundle
from crossreg.pipeline import PipelineConfig
from crossreg.synth import generate_scene

# tile_rows, tile_cols and k_neighbors size no allocation (tile groups hold
# only the ids present, and k-NN clamps k to n - 1), so their table edges
# and 2**64 are drawn in full
ENVELOPE = {
    "point_count": 400,
    "channels": 64,
    "scene_count": 2,
    "ransac_iterations": 20,  # every call runs at most this many
    "top_k_coarse": 8,
}
COMMANDS = ("register", "normals", "losses")


def draws(key: str) -> list:
    default, lo, hi = SETTINGS[key]
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
    default, lo, hi = SETTINGS[key]
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
