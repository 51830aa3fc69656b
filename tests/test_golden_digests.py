"""Byte identity as a check: a small output matrix against its golden digests.

scripts/golden_digests.py computes the digests and, with --write,
regenerates tests/golden_digests.json. A change that moves an output on
purpose regenerates the file and names the changed keys, with the report
of --against PARENT_TREE.
"""

import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from crossreg.cli import build_parser
from crossreg.geometry import backproject_pixels
from crossreg.graph import knn_indices
from crossreg.normals import normal_ks
from crossreg.pipeline import PipelineConfig, lifted_pixel_normals
from crossreg.synth import generate_scene

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "golden_digests.py"


def load_script():
    spec = importlib.util.spec_from_file_location("golden_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def run():
    """(script module, its fresh digests, the CLI runs of that computation,
    the outputs --against compares).

    Each run is (subcommand, digests of what it wrote): the digest of its
    whole --out file or tree, and one per file, as cli/register/<file> keys
    take them.
    """
    golden = load_script()
    runs = []
    cli_main = golden.cli_main

    def recording_main(argv):
        code = cli_main(argv)
        out = Path(argv[argv.index("--out") + 1])
        if code != 0:  # the script's own check names the failed command
            return code
        if out.is_dir():
            tree = golden._tree_bytes(out)
            whole, blobs = golden._digest(tree), [blob for _, blob in tree]
        else:
            blobs = [out.read_bytes()]
            whole = golden._digest(blobs)
        runs.append((argv[0], whole, [golden._digest([blob]) for blob in blobs]))
        return code

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(golden, "cli_main", recording_main)
        outputs = {}
        got = golden.compute(outputs)
    return golden, got, runs, outputs


def test_outputs_match_their_golden_digests(run):
    golden, got, _, _ = run
    want = json.loads(golden.GOLDEN.read_text())
    changed = sorted(k for k in set(want["digests"]) | set(got)
                     if want["digests"].get(k) != got.get(k))
    note = golden.version_note(want["versions"], golden.versions())
    assert not changed, (
        f"outputs moved: {changed}{note}. If the change is intended, run "
        "`python3 scripts/golden_digests.py --write` and name these keys in CHANGES.md"
    )


def test_every_subcommand_has_a_golden_key(run):
    # a key pins a subcommand when it digests all that one run of it wrote,
    # whole or file by file
    _, got, runs, _ = run
    keys = set(got.values())
    pinned = {command for command, whole, files in runs
              if whole in keys or files and keys.issuperset(files)}
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(subparsers.choices) - pinned == set()


def test_write_refuses_a_run_that_raised_a_numeric_warning(tmp_path, monkeypatch):
    golden = load_script()
    monkeypatch.setattr(golden, "GOLDEN", tmp_path / "golden.json")
    monkeypatch.setattr(golden, "compute", lambda: {"overflow": repr(np.float64(1e308) * 10)})
    with warnings.catch_warnings():
        warnings.simplefilter("default")  # the script, not this suite, must make it an error
        with pytest.raises(RuntimeWarning, match="overflow"):
            golden.main(["--write"])
    assert not golden.GOLDEN.exists()


def test_a_kernel_mismatch_is_named_apart_from_a_build_mismatch():
    golden = load_script()
    have = golden.versions()
    assert set(golden.KERNEL_FIELDS) <= set(have)
    assert golden.version_note(have, dict(have)) == ""
    core = "Zen" if have["openblas_core"] == "Haswell" else "Haswell"
    note = golden.version_note({**have, "openblas_core": core}, have)
    assert f"{{'openblas_core': '{core}'}}" in note and "CPU kernels' rounding" in note
    assert "BLAS or numpy rounding" not in note
    note = golden.version_note({**have, "numpy": "0.0"}, have)
    assert "BLAS or numpy rounding" in note and "CPU kernels" not in note


def pose_record(angle: float = 0.0, shift: float = 0.0, pairs=None, ir: float = 1.0) -> dict:
    """A hand-made register record: a pose turned by angle about z and moved by
    shift along z, two (pixel, point) pairs unless given, IR ir and RR 1."""
    c, s = np.cos(angle), np.sin(angle)
    return {
        "rotation": np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]),
        "translation": np.array([0.0, 0.0, 1.0 + shift]),
        "pairs": pairs if pairs is not None else {((10.0, 20.0), 3), ((11.0, 20.0), 4)},
        "ir": ir, "rr": 1.0,
    }


def payload(record: dict, digest: str) -> dict:
    return {"digests": {"register/plain/seed21": digest, "bundle_bytes": "same"},
            "outputs": {"register/plain/seed21": {"seed21": record}}}


def test_the_report_gives_a_moved_pose():
    golden = load_script()
    before = payload(pose_record(), "a")
    lines = golden.report(before, payload(pose_record(angle=1e-3, shift=2e-3), "b"))
    assert lines[:2] == ["register/plain/seed21", "  seed21: pose moved 0.001 rad, 0.002 m; "
                         "pairs Jaccard 1.0000 (2 -> 2); IR 1 -> 1; RR 1 -> 1"]
    assert lines[2] == (
        "summary: 1 of 2 keys moved; largest pose rotation 0.001 rad; largest pose "
        "translation 0.002 m; smallest pair Jaccard 1.0000; largest IR change 0; "
        "outcome or RR changed on no scene or row"
    )
    assert golden.report(before, before) == [
        "summary: 0 of 2 keys moved; outcome or RR changed on no scene or row"
    ]


def test_the_report_gives_a_moved_correspondence():
    golden = load_script()
    moved = {((10.0, 20.0), 3), ((11.0, 20.0), 5)}  # the second pixel takes another point
    lines = golden.report(payload(pose_record(), "a"),
                          payload(pose_record(pairs=moved, ir=0.5), "b"))
    assert lines[1] == ("  seed21: pose moved 0 rad, 0 m; pairs Jaccard 0.3333 (2 -> 2); "
                        "IR 1 -> 0.5; RR 1 -> 1")
    assert "smallest pair Jaccard 0.3333; largest IR change 0.5" in lines[-1]


def test_the_report_gives_a_moved_patch_pair():
    golden = load_script()
    patches = {(0, 3), (1, 4), (2, 5)}
    moved = {(0, 3), (1, 4), (2, 6)}  # the third tile pairs with another cell
    lines = golden.report(payload({**pose_record(), "patches": patches}, "a"),
                          payload({**pose_record(), "patches": moved}, "b"))
    assert lines[1] == ("  seed21: pose moved 0 rad, 0 m; pairs Jaccard 1.0000 (2 -> 2); "
                        "patches Jaccard 0.5000 (3 -> 3); IR 1 -> 1; RR 1 -> 1")
    assert "smallest pair Jaccard 1.0000; smallest patch Jaccard 0.5000;" in lines[-1]


def test_every_registration_record_holds_its_patch_pairs(run):
    # the register keys and the cli/register files, patches.csv among them
    _, _, _, outputs = run
    keys = [k for k in outputs if k.startswith(("register/", "cli/register/"))]
    assert "cli/register/patches.csv" in keys
    for key in keys:
        for record in outputs[key].values():
            if "error" not in record:
                assert record["patches"], key
                assert all(isinstance(tile, int) and isinstance(cell, int)
                           for tile, cell in record["patches"]), key


def test_kernel_reruns_the_matrix_under_that_core_and_reports_it(monkeypatch, capsys):
    golden = load_script()
    calls = []

    def child(tree, env=None):
        calls.append((tree, env))
        return {"digests": {"key": "b"}, "outputs": {}, "versions": {"openblas_core": "Haswell"}}

    monkeypatch.setattr(golden, "compute", lambda outputs: {"key": "a"})
    monkeypatch.setattr(golden, "computed_in", child)
    assert golden.main(["--kernel", "Haswell"]) == 0
    assert calls == [(golden.ROOT, {"OPENBLAS_CORETYPE": "Haswell"})]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("-> Haswell")
    assert lines[1:] == ["key", "  no pose, pairs, scores or normals to compare",
                         "summary: 1 of 1 keys moved; outcome or RR changed on no scene or row"]


def kernel_outputs() -> dict[str, np.ndarray]:
    """The k-NN, with distances, of a default-size scene's lifted pixel rows
    at the adaptive fit's k, and the scene's plain and adaptive lifted normals."""
    config = PipelineConfig()
    scene = generate_scene(config.scene_spec(), 21)
    table = scene.table
    rows = backproject_pixels(scene.intrinsics, table.pixels, table.depths)
    idx, dst = knn_indices(rows, normal_ks(config.k_neighbors, True)[1], return_distances=True)
    got = {"knn": idx, "knn_distances": dst}
    for adaptive in (False, True):
        field = lifted_pixel_normals(
            table.pixels, table.depths, scene.intrinsics, config.k_neighbors, adaptive
        )
        got[f"normals_{adaptive}"], got[f"valid_{adaptive}"] = field.normals, field.valid
    return got


# kernel_outputs() and the OpenBLAS core, written by a child process
_KERNEL_CHILD = """
import sys
import numpy as np
tests, out = sys.argv[1:]
sys.path.insert(0, tests)
from test_golden_digests import kernel_outputs, load_script
np.savez(out, core=load_script()._openblas_core(), **kernel_outputs())
"""


def test_knn_and_lifted_normals_keep_their_bytes_under_prescott(tmp_path):
    # Prescott's kernels have no FMA, so its products round unlike this host's
    core = load_script()._openblas_core()
    if core == "unknown":
        pytest.skip("the OpenBLAS core name cannot be read, so the switch cannot be seen")
    out = tmp_path / "child.npz"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": path}
    subprocess.run([sys.executable, "-c", _KERNEL_CHILD, str(ROOT / "tests"), str(out)],
                   env=env, check=True)
    with np.load(out) as child:
        assert str(child["core"]) != core, "the child ran this process's kernels"
        for name, want in kernel_outputs().items():
            got = child[name]
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name
