"""Byte identity as a check: a small output matrix against its golden digests.

scripts/golden_digests.py computes the digests and, with --write,
regenerates tests/golden_digests.json. A change that moves an output on
purpose regenerates the file and names the changed keys.
"""

import importlib.util
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from crossreg.cli import build_parser

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden_digests.py"


def load_script():
    spec = importlib.util.spec_from_file_location("golden_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def run():
    """(script module, its fresh digests, the CLI runs of that computation).

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
        got = golden.compute()
    return golden, got, runs


def test_outputs_match_their_golden_digests(run):
    golden, got, _ = run
    want = json.loads(golden.GOLDEN.read_text())
    changed = sorted(k for k in set(want["digests"]) | set(got)
                     if want["digests"].get(k) != got.get(k))
    note = ""
    if golden.versions() != want["versions"]:
        note = (f"; the digests were made with {want['versions']} and this run uses "
                f"{golden.versions()}, so BLAS or numpy rounding may explain the change")
    assert not changed, (
        f"outputs moved: {changed}{note}. If the change is intended, run "
        "`python3 scripts/golden_digests.py --write` and name these keys in CHANGES.md"
    )


def test_every_subcommand_has_a_golden_key(run):
    # a key pins a subcommand when it digests all that one run of it wrote,
    # whole or file by file
    _, got, runs = run
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
