"""Byte identity as a check: a small output matrix against its golden digests.

scripts/golden_digests.py computes the digests and, with --write,
regenerates tests/golden_digests.json. A change that moves an output on
purpose regenerates the file and names the changed keys.
"""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden_digests.py"


def load_script():
    spec = importlib.util.spec_from_file_location("golden_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_their_golden_digests(capsys):
    golden = load_script()
    want = json.loads(golden.GOLDEN.read_text())
    got = golden.compute()
    capsys.readouterr()  # the CLI commands' summaries
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
