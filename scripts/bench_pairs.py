"""Paired benchmark runs of two source trees, written to one BENCH file.

    python3 scripts/bench_pairs.py --parent PARENT_TREE --change CHANGE_TREE \
        --label NAME [--pairs 10] [--seconds 30] [--seed 1] [--out DIR]

Each tree is a checkout with `bench/run.py`, `src/` and `BENCHMARK.json`;
a `git archive` of the parent commit will do. For every workload that the
change tree's `BENCHMARK.json` lists, the script runs each tree's own
`bench/run.py --seed SEED --trace 0`, `--pairs` times per tree, alternating
which tree goes first. The run seed (`--seed`, 1 by default) picks the
scenes; a claim written against seed 1 is checked on another seed too.
run.py itself pins one BLAS thread and imports crossreg from its own
tree's `src`. The script then writes
`BENCH_<label>.json` in `--out` (the root of this checkout by default).
Per workload the file holds:

- per end-to-end metric of the change tree's `BENCHMARK.json`: each side's
  median and quartiles, the change's win share over the pairs (a tie is
  not a win), how much worse the change's median is than the parent's as a
  fraction of it, and whether that stays within the metric's bound;
- each side's workload digests and whether every pair's two digests agree;
- the machine, as the first run's details report it.

A run that exits non-zero or prints no result stops the script with its
standard error. A run whose result is not correct, because the harness
found wrong output, stops it with the problems the run reports. Only the
standard library is used, so the script runs under any Python that can
run the benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        parser.error("--pairs must be >= 1, --seconds > 0 and --seed >= 0")
    for tree in (args.parent, args.change):
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"{tree} has no bench/run.py")
    return args


def run_once(tree: Path, workload: str, seconds: float, seed: int = 1) -> tuple[dict, dict]:
    """(details, result): the last two lines bench/run.py prints, as JSON."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    run = f"bench/run.py in {tree} ({workload}, seed {seed})"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{run} exited {done.returncode}:\n" + done.stderr[-4000:])
    details = json.loads(lines[-2])["details"]
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(
            f"{run} is not correct ({result['failed']} of {result['attempted']} "
            "registrations failed); its problems:\n" + "\n".join(details["problems"])
        )
    return details, result


def summary(values: list[float]) -> dict:
    """Median and quartiles, the quartiles by the inclusive method."""
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def win_share(parent: list[float], change: list[float], better: str) -> float:
    """The share of pairs in which the change is strictly better; a tie is no win."""
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    return wins / len(parent)


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse the change is than the parent, as a fraction of the parent."""
    gap = change - parent if better == "lower" else parent - change
    if gap == 0.0:
        return 0.0
    return gap / abs(parent) if parent != 0.0 else math.copysign(math.inf, gap)


def compare(runs: dict[str, list[tuple[dict, dict]]], metrics: list[dict]) -> dict:
    """One workload's record from its runs per side, in pair order."""
    out = {}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        values = {side: [result["metrics"][name]["value"] for _, result in runs[side]]
                  for side in SIDES}
        slip = worse_by(statistics.median(values["parent"]),
                        statistics.median(values["change"]), better)
        out[name] = {
            "unit": metric["unit"],
            "better": better,
            "bound": metric["bound"],
            **{side: summary(values[side]) for side in SIDES},
            "win_share": win_share(values["parent"], values["change"], better),
            "worse_by": slip,
            "within_bound": slip <= metric["bound"],
        }
    digests = {side: [details["digest"] for details, _ in runs[side]] for side in SIDES}
    return {
        "metrics": out,
        "digests": {side: sorted(set(digests[side])) for side in SIDES},
        "digests_equal": digests["parent"] == digests["change"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    record = {
        "label": args.label,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seed": args.seed,
        "machine": None,
        "workloads": {},
    }
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(run_once(trees[side], workload, args.seconds, args.seed))
            print(f"{workload}: pair {pair + 1}/{args.pairs} done", file=sys.stderr)
        record["machine"] = record["machine"] or runs["parent"][0][0]["machine"]
        record["workloads"][workload] = compare(runs, metrics)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
