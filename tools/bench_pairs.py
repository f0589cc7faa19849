"""Alternating pairs of benchmark runs: a parent tree against a changed one.

    python3 tools/bench_pairs.py --parent OLD --change NEW --workload disc \
        --pairs 10 --seed 101 --seconds 10 [--json out.json]

Each pair runs ``python3 perfbench/run.py`` once in each tree, one at a
time; odd pairs (from 1) run the parent first, even pairs the change.  The
last line a run prints is its result.  Prints, per end-to-end metric of the
change tree's BENCHMARK.json, the medians and quartiles (numpy.percentile)
of both sides and the pairs the change won, and whether every run was
``correct``.  ``--json`` writes the block BENCH files keep under
``workloads.<name>``.  A run that prints no result, a crash, ends the
comparison: it is reported with its side, pair, exit code and the last
lines of its standard error, counted as not correct, and the exit code
is 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
# lines of a failed run's standard error that its report shows
STDERR_LINES = 10


def run_once(tree: Path, args, side: str, pair: int) -> dict | None:
    """One untraced run of the workload in ``tree``: its result, the
    last line it prints as JSON, or ``None`` after reporting a run that
    printed none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-STDERR_LINES:]
        print(f"{side} run of pair {pair} ({tree}) printed no result "
              f"(exit {proc.returncode}):", *tail, sep="\n  ",
              file=sys.stderr)
        return None


def summary(runs: list[float]) -> dict:
    q1, med, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3),
            "runs": runs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--json", type=Path)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    with open(args.change / "BENCHMARK.json") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    results = {side: [] for side in SIDES}
    first = []
    for k in range(1, args.pairs + 1):
        order = SIDES if k % 2 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            result = run_once(trees[side], args, side, k)
            if result is None:
                print(f"{args.workload}: stopped at pair {k}, seed "
                      f"{args.seed}, all correct: False")
                return 1
            results[side].append(result)
        print(f"pair {k}: " + ", ".join(
            f"{s} {results[s][-1]['metrics']['wall_s']['value']:.3f} s"
            for s in SIDES), file=sys.stderr, flush=True)

    block = {"pairs": args.pairs,
             "all_correct": all(r["correct"] for s in SIDES
                                for r in results[s]),
             "failed_rows": {s: sum(r["failed"] for r in results[s])
                             for s in SIDES},
             "attempted_rows": {s: sum(r["attempted"] for r in results[s])
                                for s in SIDES},
             "first_in_pair": first, "metrics": {}}
    print(f"{args.workload}: {args.pairs} pairs, seed {args.seed}, "
          f"all correct: {block['all_correct']}")
    for name, direction in better.items():
        runs = {s: [r["metrics"][name]["value"] for r in results[s]]
                for s in SIDES}
        entry = {s: summary(runs[s]) for s in SIDES}
        sign = 1.0 if direction == "lower" else -1.0
        pairs = list(zip(runs["parent"], runs["change"]))
        entry["change_wins"] = sum(sign * (c - p) < 0 for p, c in pairs)
        entry["ties"] = sum(c == p for p, c in pairs)
        p, c = entry["parent"], entry["change"]
        scale = abs(p["median"]) or 1.0
        entry["median_change_rel"] = (c["median"] - p["median"]) / scale
        entry["parent_iqr_rel"] = (p["q3"] - p["q1"]) / scale
        block["metrics"][name] = entry
        print(f"  {name:12s} parent {p['median']:.6g} [{p['q1']:.6g}, "
              f"{p['q3']:.6g}]  change {c['median']:.6g} [{c['q1']:.6g}, "
              f"{c['q3']:.6g}]  wins {entry['change_wins']}/{args.pairs}")
    if args.json:
        args.json.write_text(json.dumps(block, indent=1) + "\n")
    return 0 if block["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
