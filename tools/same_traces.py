"""Exact comparison of one workload's per-layer counts: a parent tree
against a changed one.

    python3 tools/same_traces.py --parent OLD --change NEW --workload W \
        [--seed S --seconds T]

Runs ``python3 perfbench/run.py --trace 1`` once in each tree, one at a
time, and compares every per-layer metric whose unit is not ``s`` (calls,
points, levels, shares, spans and self-check counts) exactly; seconds are
ignored, since they vary from run to run.  Prints each metric that
differs or that only one tree reports.  Exits 0 only when both runs are
``correct`` and no count differs.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_traced(tree: Path, args) -> dict:
    """One traced run of the workload in ``tree``; returns its result, the
    last line the run prints."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{tree}: perfbench printed nothing "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def _same(a, b) -> bool:
    """Equal values, two NaNs included."""
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


def differing_counts(parent: dict, change: dict) -> list[tuple]:
    """The metrics of two per-layer ``metrics`` maps whose unit is not
    ``s`` and whose values differ, as (name, parent value, change value),
    sorted by name; a metric one map lacks is ``None`` there."""
    out = []
    for name in sorted(set(parent) | set(change)):
        old, new = parent.get(name), change.get(name)
        if any(m is not None and m["unit"] == "s" for m in (old, new)):
            continue
        a = None if old is None else old["value"]
        b = None if new is None else new["value"]
        if old is None or new is None or not _same(a, b):
            out.append((name, a, b))
    return out


def compare(results: dict) -> bool:
    """Print the comparison of the two results in ``results`` (keyed by
    side); True when both are ``correct`` and no count differs."""
    same = True
    for side in SIDES:
        if not results[side]["correct"]:
            print(f"{side}: run not correct")
            same = False
    counted = [name for name, m in results["change"]["metrics"].items()
               if m["unit"] != "s"]
    diffs = differing_counts(results["parent"]["metrics"],
                             results["change"]["metrics"])
    for name, a, b in diffs:
        print(f"  {name}: {a} -> {b}")
    print(f"{len(diffs)} of {len(counted)} count metrics differ")
    return same and not diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args(argv)
    results = {}
    for side, tree in (("parent", args.parent), ("change", args.change)):
        print(f"{side} ({tree})", file=sys.stderr, flush=True)
        results[side] = run_traced(tree, args)
    same = compare(results)
    print(f"{args.workload}: all counts identical" if same
          else f"{args.workload}: counts differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
