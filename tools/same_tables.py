"""Byte comparison of every ``hardylab all`` table: a parent tree against a
changed one.

    python3 tools/same_tables.py --parent OLD --change NEW [--out DIR]

Runs ``hardylab all`` once in each tree, one at a time, with that tree's
``src`` on ``PYTHONPATH``, writing the CSVs under ``DIR/parent`` and
``DIR/change`` (default: a temporary directory), then compares each CSV
byte for byte.  For a file that differs it prints every differing cell
(row, column, both values) and the largest relative difference of the
numeric ones.  Exits 0 only when both trees wrote the same files and every
one is identical.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def run_all(tree: Path, out: Path) -> str:
    """Run ``hardylab all`` in ``tree`` into ``out``; returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree.resolve() / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-m", "hardylab.cli", "all", "--out", str(out)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    if not out.is_dir():
        raise SystemExit(f"{tree}: hardylab all wrote nothing "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    return proc.stdout


def _rel(a: str, b: str) -> float | None:
    """|a - b| / max(|a|, |b|) of two numeric cells, else ``None``."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y:
        return 0.0
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else float("inf")


def differing_cells(old: Path, new: Path) -> tuple[list, float | None]:
    """The cells of two CSVs that differ, as (row, column, old, new), and
    the largest relative difference of the numeric ones."""
    with open(old, newline="") as fh:
        a = list(csv.reader(fh))
    with open(new, newline="") as fh:
        b = list(csv.reader(fh))
    header = a[0] if a else []
    cells, worst = [], None
    for i in range(max(len(a), len(b))):
        ra = a[i] if i < len(a) else []
        rb = b[i] if i < len(b) else []
        for j in range(max(len(ra), len(rb))):
            x = ra[j] if j < len(ra) else "<missing>"
            y = rb[j] if j < len(rb) else "<missing>"
            if x == y:
                continue
            name = header[j] if j < len(header) else str(j)
            cells.append((i, name, x, y))
            rel = _rel(x, y)
            if rel is not None:
                worst = rel if worst is None else max(worst, rel)
    return cells, worst


def compare(dirs: dict) -> bool:
    """Print the comparison of the CSVs in ``dirs``; True when every file
    is in both and identical."""
    files = {side: {p.name for p in dirs[side].glob("*.csv")}
             for side in SIDES}
    same = files["parent"] == files["change"] and bool(files["parent"])
    for name in sorted(files["parent"] ^ files["change"]):
        side = "parent" if name in files["parent"] else "change"
        print(f"{name}: only in {side}")
    for name in sorted(files["parent"] & files["change"]):
        old, new = dirs["parent"] / name, dirs["change"] / name
        if filecmp.cmp(old, new, shallow=False):
            print(f"{name}: identical")
            continue
        same = False
        cells, worst = differing_cells(old, new)
        worst_text = "none numeric" if worst is None else f"{worst:.3g}"
        print(f"{name}: {len(cells)} cells differ, largest relative "
              f"difference {worst_text}")
        for row, col, x, y in cells:
            print(f"  row {row} {col}: {x} -> {y}")
    return same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        root = (args.out or Path(tmp)).resolve()
        dirs = {side: root / side for side in SIDES}
        for side, tree in (("parent", args.parent), ("change", args.change)):
            print(f"{side} ({tree}):", file=sys.stderr, flush=True)
            print(run_all(tree, dirs[side]), end="", file=sys.stderr)
        same = compare(dirs)
    print("all tables identical" if same else "tables differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
