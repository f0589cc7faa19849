"""Byte comparison of every ``hardylab all`` table: a parent tree against a
changed one.

    python3 tools/same_tables.py --parent OLD --change NEW [--out DIR] \
        [--max-rel X] [--max-rel NAME=X ...]

Runs ``hardylab all`` once in each tree, one at a time, with that tree's
``src`` on ``PYTHONPATH``, writing the CSVs under ``DIR/parent`` and
``DIR/change`` (default: a temporary directory), then compares each CSV
byte for byte.  For a file that differs it prints every differing cell
(row, column, both values) and the largest relative difference of the
numeric ones.  Exits 0 only when both trees wrote the same files, every
runner exited with the same code in both, and every file is identical.
``--max-rel X`` lets a file also pass when every cell that differs is
numeric in both trees and differs by at most X relative, so a change that
moves values at roundoff can be checked.  The flag repeats, and
``--max-rel NAME=X`` bounds the file NAME alone: with ``--max-rel 1e-14
--max-rel density.csv=5e-11`` the density table may drift by 5e-11 and
every other file by 1e-14.  A file that no flag names is compared byte
for byte, and a bound for a file neither tree wrote fails the run.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import math
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


def exit_codes(stdout: str) -> dict:
    """Each runner's exit code, from the ``<name>: exit <code> -> <path>``
    lines ``hardylab all`` prints."""
    codes = {}
    for line in stdout.splitlines():
        name, sep, rest = line.partition(": exit ")
        if sep:
            codes[name] = int(rest.split()[0])
    return codes


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


def compare(dirs: dict, max_rel: float | dict | None = None) -> bool:
    """Print the comparison of the CSVs in ``dirs``; True when every file
    is in both and identical, or differs only in numeric cells, each by at
    most its bound relative.  ``max_rel`` is one bound for every file, or
    a dict of bounds by file name whose key ``None`` bounds the files it
    does not name; a file without a bound must be identical."""
    bounds = max_rel if isinstance(max_rel, dict) else {None: max_rel}
    files = {side: {p.name for p in dirs[side].glob("*.csv")}
             for side in SIDES}
    same = files["parent"] == files["change"] and bool(files["parent"])
    for name in sorted(files["parent"] ^ files["change"]):
        side = "parent" if name in files["parent"] else "change"
        print(f"{name}: only in {side}")
    for name in sorted(set(bounds) - {None} - files["parent"]
                       - files["change"]):
        print(f"{name}: bounded by --max-rel but in neither tree")
        same = False
    for name in sorted(files["parent"] & files["change"]):
        bound = bounds.get(name, bounds.get(None))
        old, new = dirs["parent"] / name, dirs["change"] / name
        if filecmp.cmp(old, new, shallow=False):
            print(f"{name}: identical")
            continue
        cells, worst = differing_cells(old, new)
        rels = [_rel(x, y) for _, _, x, y in cells]
        close = bound is not None and all(
            rel is not None and rel <= bound for rel in rels)
        same = same and close
        worst_text = "none numeric" if worst is None else f"{worst:.3g}"
        print(f"{name}: {len(cells)} cells differ, largest relative "
              f"difference {worst_text}"
              + (f", within {bound:g}" if close else ""))
        for row, col, x, y in cells:
            print(f"  row {row} {col}: {x} -> {y}")
    return same


def _bound(text: str) -> tuple[str | None, float]:
    """A ``--max-rel`` value, ``X`` or ``NAME=X``, as (NAME or None, X)."""
    name, _, value = text.rpartition("=")
    bound = float(value)
    if not 0.0 <= bound < math.inf:
        raise argparse.ArgumentTypeError(
            f"{text!r}: expected X or NAME=X with X a finite number >= 0")
    return name or None, bound


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--max-rel", type=_bound, action="append", default=[],
                    metavar="[NAME=]X",
                    help="pass numeric cells within this relative difference, "
                         "in the file NAME or in every file no flag names; "
                         "repeatable")
    args = ap.parse_args(argv)
    bounds = dict(args.max_rel)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = (args.out or Path(tmp)).resolve()
        dirs = {side: root / side for side in SIDES}
        for side, tree in (("parent", args.parent), ("change", args.change)):
            print(f"{side} ({tree}):", file=sys.stderr, flush=True)
            stdout = run_all(tree, dirs[side])
            print(stdout, end="", file=sys.stderr)
            codes[side] = exit_codes(stdout)
        same = compare(dirs, bounds)
    if codes["parent"] != codes["change"]:
        print(f"exit codes differ: {codes['parent']} -> {codes['change']}")
        same = False
    within = ", ".join(f"{bound:g}" if name is None else f"{name} {bound:g}"
                       for name, bound in bounds.items())
    exact = f"within {within}" if within else "identical"
    print(f"all tables {exact}" if same else "tables differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
