"""Check that a regenerated benchmark grid keeps its committed fingerprint.

    python benchmarks/grid_fingerprint.py BENCH_guard_opt.json FIELD...

Compares the FIELDs of every ``grid`` cell in
``benchmarks/results/<file>`` with the copy committed at ``HEAD`` (read
with ``git show``), and exits non-zero naming each cell and field that
moved.  A file without a ``grid`` is compared as one cell, and a FIELD
may be a dotted path (``cooperative.digest``).  The grid benchmarks
count guards and simulated cycles, which are deterministic, so any
difference is a change in behaviour.
"""

from __future__ import annotations

import json
import subprocess
import sys
from functools import reduce
from pathlib import Path

RESULTS = Path(__file__).parent / "results"


def _cells(doc: dict) -> dict:
    return doc["grid"] if "grid" in doc else {"(file)": doc}


def _field(cell: dict, path: str):
    return reduce(lambda node, key: node[key], path.split("."), cell)


def main(argv: list[str]) -> int:
    name, fields = argv[0], argv[1:]
    committed = _cells(json.loads(subprocess.run(
        ["git", "show", f"HEAD:benchmarks/results/{name}"],
        check=True, capture_output=True, text=True,
    ).stdout))
    grid = _cells(json.loads((RESULTS / name).read_text()))
    moved = []
    if grid.keys() != committed.keys():
        moved.append(f"cells {sorted(committed)} -> {sorted(grid)}")
    for cell in grid:
        if cell not in committed:
            continue  # named above
        for field in fields:
            old = _field(committed[cell], field)
            new = _field(grid[cell], field)
            if old != new:
                moved.append(f"{cell} {field}: {old} -> {new}")
    for line in moved:
        print(f"{name}: {line}")
    if not moved:
        print(f"{name}: {len(grid)} cells equal the committed "
              f"{', '.join(fields)}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
