"""Compare the CSVs of two output trees column by column.

For every CSV under OLD_DIR, matched by its path relative to OLD_DIR with
the CSV of the same path under NEW_DIR, it prints one line per column
whose printed values differ: the number of rows that moved, the largest
|new - old|, and that largest move in units of the last printed digit of
the column's largest |old| entry (for a value printed as 1.23456789012e-03
that unit is 1e-14).  Byte-identical files print one line saying so, and
a last block gives each column's largest move over all files.

Usage:
    python scripts/csv_moves.py OLD_DIR NEW_DIR

The CSVs are the runner's (a header line, then comma-separated numbers;
an empty field is a missing value).  A field that is empty on one side
only counts as a moved row with an infinite move.  A file found on one
side only, or whose header or row count differs, is reported and makes
the exit status 1; a directory that is missing or holds no CSV is refused
with exit status 2.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path


def _last_digit(field: str) -> float:
    """The unit of the last printed digit of a number such as
    1.23456789012e-03 (1e-14) or 0.25 (0.01)."""
    mantissa, _, exponent = field.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:] if line]


def column_moves(old: list[str], new: list[str]) -> tuple[int, float, float]:
    """(rows moved, max |new - old|, that max in last printed digits of the
    largest |old| entry) for one column's printed fields."""
    moved, largest = 0, 0.0
    for a, b in zip(old, new):
        if a == b:
            continue
        moved += 1
        delta = math.inf if not a or not b else abs(float(b) - float(a))
        largest = max(largest, delta)
    entries = [f for f in old if f]
    if not entries:
        return moved, largest, math.inf if moved else 0.0
    unit = _last_digit(max(entries, key=lambda f: abs(float(f))))
    return moved, largest, largest / unit


def compare(old_dir: Path, new_dir: Path) -> tuple[list[str], bool]:
    """The report lines and whether every CSV could be compared."""
    old_files = {p.relative_to(old_dir) for p in old_dir.rglob("*.csv")}
    new_files = {p.relative_to(new_dir) for p in new_dir.rglob("*.csv")}
    lines, comparable = [], True
    overall: dict[str, tuple[int, float, float]] = {}
    for name in sorted(old_files | new_files):
        if name not in new_files or name not in old_files:
            side = "old" if name in old_files else "new"
            lines.append(f"{name}: only in the {side} tree")
            comparable = False
            continue
        if (old_dir / name).read_bytes() == (new_dir / name).read_bytes():
            lines.append(f"{name}: identical")
            continue
        old_header, old_rows = _read(old_dir / name)
        new_header, new_rows = _read(new_dir / name)
        if old_header != new_header or len(old_rows) != len(new_rows):
            lines.append(f"{name}: header or row count differs")
            comparable = False
            continue
        for i, column in enumerate(old_header):
            moved, largest, digits = column_moves(
                [r[i] for r in old_rows], [r[i] for r in new_rows]
            )
            if not moved:
                continue
            lines.append(
                f"{name}: {column}: {moved}/{len(old_rows)} rows moved, "
                f"max |d| {largest:.3g} ({digits:.3g} last digits)"
            )
            count, worst, worst_digits = overall.get(column, (0, 0.0, 0.0))
            overall[column] = (
                count + moved, max(worst, largest), max(worst_digits, digits)
            )
    for column, (count, worst, worst_digits) in overall.items():
        lines.append(
            f"all files: {column}: {count} rows moved, max |d| {worst:.3g} "
            f"({worst_digits:.3g} last digits)"
        )
    return lines, comparable


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_dir", type=Path)
    parser.add_argument("new_dir", type=Path)
    args = parser.parse_args()
    for directory in (args.old_dir, args.new_dir):
        if not directory.is_dir() or not any(directory.rglob("*.csv")):
            parser.error(f"no CSV files under {directory}")
    lines, comparable = compare(args.old_dir, args.new_dir)
    print("\n".join(lines))
    return 0 if comparable else 1


if __name__ == "__main__":
    sys.exit(main())
