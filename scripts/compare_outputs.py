"""Compare two CLI --out trees number by number.

Usage: python scripts/compare_outputs.py OLD_DIR NEW_DIR

Both trees must hold the same set of files.  Numbers in JSON files
(lists included) and CSV cells are compared under one rule: they agree
when |old - new| <= 1e-12 * max(1, |old|, |new|), i.e. to relative or
absolute 1e-12, whichever is looser.  Every other JSON value, CSV cell
and non-JSON/CSV file must be equal.  Exits 0 when everything agrees;
otherwise prints the first differing file and field and exits 1.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

TOL = 1e-12


class Mismatch(Exception):
    pass


class Worst:
    """Largest |old - new| seen, as a fraction of its tolerance."""

    def __init__(self):
        self.ratio, self.where = 0.0, None

    def number(self, old: float, new: float, where: str):
        if old == new or (old != old and new != new):  # equal, infinities and NaN included
            return
        tol = TOL * max(1.0, abs(old), abs(new))
        diff = abs(old - new)
        if not diff <= tol:
            raise Mismatch(f"{where}: {old!r} != {new!r}")
        if diff / tol > self.ratio:
            self.ratio, self.where = diff / tol, where


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare_json(old, new, where: str, worst: Worst):
    if _is_number(old) and _is_number(new):
        worst.number(float(old), float(new), where)
    elif isinstance(old, dict) and isinstance(new, dict):
        if sorted(old) != sorted(new):
            raise Mismatch(f"{where}: keys {sorted(old)} != {sorted(new)}")
        for key in sorted(old):
            compare_json(old[key], new[key], f"{where}.{key}", worst)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            raise Mismatch(f"{where}: length {len(old)} != {len(new)}")
        for i, (a, b) in enumerate(zip(old, new)):
            compare_json(a, b, f"{where}[{i}]", worst)
    elif old != new or type(old) is not type(new):
        raise Mismatch(f"{where}: {old!r} != {new!r}")


def _float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(old: str, new: str, where: str, worst: Worst):
    rows_old = list(csv.reader(io.StringIO(old)))
    rows_new = list(csv.reader(io.StringIO(new)))
    if len(rows_old) != len(rows_new):
        raise Mismatch(f"{where}: {len(rows_old)} rows != {len(rows_new)}")
    if not rows_old:
        return
    header = rows_old[0]
    if rows_new[0] != header:
        raise Mismatch(f"{where}: header {rows_old[0]} != {rows_new[0]}")
    for r, (a_row, b_row) in enumerate(zip(rows_old[1:], rows_new[1:]), start=2):
        if len(a_row) != len(b_row):
            raise Mismatch(f"{where}: row {r} has {len(a_row)} cells != {len(b_row)}")
        for c, (a, b) in enumerate(zip(a_row, b_row)):
            field = f"{where}: row {r} column {header[c] if c < len(header) else c}"
            fa, fb = _float(a), _float(b)
            if fa is None or fb is None:
                if a != b:
                    raise Mismatch(f"{field}: {a!r} != {b!r}")
            else:
                worst.number(fa, fb, field)


def files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def compare_trees(old_dir: Path, new_dir: Path) -> tuple[int, Worst]:
    """Number of files compared and the worst agreement; raises Mismatch."""
    old_files, new_files = files(old_dir), files(new_dir)
    if old_files != new_files:
        only_old = sorted(old_files - new_files)
        only_new = sorted(new_files - old_files)
        raise Mismatch(f"file sets differ: only in old {only_old}, only in new {only_new}")
    worst = Worst()
    for name in sorted(old_files):
        old, new = old_dir / name, new_dir / name
        if name.endswith(".json"):
            compare_json(json.loads(old.read_text()), json.loads(new.read_text()), name, worst)
        elif name.endswith(".csv"):
            compare_csv(old.read_text(), new.read_text(), name, worst)
        elif old.read_bytes() != new.read_bytes():
            raise Mismatch(f"{name}: contents differ")
    return len(old_files), worst


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old_dir, new_dir = Path(argv[0]), Path(argv[1])
    for d in (old_dir, new_dir):
        if not d.is_dir():
            print(f"not a directory: {d}", file=sys.stderr)
            return 2
    try:
        count, worst = compare_trees(old_dir, new_dir)
    except Mismatch as e:
        print(f"differ: {e}")
        return 1
    where = f" at {worst.where}" if worst.where else ""
    print(f"equal: {count} files; largest difference {worst.ratio:.3g} of tolerance{where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
