"""Compare two output directories of ``stokes-darcy`` runs.

Usage, from the root of a checkout::

    python tools/compare_outputs.py A B

A numeric change (another pivot order, another rounding of a factor)
moves the last printed digits of an output without changing the
result.  This script says by how much, file by file, and fails when
that exceeds :data:`TOL`:

- a ``.csv`` file: the header and the number of rows must match.  A
  column whose cells all read as numbers reports its largest difference
  relative to the column's range over both files; any other column must
  match cell for cell.  A table of one row (a record of scalars, such
  as ``cell.csv``) has no column range: its cells are taken relative to
  the row's largest magnitude, as a VTK file's values are;
- ``manifest.json``: compared key by key.  Integers, text and the
  layout must match; floats report their difference relative to the
  larger of the two magnitudes.  The health measures of roundoff size
  (:data:`ROUNDOFF_KEYS`) move by their own size with any change of
  rounding and the program checks each against its bound, so they are
  listed but not held to :data:`TOL`;
- a ``.vtk`` file (legacy ASCII): compared token by token.  A number
  in exponent notation, as the writer prints every float, reports its
  difference relative to the largest such magnitude in the file; every
  other token (counts, names, flags, the header) must match.

Every file present in either directory is compared, and a file present
in one only fails.  Each file prints one line ``identical``, or one
line per column, key or file that differs.  The exit status is 0 when
every difference is within :data:`TOL`, 1 otherwise.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

#: Largest difference accepted, relative to a column's range (CSV), a
#: value's magnitude (manifest) or the file's largest value (VTK).
TOL = 1e-6

#: Manifest keys holding roundoff-sized health measures: listed when
#: they differ, never failed (see the module docstring).
ROUNDOFF_KEYS = frozenset(
    {"backward_error", "matching_velocity", "matching_pressure", "true_residual"}
)

#: Difference reported for a mismatch that no tolerance accepts.
MISMATCH = math.inf


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _largest(values) -> float:
    """Largest finite magnitude among ``values`` (None skipped), or 0."""
    return max(
        (abs(v) for v in values if v is not None and math.isfinite(v)), default=0.0
    )


def _difference(a: float, b: float, scale: float) -> float:
    """``|a - b| / scale``; equal values (NaN and NaN included) differ
    by 0, and a difference of a zero scale is a mismatch."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    diff = abs(a - b)
    if not scale or math.isnan(diff):
        return MISMATCH
    return diff / scale


def compare_csv(a: Path, b: Path) -> list[tuple[str, float | str]]:
    """``(column, difference)`` for every column that differs."""
    with open(a, newline="") as fa, open(b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        return [("header", MISMATCH)]
    if len(rows_a) != len(rows_b):
        return [(f"rows {len(rows_a) - 1} != {len(rows_b) - 1}", MISMATCH)]
    if any(len(row) != len(rows_a[0]) for row in rows_a + rows_b):
        return [("row lengths", MISMATCH)]
    if len(rows_a) == 2:
        row_scale = _largest(_number(v) for v in rows_a[1] + rows_b[1])
    found = []
    for j, name in enumerate(rows_a[0]):
        col_a = [row[j] for row in rows_a[1:]]
        col_b = [row[j] for row in rows_b[1:]]
        if col_a == col_b:
            continue
        num_a = [_number(v) for v in col_a]
        num_b = [_number(v) for v in col_b]
        if None in num_a or None in num_b:
            found.append((name, MISMATCH))
            continue
        if len(rows_a) == 2:
            scale = row_scale
        else:
            finite = [v for v in num_a + num_b if math.isfinite(v)]
            scale = max(finite) - min(finite) if finite else 0.0
        found.append(
            (name, max(_difference(x, y, scale) for x, y in zip(num_a, num_b)))
        )
    return found


def _leaves(value, path: str = ""):
    """``(path, leaf)`` of every leaf of a JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def compare_manifest(a: Path, b: Path) -> list[tuple[str, float | str]]:
    """``(key, difference)`` for every key that differs; a roundoff
    key's difference is its two values as text."""
    leaves_a = dict(_leaves(json.loads(a.read_text())))
    leaves_b = dict(_leaves(json.loads(b.read_text())))
    found = []
    for key in sorted(leaves_a.keys() | leaves_b.keys()):
        if key not in leaves_a or key not in leaves_b:
            found.append((key, MISMATCH))
            continue
        x, y = leaves_a[key], leaves_b[key]
        if x == y and type(x) is type(y):
            continue
        if key.rsplit(".", 1)[-1] in ROUNDOFF_KEYS:
            found.append((key, f"{x} -> {y} (roundoff, not checked)"))
        elif isinstance(x, float) and isinstance(y, float):
            found.append((key, _difference(x, y, max(abs(x), abs(y)))))
        else:
            found.append((key, MISMATCH))
    return found


def _is_float_token(token: str) -> bool:
    return ("e" in token or "E" in token) and _number(token) is not None


def compare_vtk(a: Path, b: Path) -> list[tuple[str, float | str]]:
    """One ``("values", difference)`` when the files differ."""
    tokens_a, tokens_b = a.read_text().split(), b.read_text().split()
    if tokens_a == tokens_b:
        return []
    if len(tokens_a) != len(tokens_b):
        return [(f"tokens {len(tokens_a)} != {len(tokens_b)}", MISMATCH)]
    scale = _largest(float(t) for t in tokens_a + tokens_b if _is_float_token(t))
    worst = 0.0
    for x, y in zip(tokens_a, tokens_b):
        if x == y:
            continue
        if not (_is_float_token(x) and _is_float_token(y)):
            return [("values", MISMATCH)]
        worst = max(worst, _difference(float(x), float(y), scale))
    return [("values", worst)]


def compare_file(a: Path, b: Path) -> list[tuple[str, float | str]]:
    """``(what, difference)`` for every part of the file that differs."""
    if a.read_bytes() == b.read_bytes():
        return []
    if a.name == "manifest.json":
        return compare_manifest(a, b)
    if a.suffix == ".csv":
        return compare_csv(a, b)
    if a.suffix == ".vtk":
        return compare_vtk(a, b)
    return [("bytes", MISMATCH)]


def compare(dir_a: Path, dir_b: Path) -> tuple[list[str], bool]:
    """The report lines of two output directories and whether every
    difference is within :data:`TOL`."""
    names = sorted(
        {p.name for p in dir_a.iterdir() if p.is_file()}
        | {p.name for p in dir_b.iterdir() if p.is_file()}
    )
    lines, ok = [], True
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"{name}\tmissing in {dir_b if a.is_file() else dir_a}")
            ok = False
            continue
        found = compare_file(a, b)
        if not found:
            lines.append(f"{name}\tidentical")
        for what, diff in found:
            if isinstance(diff, str):
                lines.append(f"{name}\t{what}\t{diff}")
                continue
            ok = ok and diff <= TOL
            text = "mismatch" if diff == MISMATCH else f"{diff:.1e}"
            lines.append(f"{name}\t{what}\t{text}")
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="reference output directory")
    parser.add_argument("b", type=Path, help="output directory to compare")
    args = parser.parse_args(argv)
    for d in (args.a, args.b):
        if not d.is_dir():
            parser.error(f"not a directory: {d}")
    lines, ok = compare(args.a, args.b)
    print("\n".join(lines))
    print(f"{'within' if ok else 'above'} tolerance {TOL:g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
