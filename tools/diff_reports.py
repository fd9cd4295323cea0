"""Compare two report dumps number by number.

    python3 tools/diff_reports.py A B [--rtol X]

``A`` and ``B`` are directories written by ``tools/dump_reports.py``.  Every
JSON number and CSV cell that differs is printed with its relative
difference ``|a - b| / max(|a|, |b|)``, followed by a summary per field (a
JSON key path with list indices dropped, or a CSV column name): how many
values differ and the largest relative difference.  CSV columns are matched
by name.

A spectrum (``*_spectrum.csv``, columns ``re_lambda,im_lambda``) is compared
as a multiset, not row by row: each eigenvalue is matched to a partner on the
other side so that the summed distance is least
(``scipy.optimize.linear_sum_assignment``), and the largest ``|dlambda|`` of
that matching is printed, with its relative difference
``|dlambda| / max(1, |lambda|)`` over the largest eigenvalue of either side,
which counts against ``--rtol`` like any number.  A rounding-level change
can reorder near-degenerate eigenvalues under the (real, imaginary) sort;
matched this way, it reads as the rounding it is.

An ``eig`` report's ``results.max_abs_imag`` and ``results.real_range`` are
eigenvalue parts, accurate only to the eigensolver's backward error, about
``D·eps·|lambda|`` (``D`` the report's ``count``).  On a spectrum that is real,
or has an eigenvalue at 0, in exact arithmetic, such a number is rounding, and
its relative difference means nothing.  So where both values lie below the
floor ``count·eps·max(1, |real_range|)`` (over both reports) the change is
counted as rounding: it is printed with the floor, and does not count against
``--rtol``.

A structural difference is a file present on one side only, a JSON key or
list length that differs, a CSV column present on one side only, a row
count that differs, or any differing value that is not a finite number on
both sides (a string, a flag such as ``excluded_flag``, ``nan`` against a
number).  CSV columns whose names end in ``_flag`` are compared as text.
Each structural difference is printed with a ``STRUCTURE`` prefix.

Exits 2 on any structural difference, else 1 if some number differs by
more than ``--rtol`` (default 0: any difference), else 0.
"""

import argparse
import csv
import json
import math
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

FLOOR_FIELDS = ("results.max_abs_imag", "results.real_range")  # eig numbers read against a floor


class Diff:
    """Collects the differences found between two dumps."""

    def __init__(self):
        self.structural = []
        self.numeric = defaultdict(list)   # field -> [relative difference, ...]
        self.spectra = []                  # (largest |dlambda|, relative) per differing spectrum
        self.rounding = defaultdict(list)  # field -> [floor, ...] of changes below it
        self.max_rel = 0.0

    def structure(self, where, msg):
        self.structural.append(f"{where}: {msg}")
        print(f"STRUCTURE {where}: {msg}")

    def value(self, where, field, a, b, floor=0.0):
        """Compare two values (numbers, or strings read from a CSV cell); a change of two
        numbers that both lie below ``floor`` in magnitude is rounding."""
        x, y = _number(a), _number(b)
        if x is not None and y is not None and math.isfinite(x) and math.isfinite(y):
            if x != y and max(abs(x), abs(y)) < floor:
                self.rounding[field].append(floor)
                print(f"{where}: {a!r} -> {b!r} below the rounding floor {floor:.3e}")
            elif x != y:
                rel = abs(x - y) / max(abs(x), abs(y))
                self.numeric[field].append(rel)
                self.max_rel = max(self.max_rel, rel)
                print(f"{where}: {a!r} -> {b!r} rel {rel:.3e}")
        elif x is not None and y is not None and (x == y or (math.isnan(x) and math.isnan(y))):
            return
        elif a != b:
            self.structure(where, f"{a!r} -> {b!r}")


def _number(v):
    """v as a float if it is a JSON number or a numeric CSV cell, else None."""
    if isinstance(v, bool):
        return None
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str):
        try:
            return float(v)
        except ValueError:
            return None
    return None


def rounding_floor(a, b):
    """``count·eps·max(1, |real_range|)`` over two ``eig`` reports, else 0 (module docstring)."""
    if a.get("command") != "eig" or b.get("command") != "eig":
        return 0.0
    results = (a["results"], b["results"])
    scale = max([1.0] + [abs(x) for r in results for x in r["real_range"]])
    return max(r["count"] for r in results) * np.finfo(float).eps * scale


def compare_json(diff, where, key, field, a, b, floor=0.0):
    """Compare two parsed JSON values at ``key`` (``field`` is ``key`` without list indices);
    the numbers of FLOOR_FIELDS are read against ``floor``."""
    at = f"{where}:{key}"
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(a.keys() | b.keys()):
            sub, sub_field = (f"{key}.{k}", f"{field}.{k}") if key else (k, k)
            if k not in b or k not in a:
                diff.structure(f"{where}:{sub}", "key only in " + ("A" if k in a else "B"))
            else:
                compare_json(diff, where, sub, sub_field, a[k], b[k], floor)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diff.structure(at, f"list length {len(a)} -> {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            compare_json(diff, where, f"{key}[{i}]", field, x, y, floor)
    elif isinstance(a, str) or isinstance(b, str) or _number(a) is None or _number(b) is None:
        if a != b:
            diff.structure(at, f"{a!r} -> {b!r}")
    else:
        diff.value(at, field, a, b, floor if field in FLOOR_FIELDS else 0.0)


def _read_csv(path):
    """(column names, rows as dicts keyed by column name)."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames or [], list(reader)


def compare_csv(diff, where, a_path, b_path):
    (a_cols, a_rows), (b_cols, b_rows) = _read_csv(a_path), _read_csv(b_path)
    for col in a_cols:
        if col not in b_cols:
            diff.structure(where, f"column {col} only in A")
    for col in b_cols:
        if col not in a_cols:
            diff.structure(where, f"column {col} only in B")
    if len(a_rows) != len(b_rows):
        diff.structure(where, f"{len(a_rows)} rows -> {len(b_rows)}")
        return
    common = [c for c in a_cols if c in b_cols]
    if where.endswith("_spectrum.csv") and a_cols == b_cols == ["re_lambda", "im_lambda"]:
        compare_spectrum(diff, where, a_rows, b_rows)
        return
    for i, (ra, rb) in enumerate(zip(a_rows, b_rows)):
        for col in common:
            at = f"{where}:row {i + 1}:{col}"
            if col.endswith("_flag"):
                if ra[col] != rb[col]:
                    diff.structure(at, f"{ra[col]!r} -> {rb[col]!r}")
            else:
                diff.value(at, col, ra[col], rb[col])


def compare_spectrum(diff, where, a_rows, b_rows):
    """Two spectra with the same count, as multisets (see the module docstring)."""
    parts = [[_number(r["re_lambda"]), _number(r["im_lambda"])] for r in a_rows + b_rows]
    if any(x is None or not math.isfinite(x) for row in parts for x in row):
        diff.structure(where, "spectrum with a value that is not a finite number")
        return
    values = np.array(parts, dtype=float).reshape(-1, 2) @ np.array([1.0, 1j])
    a, b = values[:len(a_rows)], values[len(a_rows):]
    cost = np.abs(a[:, None] - b[None, :])
    dist = float(cost[linear_sum_assignment(cost)].max(initial=0.0))
    rel = dist / max(1.0, np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    diff.spectra.append((dist, rel))
    diff.max_rel = max(diff.max_rel, rel)
    print(f"{where}: spectrum as a multiset: largest |dlambda| {dist:.3e} rel {rel:.3e}")


def compare_trees(a_root, b_root):
    diff = Diff()
    a_files = {p.relative_to(a_root) for p in a_root.rglob("*") if p.is_file()}
    b_files = {p.relative_to(b_root) for p in b_root.rglob("*") if p.is_file()}
    for rel in sorted(a_files ^ b_files):
        diff.structure(str(rel), "file only in " + ("A" if rel in a_files else "B"))
    for rel in sorted(a_files & b_files):
        a_path, b_path = a_root / rel, b_root / rel
        if a_path.read_bytes() == b_path.read_bytes():
            continue
        if rel.suffix == ".json":
            a_doc, b_doc = json.loads(a_path.read_text()), json.loads(b_path.read_text())
            compare_json(diff, str(rel), "", "", a_doc, b_doc, rounding_floor(a_doc, b_doc))
        elif rel.suffix == ".csv":
            compare_csv(diff, str(rel), a_path, b_path)
        else:
            diff.structure(str(rel), "bytes differ")
    return diff, len(a_files & b_files)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path, help="first dump directory")
    parser.add_argument("b", type=Path, help="second dump directory")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative difference of a number that is not a failure")
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            raise SystemExit(f"error: {root} is not a directory")
    diff, common = compare_trees(args.a, args.b)
    print(f"summary: {common} files on both sides, {len(diff.structural)} structural differences")
    for field, rels in sorted(diff.numeric.items()):
        print(f"  {field}: {len(rels)} numbers differ, largest relative difference {max(rels):.3e}")
    for field, floors in sorted(diff.rounding.items()):
        print(f"  {field}: {len(floors)} numbers differ below the rounding floor "
              f"(largest floor {max(floors):.3e})")
    if diff.spectra:
        dist, rel = np.max(diff.spectra, axis=0)
        print(f"  spectra: {len(diff.spectra)} differ, as multisets largest |dlambda| {dist:.3e}, "
              f"largest relative difference {rel:.3e}")
    if diff.structural:
        return 2
    return 1 if diff.max_rel > args.rtol else 0


if __name__ == "__main__":
    sys.exit(main())
