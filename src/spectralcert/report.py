"""Canonical JSON reports with CSV siblings for bulk arrays.

Reports are deterministic: keys sorted, floats rounded to 12 significant
digits, and no wall-clock data inside the file (timing goes to stderr), so
identical configs and seeds produce byte-identical output.
"""

from itertools import chain, groupby
import json
import numbers

import numpy as np

SCHEMA_VERSION = 1


def _canon(obj):
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": _canon(float(obj.real)), "im": _canon(float(obj.imag))}
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        x = float(obj)
        if np.isnan(x):
            return "nan"
        if np.isinf(x):
            return "inf" if x > 0 else "-inf"
        return float(f"{x:.12g}")
    if isinstance(obj, np.ndarray):
        return [_canon(v) for v in obj.tolist()]
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def canonical_json(obj) -> str:
    return json.dumps(_canon(obj), sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def make_report(command, config_echo, results, warnings=None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config_echo,
        "results": results,
        "warnings": list(warnings or []),
        "files": [],
    }


def write_report(report, path, csv_siblings=None):
    """Write the canonical JSON report; large arrays go to sibling CSV files.

    ``csv_siblings`` maps a name to (header, rows); each becomes
    ``<stem>_<name>.csv`` next to the report and is referenced from the
    JSON ``files`` list.
    """
    path = str(path)
    stem = path[:-5] if path.endswith(".json") else path
    files = []
    for name, (header, rows) in (csv_siblings or {}).items():
        csv_path = f"{stem}_{name}.csv"
        try:
            write_csv(csv_path, header, rows)
        except OSError as e:
            raise OSError(f"cannot write CSV sibling {csv_path}: {e}") from e
        files.append(csv_path.rsplit("/", 1)[-1])
    report = dict(report)
    report["files"] = files
    try:
        with open(path, "w") as fh:
            fh.write(canonical_json(report))
    except OSError as e:
        raise OSError(f"cannot write report {path}: {e}") from e


def write_csv(path, header, rows):
    """Header line, then one line per row; floats to 12 significant digits, nan as ``nan``.

    Each run of rows whose cells have the same types is formatted by one ``%``-string: ``%d``
    for an integer, ``%s`` for a string and ``%.12g`` for anything else."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for types, run in groupby(rows, lambda row: tuple(map(type, row))):
            run = list(run)
            line = ",".join("%d" if issubclass(t, numbers.Integral) else
                            "%s" if issubclass(t, str) else "%.12g" for t in types) + "\n"
            fh.write((line * len(run)) % tuple(chain.from_iterable(run)))
