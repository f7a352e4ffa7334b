"""Deterministic CSV and JSON emission, and the one CSV reader.

Every artifact file starts with one comment line of run metadata
(config hash, grid size, package version) so results remain
attributable; reals are written with 17 significant digits so the
files round-trip bit-for-bit and identical runs produce identical
bytes.  :func:`read_csv_columns` reads those files back and every CSV
input of a configuration (tabulated fields, initial states) under one
rule set.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def format_real(value: float) -> str:
    return f"{float(value):.17g}"


def write_csv(path, columns, meta=None) -> None:
    """Write named columns as comma-separated text.

    ``columns`` is a sequence of ``(name, array)`` pairs of equal
    length; ``meta`` is an optional mapping rendered into the leading
    comment line in insertion order.
    """
    path = Path(path)
    names = [name for name, _ in columns]
    arrays = [np.asarray(arr) for _, arr in columns]
    length = len(arrays[0]) if arrays else 0
    for name, arr in zip(names, arrays):
        if len(arr) != length:
            raise ValueError(f"column {name!r} has length {len(arr)} != {length}")
    lines = []
    if meta:
        lines.append("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    lines.append(",".join(names))
    for i in range(length):
        lines.append(",".join(format_real(arr[i]) for arr in arrays))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path, payload) -> None:
    """Write a JSON report with sorted keys and a trailing newline."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_csv_columns(path):
    """Read a CSV, such as one written by :func:`write_csv`, into named arrays.

    The one rule for every CSV the package reads: each line is stripped,
    and blank and ``#`` lines are skipped.  The first remaining row is
    the header unless every cell in it is a number; a file without a
    header names its columns by position (``"0"``, ``"1"``, ...).  Every
    row has as many cells as the first, and every cell after the header
    is a number.  Any fault raises ``ValueError`` naming the file, the
    line and the row.
    """
    path = Path(path)
    header, rows = None, []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = [cell.strip() for cell in line.split(",")]
        try:
            values = [float(cell) for cell in cells]
        except ValueError:
            values = None
        if header is None:
            header = [str(j) for j in range(len(cells))] if values else cells
            if len(set(header)) != len(header):
                raise ValueError(f"{path}, line {lineno}: repeated column name in {line!r}")
            if not values:
                continue
        if len(cells) != len(header):
            raise ValueError(f"{path}, line {lineno}: expected {len(header)} cells, got {len(cells)} in {line!r}")
        if values is None:
            raise ValueError(f"{path}, line {lineno}: non-numeric cell in {line!r}")
        rows.append(values)
    if header is None:
        raise ValueError(f"{path} has no rows")
    data = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
    return {name: data[:, j] for j, name in enumerate(header)}
