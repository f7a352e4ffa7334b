"""Deterministic CSV and JSON emission.

Every artifact file starts with one comment line of run metadata
(config hash, grid size, package version) so results remain
attributable; reals are written with 17 significant digits so the
files round-trip bit-for-bit and identical runs produce identical
bytes.
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
    """Read a CSV written by :func:`write_csv` back into named arrays.

    A missing header, a row whose length differs from the header's or a
    non-numeric cell raises ``ValueError`` naming the file (and line).
    """
    path = Path(path)
    rows = []
    header = None
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        tokens = line.split(",")
        if header is None:
            header = tokens
            continue
        if len(tokens) != len(header):
            raise ValueError(f"{path}, line {lineno}: expected {len(header)} values, got {len(tokens)}")
        try:
            rows.append([float(tok) for tok in tokens])
        except ValueError:
            raise ValueError(f"{path}, line {lineno}: malformed row {line!r}") from None
    if header is None:
        raise ValueError(f"{path} contains no header row")
    data = np.asarray(rows, dtype=float) if rows else np.empty((0, len(header)))
    return {name: data[:, j] for j, name in enumerate(header)}
