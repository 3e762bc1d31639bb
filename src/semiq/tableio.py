"""Deterministic tables: RFC-4180 CSV with 17-significant-digit floats.

Every run writes its table(s) plus a manifest (flat key = value text) that
echoes the fully resolved configuration, so a run can be reproduced from
its manifest alone.  Nothing here depends on wall-clock time: rerunning
with the same seed yields byte-identical files.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence

import numpy as np

__all__ = ["ResultTable", "fmt_value", "write_csv", "read_csv",
           "write_manifest", "read_manifest", "MANIFEST_FORMAT"]

MANIFEST_FORMAT = "1"

#: rows per block that write_csv converts and writes at once
_BLOCK_ROWS = 8192


def _formatter(kind: str):
    """The one value-formatting rule, chosen by numpy dtype kind."""
    return {"b": lambda v: "1" if v else "0", "f": "{:.17g}".format}.get(kind, str)


def fmt_value(v) -> str:
    """Bools as 1/0, floats at 17 significant digits, anything else str."""
    return _formatter(np.asarray(v).dtype.kind)(v)


class _Rows(Sequence):
    """Read-only row tuples of a columnar table, built on access."""

    def __init__(self, cols: list):
        self._cols = cols

    def __len__(self):
        return len(self._cols[0]) if self._cols else 0

    def __getitem__(self, k):
        return (list(self)[k] if isinstance(k, slice)
                else tuple(c[k] for c in self._cols))

    def __iter__(self):
        return zip(*self._cols)


class ResultTable:
    """Named, equal-length columns (numpy arrays or lists); ``columns`` lists
    the names and ``rows`` is a read-only view of the same data as tuples."""

    def __init__(self, data: dict):
        lengths = {name: len(col) for name, col in data.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"column lengths differ: {lengths}")
        self._data = dict(data)
        self.columns = list(self._data)
        self.rows = _Rows(list(self._data.values()))

    def column(self, name: str):
        return self._data[name]


def write_csv(table: ResultTable, path) -> None:
    """Stream the rows to ``path`` in blocks of ``_BLOCK_ROWS``; array columns
    are formatted from ``tolist``, as Python scalars format faster."""
    cols = list(map(table.column, table.columns))
    fmts = [_formatter(np.asarray(col).dtype.kind) for col in cols]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\r\n")
        w.writerow(table.columns)
        for lo in range(0, len(table.rows), _BLOCK_ROWS):
            block = [col[lo:lo + _BLOCK_ROWS] for col in cols]
            block = [b.tolist() if isinstance(b, np.ndarray) else b for b in block]
            w.writerows(zip(*(map(f, b) for f, b in zip(fmts, block))))


def read_csv(path) -> ResultTable:
    """Columns of strings named by the header row; blank lines are skipped."""
    with open(path, "r", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    header, body = rows[0], rows[1:]
    if len(set(header)) < len(header) or any(len(r) != len(header) for r in body):
        raise ValueError(f"{path}: repeated column name or ragged row")
    return ResultTable({name: [r[i] for r in body] for i, name in enumerate(header)})


def write_manifest(path, entries: dict, outputs: list[str]) -> None:
    """Flat key = value manifest; keys in insertion order, outputs listed."""
    lines = [f"format = {MANIFEST_FORMAT}"]
    for k, v in entries.items():
        lines.append(f"{k} = {fmt_value(v)}")
    lines.append("outputs = " + ",".join(outputs))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_manifest(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: malformed manifest line {line!r}")
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out
