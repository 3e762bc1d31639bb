"""Deterministic tables: RFC-4180 CSV with 17-significant-digit floats.

Every run writes its table(s) plus a manifest (flat key = value text) that
echoes the fully resolved configuration, so a run can be reproduced from
its manifest alone.  Nothing here depends on wall-clock time: rerunning
with the same seed yields byte-identical files.  Every file is UTF-8,
whatever the locale.

A cell's text depends only on its value and its column's numpy dtype kind.
Floats are written as ``'%.17g' % v`` writes them, booleans as 1/0, integer
arrays in decimal, and anything else (text, and lists of integers, in which
a True stays ``True``) as ``str``.  The numbers come from array code
(``_fmt17``): a block of rows is formatted column by column into one byte
matrix, each distinct value once, and written as one ``bytes``.  One value,
as the manifest writes each of its own, goes through ``fmt_value``, the
same rule applied with ``%``.

Two rules keep the formatting of a block cheap (``_cells``).  Rows are
gathered only from C-ordered tables of distinct cells: gathering a cosmo
block's 57 344 float cells from a column-major table took 4.8-7.2 ms, from
a C-ordered one 1.4 ms (2-vCPU Xeon, numpy 2.4).  Integers that span no
more values than the block holds are found by their offset from the
least one, not by ``np.unique``: the step counters of a clock block hold
about 19 distinct values in 8192 rows, and their sort is skipped.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence

import numpy as np

from . import _fmt17

__all__ = ["ResultTable", "fmt_value", "write_csv", "read_csv",
           "write_manifest", "read_manifest", "MANIFEST_FORMAT"]

MANIFEST_FORMAT = "1"

#: rows per block that write_csv converts and writes at once
_BLOCK_ROWS = 8192

#: characters that make csv.QUOTE_MINIMAL quote a field
_SPECIAL = _fmt17.QUOTED.decode("ascii")

_PAD = bytes([_fmt17.PAD])


def _numeric(values, kind: str) -> bool:
    """Whether a column of numpy kind ``kind`` is written as a number:
    floats, booleans, and integer arrays.  A list of ints is written by
    ``str``, which keeps a True among them as ``True``."""
    return kind in "fb" or (kind in "iu" and isinstance(values, np.ndarray))


def _kinds(columns: list) -> dict:
    """Indices of the columns of numbers of each numpy kind, and under None
    those of the other columns."""
    out: dict = {}
    for i, col in enumerate(columns):
        kind = np.asarray(col).dtype.kind
        out.setdefault(kind if _numeric(col, kind) else None, []).append(i)
    return out


def _cells(columns: list, kind: str) -> list[np.ndarray]:
    """The text of equal-length columns of numbers of one numpy kind (see
    ``_numeric``) as PAD-filled byte matrices, one row per value: floats by
    ``%.17g`` and integers from their digits, each distinct value of all
    the columns formatted once, and booleans as 1/0.

    Integers whose span max - min + 1 is no more than their count are
    formatted as the whole range min..max and found at offset value - min,
    with no sort: an 8192-row clock block holds about 19 distinct steps.
    Otherwise the distinct values come from ``np.unique``.

    Rows are gathered only from a C-ordered table, so that each row is one
    run of bytes.  A boolean column index (``text[:, used]``) returns a
    column-major matrix, from which gathering the 57 344 cells of a cosmo
    block took 4.8-7.2 ms, against 1.4 ms from a C-ordered one.
    """
    if kind == "b":
        return [np.where(np.asarray(c, bool), ord("1"), ord("0")).astype(np.uint8)[:, None]
                for c in columns]
    if kind == "f":
        # distinct bit patterns, so that -0.0 and 0.0 stay apart
        bits = np.concatenate([np.asarray(c, np.float64) for c in columns]).view(np.int64)
        distinct, where = np.unique(bits, return_inverse=True)
        text = _fmt17.float_cells(distinct.view(np.float64)).view(np.uint8)
    else:
        values = np.concatenate(columns)
        lo, hi = values.min(), values.max()
        if int(hi) - int(lo) < values.size:
            # offsets in 64 bits, where value - min cannot wrap as it can
            # in a narrower dtype (int8: 50 - -128)
            wide = np.int64 if kind == "i" else np.uint64
            where = np.subtract(values, lo, dtype=wide).astype(np.intp)
            distinct = np.arange(int(hi) - int(lo) + 1, dtype=wide) + wide(lo)
        else:
            distinct, where = np.unique(values, return_inverse=True)
        text = _fmt17.int_cells(distinct)
    # the bytes that are PAD in every distinct value are PAD in every row;
    # compress, unlike a boolean index, keeps the table C-ordered
    used = (text != _fmt17.PAD).any(axis=0)
    if not used.all():
        text = text.compress(used, axis=1)
    return [np.take(text, w, axis=0) for w in np.split(where, len(columns))]


def fmt_value(v) -> str:
    """One value as a cell of its kind: bools (Python's and numpy's) as
    1/0, floats as ``'%.17g'``, integers in decimal, anything else str."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return "%.17g" % v
    if isinstance(v, (int, np.integer)):
        return "%d" % v
    return str(v)


def _needs_quotes(text: str) -> bool:
    return any(c in text for c in _SPECIAL)


def _quote(value, alone: bool) -> str:
    """``value`` as one CSV field, quoted as csv.QUOTE_MINIMAL quotes it:
    when it holds a delimiter, a quote or a line break, or when it is the
    empty only field of its row (``alone``), which would read as no row."""
    s = str(value)
    if _needs_quotes(s) or (alone and not s):
        return '"' + s.replace('"', '""') + '"'
    return s


def _fields(values, alone: bool) -> np.ndarray:
    """The text of a block of a column of non-numbers as a PAD-filled byte
    matrix: ``str`` of each value, all of them quoted value by value if
    one needs quotes (or the column is its table's only one)."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "U" and not alone:
        cells = _fmt17.ascii_cells(values)
        if cells is not None:
            return cells
    texts = list(map(str, values.tolist() if isinstance(values, np.ndarray) else values))
    if alone or _needs_quotes("".join(texts)):
        texts = [_quote(t, alone) for t in texts]
    return _fmt17.text_cells(texts)


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
    """Write the table in blocks of ``_BLOCK_ROWS`` rows: a block is one
    byte matrix of its cells and separators, compacted and written as one
    ``bytes``."""
    cols = list(map(table.column, table.columns))
    alone = len(cols) == 1
    kinds = _kinds(cols)
    texts = kinds.pop(None, [])
    header = ",".join(_quote(name, alone) for name in table.columns) + "\r\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        for lo in range(0, len(table.rows), _BLOCK_ROWS):
            block = [col[lo:lo + _BLOCK_ROWS] for col in cols]
            cells = [None] * len(cols)
            for kind, where in kinds.items():
                for i, c in zip(where, _cells([block[i] for i in where], kind)):
                    cells[i] = c
            for i in texts:
                cells[i] = _fields(block[i], alone)
            rows = len(cells[0])
            seps = [np.full((rows, 1), ord(","), np.uint8)] * (len(cells) - 1)
            seps.append(np.tile(np.frombuffer(b"\r\n", np.uint8), (rows, 1)))
            block = np.concatenate([c for pair in zip(cells, seps) for c in pair], axis=1)
            fh.write(block.tobytes().translate(None, _PAD))


def read_csv(path) -> ResultTable:
    """Columns of strings named by the header row; blank lines are skipped."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
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
    lines += [f"{k} = {fmt_value(v)}" for k, v in entries.items()]
    lines.append("outputs = " + ",".join(outputs))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_manifest(path) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: malformed manifest line {line!r}")
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out
