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

Two rules keep the formatting cheap.  Rows are gathered only from
C-ordered tables of distinct cells (``_cells``).  And a column given as
``Indexed(values, index)``, whose row r is ``values[index[r]]``, is
formatted from its values once per table, each block gathering its rows
of that text: the clock's 174 435-row trajectory repeats 401 steps,
times and event counts and 435 pair labels.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence

import numpy as np

from . import _fmt17

__all__ = ["ResultTable", "Indexed", "fmt_value", "write_csv", "read_csv",
           "write_manifest", "read_manifest", "MANIFEST_FORMAT"]

MANIFEST_FORMAT = "1"

#: rows per block that write_csv converts and writes at once
_BLOCK_ROWS = 8192

#: characters that make csv.QUOTE_MINIMAL quote a field
_SPECIAL = ',"\r\n'

_PAD = bytes([_fmt17.PAD])


def _kind(col):
    """A column's numpy kind if it is written as numbers (floats, booleans
    and integer arrays), else None: it is written by ``str``, as a list of
    ints is, which keeps a True among them as ``True``."""
    values = col.values if isinstance(col, Indexed) else col
    kind = np.asarray(values).dtype.kind
    return kind if kind in "fb" or (kind in "iu" and isinstance(values, np.ndarray)) else None


def _cells(columns: list, kind: str) -> list[np.ndarray]:
    """The text of columns of numbers of one numpy kind (see ``_kind``)
    as PAD-filled byte matrices, one row per value: floats by ``%.17g`` and
    integers from their digits, each distinct value of all the columns
    formatted once, and booleans as 1/0.

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
        distinct, where = np.unique(np.concatenate(columns), return_inverse=True)
        text = _fmt17.int_cells(distinct)
    # the bytes that are PAD in every distinct value are PAD in every row;
    # compress, unlike a boolean index, keeps the table C-ordered
    used = (text != _fmt17.PAD).any(axis=0)
    if not used.all():
        text = text.compress(used, axis=1)
    ends = np.cumsum([len(c) for c in columns])[:-1]
    return [np.take(text, w, axis=0) for w in np.split(where, ends)]


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
    """The text of a column of non-numbers as a PAD-filled byte matrix, one
    row per value: ``str`` of each value, all of them quoted value by value
    if one needs quotes (or the column is its table's only one)."""
    texts = list(map(str, values.tolist() if isinstance(values, np.ndarray) else values))
    if alone or _needs_quotes("".join(texts)):
        texts = [_quote(t, alone) for t in texts]
    return _fmt17.text_cells(texts)


def _format(columns: dict, kinds: dict, alone: bool) -> dict:
    """The cells of each column as a byte matrix, one row per value, keyed
    as ``columns``; the numbers of one kind are formatted together."""
    cells = {}
    for kind in dict.fromkeys(map(kinds.get, columns)):
        where = [i for i in columns if kinds[i] == kind]
        part = [columns[i] for i in where]
        cells.update(zip(where, [_fields(c, alone) for c in part] if kind is None
                         else _cells(part, kind)))
    return cells


class Indexed:
    """A column whose row r is ``values[index[r]]``, written from the text
    of its values, formatted once per table.  ``values`` is taken as a
    numpy array; ``ResultTable.column`` expands the column on demand."""

    def __init__(self, values, index):
        self.values = np.asarray(values)
        self.index = np.asarray(index, np.intp)

    def __len__(self):
        return self.index.size

    def __getitem__(self, k):
        return self.values[self.index[k]]


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
    """Named, equal-length columns (numpy arrays, lists or ``Indexed``);
    ``columns`` lists the names and ``rows`` is a read-only view of the
    same data as tuples.  Neither expands an ``Indexed`` column."""

    def __init__(self, data: dict):
        lengths = {name: len(col) for name, col in data.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"column lengths differ: {lengths}")
        self._data = dict(data)
        self.columns = list(self._data)
        self.rows = _Rows(list(self._data.values()))

    def column(self, name: str):
        col = self._data[name]
        return col.values[col.index] if isinstance(col, Indexed) else col


def write_csv(table: ResultTable, path) -> None:
    """Write the table in blocks of ``_BLOCK_ROWS`` rows: a block is one
    byte matrix of its cells and separators, compacted and written as one
    ``bytes``.  An ``Indexed`` column's values are formatted once, and a
    block gathers its rows of that text."""
    cols = dict(enumerate(table._data.values()))
    kinds = {i: _kind(c) for i, c in cols.items()}
    alone = len(cols) == 1
    texts = _format({i: c.values for i, c in cols.items() if isinstance(c, Indexed)},
                    kinds, alone)
    plain = {i: c for i, c in cols.items() if i not in texts}
    header = ",".join(_quote(name, alone) for name in table.columns) + "\r\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        for lo in range(0, len(table.rows), _BLOCK_ROWS):
            hi = lo + _BLOCK_ROWS
            cells = _format({i: c[lo:hi] for i, c in plain.items()}, kinds, alone)
            cells.update((i, np.take(t, cols[i].index[lo:hi], axis=0))
                         for i, t in texts.items())
            cells = [cells[i] for i in cols]
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
