"""Span recording around the calls into each ``semiq`` module.

The benchmark measures layers from outside the program: it replaces the
public functions of every ``semiq`` module, at each module attribute that
refers to them, with a wrapper that records one span per call.  Calls
inside a module go through the same module attributes, so nested calls
become child spans.  No file of the program changes.

A layer is a ``semiq`` module.  Its self time is the time its spans cover
minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

MODULES = ("cli", "tableio", "wkb", "oracle", "clock", "network",
           "minisuperspace")

#: wrapped besides each module's __all__ functions
EXTRA = {
    "cli": ("main", "run"),
    "clock": ("CoherenceTrajectory.coherence_magnitudes",
              "CoherenceTrajectory.dominant_pair"),
}

#: called once per CSV cell; a span per call would swamp what it measures
SKIP = {"tableio.fmt_value"}


class Recorder:
    """Spans as (id, name, layer, start, end, parent, attrs) in call order."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, layer: str, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
            extra = attrs(args, kwargs, out) if attrs else None
            self.spans.append((sid, f"{layer}.{name}", layer, t0, t1, parent,
                               extra))
            return out

        return wrapper


def _oracle_cells(args, kwargs, out):
    pot = args[0] if args else kwargs["pot"]
    # the fine walk plus the Richardson walk on the 2x-coarsened grid
    return {"cells": pot.cells + (pot.cells // 2 if pot.cells % 2 == 0 else 0)}


def _ek_size(args, kwargs, out):
    return {"draws": out.discrepancies.size, "operator_dim": out.n * out.N}


def _matter_steps(args, kwargs, out):
    return {"steps": out.t_grid.size - 1}


def _rows(args, kwargs, out):
    return {"rows": sum(len(t.rows) for t in out.values())}


def _csv_size(args, kwargs, out):
    table = args[0] if args else kwargs["table"]
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"cells": len(table.rows) * len(table.columns),
            "bytes": os.path.getsize(path)}


ATTRS = {
    "oracle.transfer_matrix_transmission": _oracle_cells,
    "network.ek_comparison": _ek_size,
    "minisuperspace.evolve_matter": _matter_steps,
    "cli.run": _rows,
    "tableio.write_csv": _csv_size,
}


def install(recorder: Recorder) -> None:
    """Wrap the public functions of every semiq module in place."""
    mods = {m: importlib.import_module(f"semiq.{m}") for m in MODULES}
    replaced = {}                      # id(original) -> wrapper; the
                                       # wrapper keeps the original alive
    for layer, mod in mods.items():
        names = [n for n in getattr(mod, "__all__", ())
                 if inspect.isfunction(getattr(mod, n))]
        for qual in names + list(EXTRA.get(layer, ())):
            key = f"{layer}.{qual}"
            if key in SKIP:
                continue
            owner, attr = mod, qual
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(mod, cls_name)
            fn = getattr(owner, attr)
            w = recorder.wrap(layer, attr, fn, ATTRS.get(key))
            setattr(owner, attr, w)
            replaced[id(fn)] = w
    # names bound by ``from .x import f`` must see the wrapper too
    for mod in mods.values():
        for attr, val in list(vars(mod).items()):
            if id(val) in replaced:
                setattr(mod, attr, replaced[id(val)])
