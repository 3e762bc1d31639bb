"""The package's public names are the layers' own export lists."""

import ast
from pathlib import Path

import numpy as np
import pytest

import semiq
from semiq import clock, minisuperspace, network, oracle, wkb

ROOT = Path(__file__).resolve().parents[1]


def test_package_exports_the_modules_lists():
    layers = (clock, wkb, oracle, network, minisuperspace)
    assert semiq.__all__ == ["__version__"] + [name for mod in layers
                                               for name in mod.__all__]
    assert len(set(semiq.__all__)) == len(semiq.__all__)
    for mod in layers:
        for name in mod.__all__:
            assert getattr(semiq, name) is getattr(mod, name)
    namespace = {}
    exec("from semiq import *", namespace)
    assert set(semiq.__all__) <= set(namespace)


RECORDS = {
    "BarrierProblem": lambda: wkb.BarrierProblem([1.0, 2.0], 1.0, 1.0, 1.0),
    "QuenchedCouplings": lambda: network.QuenchedCouplings(np.eye(2)),
    "QuantumClassRecord": lambda: clock.QuantumClassRecord(
        2, 1.0, 10, np.ones(3), 0.5, np.ones(3)),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=list(RECORDS))
def test_array_records_compare_by_identity(make):
    # frozen dataclasses that hold arrays: a generated __eq__ raises on the
    # arrays' truth value, and the generated __hash__ on hashing them
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


def referenced_names(paths):
    """Names that the code in paths reads, as a name, an attribute or an
    imported name."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_export_has_a_caller():
    # an export stays only while the library, a demo or the acceptance gate
    # reads it; a name that only its own tests call is not public API
    callers = [*sorted((ROOT / "src" / "semiq").glob("*.py")),
               *sorted((ROOT / "demos").glob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    used = referenced_names(callers)
    assert [name for name in semiq.__all__ if name not in used] == []
