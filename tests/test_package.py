"""The package's public names are the layers' own export lists."""

import numpy as np
import pytest

import semiq
from semiq import clock, minisuperspace, network, oracle, wkb


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
    "ObserverTriple": lambda: network.ObserverTriple(
        1.0, 2, 0.5, network.QuenchedCouplings(np.eye(2)), np.zeros(2)),
    "QuantumClassRecord": lambda: clock.QuantumClassRecord(
        2, 1.0, 10, np.ones(3), 0.5, np.ones(3), np.ones(3)),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=list(RECORDS))
def test_array_records_compare_by_identity(make):
    # frozen dataclasses that hold arrays: a generated __eq__ raises on the
    # arrays' truth value, and the generated __hash__ on hashing them
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2
