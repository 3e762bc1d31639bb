"""The package's public names are the layers' own export lists."""

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
