"""The package's public surface: the union of its modules' __all__."""

import grushin
from grushin import asymptotics, errors, minimizer, planar, radial, tables

MODULES = (asymptotics, errors, minimizer, planar, radial, tables)


def test_package_reexports_the_union_of_module_all():
    # each public name is declared by one module, and the package exports
    # exactly their union, sorted, as the same objects
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)) == 48
    assert grushin.__all__ == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(grushin, name) is getattr(module, name), name
