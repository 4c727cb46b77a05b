"""Every name that a speclab module lists in __all__ exists, and a star
import of every module works, so a deletion cannot leave a stale entry."""

import importlib
import pkgutil

import pytest

import speclab

MODULES = ["speclab"] + sorted(m.name for m in pkgutil.walk_packages(speclab.__path__, "speclab."))


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_star_import_works(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(names) <= namespace.keys()
