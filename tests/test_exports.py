"""Every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import geominimax

MODULES = ["geominimax"] + [
    info.name for info in pkgutil.walk_packages(geominimax.__path__, prefix="geominimax.")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which the module does not define"


def test_every_module_declares_its_exports():
    assert [name for name in MODULES if not hasattr(importlib.import_module(name), "__all__")] == []
