"""The import surface: every name a module lists in ``__all__`` resolves,
and ``from hqinflab.<module> import *`` works."""

import importlib
import pkgutil

import pytest

import hqinflab


SUBMODULES = [info.name for info in pkgutil.iter_modules(hqinflab.__path__)]
MODULES = [n for n in SUBMODULES if hasattr(importlib.import_module(f"hqinflab.{n}"), "__all__")]


def test_modules_found():
    # every module but the command line has an import surface
    assert set(MODULES) == set(SUBMODULES) - {"cli"}


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"hqinflab.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from hqinflab.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
