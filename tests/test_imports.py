"""The import surface: every name a module lists in ``__all__`` resolves,
and ``from hqinflab.<module> import *`` works."""

import importlib
import pkgutil

import pytest

import hqinflab


def _modules_with_all() -> list[str]:
    names = [info.name for info in pkgutil.iter_modules(hqinflab.__path__)]
    return [n for n in names if hasattr(importlib.import_module(f"hqinflab.{n}"), "__all__")]


MODULES = _modules_with_all()


def test_modules_found():
    assert {"paths", "scaling", "simulate", "stats"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"hqinflab.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from hqinflab.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
