"""Every name a module of the package exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import contagion

MODULES = ["contagion"] + [
    f"contagion.{info.name}" for info in pkgutil.iter_modules(contagion.__path__)
]


def test_modules_are_found():
    assert {"contagion.harness", "contagion.metrics"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
