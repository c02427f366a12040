"""Every exported name resolves, so a stale export of deleted code fails."""

import importlib
import pkgutil

import pytest

import graphalign

MODULES = ["graphalign"] + [
    f"graphalign.{info.name}" for info in pkgutil.iter_modules(graphalign.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined attributes: {missing}"
