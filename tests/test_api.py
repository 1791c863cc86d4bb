"""The public surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import canonica

MODULES = [canonica] + [
    importlib.import_module(f"canonica.{info.name}")
    for info in pkgutil.iter_modules(canonica.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []
