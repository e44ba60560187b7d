"""Every exported name resolves, so a deleted function leaves no stale entry
in the package's or a module's __all__."""

import importlib
import pkgutil

import pytest

import rflsmooth

MODULES = [rflsmooth] + [importlib.import_module(f"rflsmooth.{info.name}")
                         for info in pkgutil.iter_modules(rflsmooth.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in getattr(module, "__all__", []) if not hasattr(module, name)] == []
