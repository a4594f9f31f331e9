import importlib
import pkgutil

import pytest

import carenet

MODULES = ["carenet"] + [f"carenet.{m.name}" for m in pkgutil.iter_modules(carenet.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # tooling walks __all__ with getattr, so a retired name left listed breaks it
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []
