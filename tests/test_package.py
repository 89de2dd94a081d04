"""The public names of the package and of each of its modules."""

import importlib
import pkgutil

import pytest

import levynet

_MODULES = ["levynet"] + [f"levynet.{info.name}"
                          for info in pkgutil.iter_modules(levynet.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is gone breaks
    # `from levynet import *` and documents an API that does not exist
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, missing
