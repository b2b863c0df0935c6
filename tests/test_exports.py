"""Every name a vaxledger module exports resolves."""

import importlib
import pkgutil

import pytest

import vaxledger

MODULES = sorted(
    name for _finder, name, _ispkg in pkgutil.iter_modules(vaxledger.__path__, "vaxledger.")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
