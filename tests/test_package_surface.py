"""The package surface: every ``repro`` module imports, and every name a
module lists in ``__all__`` resolves on it."""

import importlib
import pkgutil

import pytest

import repro

MODULES = [repro.__name__] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []
