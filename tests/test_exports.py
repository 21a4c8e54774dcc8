"""Every name a module lists in __all__ exists, so a deleted helper
cannot linger in an export list."""

import importlib
import pkgutil

import pytest

import dilates

MODULES = sorted(m.name for m in pkgutil.iter_modules(dilates.__path__, "dilates."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_modules_found():
    assert {"dilates.search", "dilates.checks", "dilates.cli"} <= set(MODULES)
