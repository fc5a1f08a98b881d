import importlib
import types

import pytest

import lagneed

MODULES = ("special", "cutoffs", "quadrature", "kernels", "needlets", "spaces")


@pytest.mark.parametrize("name", MODULES)
def test_package_exports_each_module_all(name):
    module = importlib.import_module(f"lagneed.{name}")
    for attr in module.__all__:
        assert getattr(lagneed, attr) is getattr(module, attr), attr


def test_package_exports_nothing_else():
    listed = {attr for name in MODULES for attr in importlib.import_module(f"lagneed.{name}").__all__}
    exported = {attr for attr, val in vars(lagneed).items()
                if not attr.startswith("_") and not isinstance(val, types.ModuleType)}
    assert exported == listed
