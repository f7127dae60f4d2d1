"""The export lists of the package and of each of its modules."""

import importlib
import pkgutil

import pytest

import mwls

MODULES = ["mwls"] + [f"mwls.{info.name}" for info in pkgutil.iter_modules(mwls.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_package_exports_have_no_duplicates():
    assert len(mwls.__all__) == len(set(mwls.__all__))
