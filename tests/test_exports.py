"""Every name that a module of the package lists in ``__all__`` resolves.

A deletion that leaves its name in ``__all__`` breaks ``from module import *``
and misleads a reader of the module's public surface; this catches it.
"""

import importlib
import pkgutil

import pytest

import chargedfock

MODULES = sorted(info.name for info in pkgutil.iter_modules(chargedfock.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"chargedfock.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is listed twice"
    assert [attr for attr in exported if not hasattr(module, attr)] == []
