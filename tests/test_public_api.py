"""Every exported name resolves, so a removal from a module cannot leave a stale export."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import lassodist

MODULES = ["lassodist"] + [
    f"lassodist.{info.name}" for info in pkgutil.iter_modules(lassodist.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []
