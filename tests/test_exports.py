"""Every exported name resolves, so ``from kscrit.<module> import *`` works."""

import importlib
import pkgutil

import pytest

import kscrit

MODULES = ["kscrit"] + [f"kscrit.{info.name}" for info in pkgutil.iter_modules(kscrit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
