"""Every exported name resolves, so ``from kscrit.<module> import *`` works, and
importing the CLI stays off the scipy subpackages only the solver needs."""

import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_cli_import_loads_no_integrator_stack():
    # scipy.integrate (which pulls in scipy.optimize) and scipy.sparse load on
    # the first simulation, not on import
    heavy = ("scipy.integrate", "scipy.optimize", "scipy.sparse")
    code = f"import sys, kscrit.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
