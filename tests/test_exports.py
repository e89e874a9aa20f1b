"""Every exported name resolves, so ``from kscrit.<module> import *`` works;
every function and method the benchmark's tracer wraps exists; and the CLI
loads no scipy module on import, nor while it tabulates kernels and
constants: scipy.special comes with the first Gaussian datum, and
scipy.integrate (VODE) with the first simulation."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import kscrit

MODULES = ["kscrit"] + [f"kscrit.{info.name}" for info in pkgutil.iter_modules(kscrit.__path__)]
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def _traced_tables() -> dict:
    """``_FUNCTIONS`` and ``_METHODS`` of the tracer, read from its source without importing it."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("_FUNCTIONS", "_METHODS")
    }


def test_traced_surface_resolves():
    # the tracer wraps these with getattr: a missing one breaks every traced benchmark run
    tables = _traced_tables()
    assert tables["_FUNCTIONS"] and tables["_METHODS"]
    missing = [
        (module, attr)
        for _, module, attr in tables["_FUNCTIONS"]
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    missing += [
        (module, f"{cls}.{method}")
        for _, module, cls, method in tables["_METHODS"]
        if not callable(getattr(getattr(importlib.import_module(module), cls, None), method, None))
    ]
    assert not missing, f"traced names missing from kscrit: {missing}"


def scipy_modules_after(code: str) -> str:
    """Run ``code`` in a fresh interpreter and return the scipy modules it left loaded."""
    code += "\nimport sys; print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_integrator_stack():
    # no scipy module at all, the integrator stack included
    assert scipy_modules_after("import kscrit.cli") == "[]"


def test_kernel_and_constants_commands_load_no_scipy(tmp_path):
    code = (
        "from kscrit import cli\n"
        f"assert cli.main(['kernel', '--d', '4', '--alpha', '1.3', '--out', {str(tmp_path / 'k')!r}]) == 0\n"
        f"assert cli.main(['constants', '--d-range', '4:5', '--alpha', '1.3', '--out', {str(tmp_path / 'c')!r}]) == 0"
    )
    assert scipy_modules_after(code) == "[]"
