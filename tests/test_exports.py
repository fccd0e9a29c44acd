import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import lrdwaved

MODULES = sorted(info.name for info in pkgutil.iter_modules(lrdwaved.__path__))


@pytest.mark.parametrize("name", ["lrdwaved"] + [f"lrdwaved.{m}" for m in MODULES])
def test_every_export_resolves_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes {missing}"


def test_import_leaves_numpy_random_unloaded():
    # numpy.random is imported with the first random stream, not with the
    # package: it would add to every command's start-up time
    code = "import sys, lrdwaved; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(lrdwaved.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"
