import importlib
import inspect
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
    # package, and nothing needs concurrent.futures: either would add to every
    # command's start-up time
    code = ("import sys, lrdwaved; "
            "print('numpy.random' in sys.modules, 'concurrent.futures' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(lrdwaved.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False False"


def test_every_cache_is_bounded():
    # each functools cache in the package, module-level or on a class, has a
    # finite maxsize: a cache keyed by value must not grow with the inputs
    caches = {}
    for name in MODULES:
        module = importlib.import_module(f"lrdwaved.{name}")
        for attr, value in vars(module).items():
            owners = [(attr, value)]
            if inspect.isclass(value) and value.__module__ == module.__name__:
                owners += [(f"{attr}.{a}", v) for a, v in vars(value).items()]
            for label, obj in owners:
                obj = getattr(obj, "__func__", obj)  # staticmethod / classmethod
                if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                    caches[f"{name}.{label}"] = obj.cache_parameters()["maxsize"]
    assert "thresholds._tau" in caches and "meyer._detail_plan" in caches
    unbounded = [label for label, size in caches.items() if size is None]
    assert not unbounded, f"unbounded caches: {unbounded}"
