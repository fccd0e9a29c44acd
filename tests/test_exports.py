import importlib
import pkgutil

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

