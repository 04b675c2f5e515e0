"""Every exported name resolves, so a stale export fails here rather than in
a user's import."""

import importlib
import pkgutil

import pytest

import sunac

MODULES = sorted(info.name for info in pkgutil.iter_modules(sunac.__path__))


def _check_all(module):
    names = module.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ lists missing {missing}"


def test_package_exports_resolve():
    _check_all(sunac)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"sunac.{name}")
    if hasattr(module, "__all__"):
        _check_all(module)


def test_star_import():
    namespace = {}
    exec("from sunac import *", namespace)
    assert set(sunac.__all__) <= set(namespace)
