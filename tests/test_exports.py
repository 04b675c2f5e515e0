"""Every exported name resolves, so a stale export fails here rather than in
a user's import."""

import importlib
import pkgutil

import pytest

import sunac

MODULES = sorted(info.name for info in pkgutil.iter_modules(sunac.__path__))
REEXPORTED = ("errors", "audio", "codec", "extractor", "rvq", "assignment",
              "analysis", "fixtures", "bitstream", "pipeline")


def _check_all(module):
    names = module.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ lists missing {missing}"


def test_package_exports_resolve():
    _check_all(sunac)


def test_package_exports_are_the_modules_exports():
    expected = ["__version__"]
    for name in REEXPORTED:
        expected += importlib.import_module(f"sunac.{name}").__all__
    assert sunac.__all__ == expected


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"sunac.{name}")
    assert hasattr(module, "__all__"), f"sunac.{name} declares no __all__"
    _check_all(module)


def test_star_import():
    namespace = {}
    exec("from sunac import *", namespace)
    assert set(sunac.__all__) <= set(namespace)
