"""Every package's ``__all__`` names what the package really exports.

A re-export dropped from the import block but left in ``__all__`` makes
``from repro.<package> import *`` raise; nothing else checks it.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg and hasattr(importlib.import_module(info.name), "__all__"))


@pytest.mark.parametrize("package", PACKAGES)
def test_all_lists_each_export_once_and_each_resolves(package):
    module = importlib.import_module(package)
    names = module.__all__
    assert sorted(set(names)) == sorted(names)
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []
