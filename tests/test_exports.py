"""Every exported name resolves, in the package and in each of its modules."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import evfam

MODULES = ["evfam"] + sorted(f"evfam.{info.name}" for info in pkgutil.iter_modules(evfam.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
