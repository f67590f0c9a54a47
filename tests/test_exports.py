"""Every exported name resolves in its module, and the package root exports none."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_the_package_root_exports_only_its_version_and_imports_no_submodule():
    # every public name is listed in its own module; the root loads none of them
    code = ("import sys, evfam; "
            "print(evfam.__all__, sorted(m for m in sys.modules if m.startswith('evfam')))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(evfam.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout == "['__version__'] ['evfam']\n"
