"""Every public name a helmstab module declares must exist, and importing
the package stays light."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import helmstab

MODULES = sorted(info.name for info in pkgutil.iter_modules(helmstab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(f"helmstab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    exec(f"from helmstab.{name} import *", {})


def test_package_import_leaves_scipy_fft_unloaded():
    # scipy.fft costs about 0.1 s to import; only the CG solve of a 3D
    # system needs it, so it is loaded there and not by the package
    src = os.path.dirname(os.path.dirname(helmstab.__file__))
    code = "import sys, helmstab; print('scipy.fft' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
