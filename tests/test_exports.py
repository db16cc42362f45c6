"""Every public name a helmstab module declares must exist, and importing
the package stays light."""

import dataclasses
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


@pytest.mark.parametrize("name", MODULES)
def test_frozen_dataclasses_with_array_fields_compare_by_identity(name):
    # a generated __eq__ or __hash__ over an ndarray field raises
    module = importlib.import_module(f"helmstab.{name}")
    for cls in vars(module).values():
        if (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                and cls.__module__ == module.__name__
                and any("ndarray" in str(f.type)
                        for f in dataclasses.fields(cls))):
            assert not cls.__dataclass_params__.eq, cls.__name__
            assert cls.__hash__ is object.__hash__, cls.__name__


CERTIFIED_3D_SOLVE = """
import sys
import numpy as np
import helmstab
from helmstab.forward import cache_info
from helmstab.geometry import build_grid
from helmstab.solver import HelmholtzSystem, solve_dirichlet
print('scipy.fft' in sys.modules)
g = build_grid((1.0, 1.0, 1.0), (6, 6, 6))
sys_ = HelmholtzSystem(g, np.full(g.n_cells, 0.5), 8.0)
solve_dirichlet(sys_, np.ones((g.n_boundary, 2)))
print(cache_info()["cg_columns"])
print('scipy.fft' in sys.modules)
"""


def test_package_import_leaves_scipy_fft_unloaded():
    # scipy.fft costs about 0.1 s to import; neither the package nor the CG
    # solve of a 3D system, which applies its sine transforms by matrix
    # products, loads it
    src = os.path.dirname(os.path.dirname(helmstab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", CERTIFIED_3D_SOLVE], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["False", "2", "False"]
