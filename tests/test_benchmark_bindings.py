"""Every module attribute the benchmark traces must exist.

``benchmarks/spans.py`` wraps the functions named in ``TRACED_BINDINGS``
where the library binds them and refuses to run when one is gone; checking
the bindings here makes a deleted one fail the tests, not only the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def traced_bindings():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return sorted({binding for bindings in spans.TRACED_BINDINGS.values()
                   for binding in bindings})


@pytest.mark.parametrize("module,attr", traced_bindings())
def test_traced_binding_resolves(module, attr):
    assert hasattr(importlib.import_module(f"helmstab.{module}"), attr)
