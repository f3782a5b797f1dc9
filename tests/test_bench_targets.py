"""The benchmark's tracer wraps netprobe functions at the module attributes
their callers look them up by (bench/tracing.py, TARGETS).  Each of those
attributes must exist, or a traced benchmark run fails on start or reports
no calls for the layer."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


# workloads is the benchmark's own module, not part of netprobe
@pytest.mark.parametrize(
    "module_name, attr",
    [(module, attr) for module, attr, _ in _targets() if module != "workloads"],
)
def test_trace_target_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))
