"""The benchmark's tracer wraps netprobe functions at the module attributes
their callers look them up by (bench/tracing.py, TARGETS).  Each of those
attributes must exist, or a traced benchmark run fails on start or reports
no calls for the layer.  netprobe's own imports are all used, and all from
the standard library or netprobe itself."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "netprobe"


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


def _unused_imports(path: Path) -> set[str]:
    """Names path imports but never loads: not as a name, not as the base
    of an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_import_is_used_or_pinned_by_the_tracer():
    # the tracer wraps a function at the module attribute its callers look
    # it up by, so a module may import a name only for the tracer to find
    pinned = {(module, attr) for module, attr, _ in _targets()}
    unused = {
        (f"netprobe.{path.stem}", name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(path)
    }
    assert unused <= pinned, sorted(unused - pinned)


def test_netprobe_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies, but the test extra installs
    # numpy, scipy and networkx, so an import of one would pass every test
    outside = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside.update(
                (path.name, module)
                for module in modules
                if module.split(".")[0] not in sys.stdlib_module_names
            )
    assert not outside, sorted(outside)
