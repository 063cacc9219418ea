"""Every ``sqlab`` name the benchmark scripts read must exist.

The bench suite is slow and runs apart from this one, so a change that
deletes or renames an API it reads would otherwise pass here and break the
benchmark.  The scripts are parsed, not imported: the check covers each
``from sqlab[.x] import y`` and each ``module.attr`` read on a name bound to
a ``sqlab`` module."""

import ast
import importlib
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _resolve(module: str, name: str):
    """The object ``from module import name`` binds, or None."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


def bench_names() -> set[tuple[str, str, str]]:
    """(script, module, name) for every sqlab name a bench script reads."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {}  # local name -> sqlab module path
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sqlab":
                for alias in node.names:
                    found.add((path.name, node.module, alias.name))
                    if isinstance(_resolve(node.module, alias.name), types.ModuleType):
                        modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "sqlab" and alias.asname:
                        modules[alias.asname] = alias.name
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                found.add((path.name, modules[node.value.id], node.attr))
    return found


def test_bench_reads_only_existing_sqlab_names():
    names = bench_names()
    assert len(names) >= 20  # the scan must see the workloads' reads
    missing = sorted(n for n in names if _resolve(n[1], n[2]) is None)
    assert not missing, f"bench scripts read names sqlab no longer has: {missing}"
