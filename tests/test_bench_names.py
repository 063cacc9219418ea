"""Every ``sqlab`` name the benchmark scripts read must exist, and every
call they make to a ``sqlab`` callable must bind to its signature.

The bench suite is slow and runs apart from this one, so a change that
deletes or renames an API it reads, or a parameter it passes, would
otherwise pass here and break the benchmark.  The scripts are parsed, not
imported: the check covers each ``from sqlab[.x] import y`` and each
``module.attr`` read on a name bound to a ``sqlab`` module, and each call of
such a name, made directly or through a tracer's ``t.call(layer, fn, ...)``.
Parsing does not see the fields a script reads off a returned object or the
arrays it unpacks, so the chain re-checks of ``bench/checks.py``, loaded by
its file path, also run on a real ``prune_to_gtilde`` result and a real
chain's pairs."""

import ast
import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import numpy as np
import pytest

from sqlab import blowup

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


def _scripts():
    """(script name, syntax tree, local name -> sqlab module path, local name
    -> other sqlab object, imported names as (module, name)) per bench
    script."""
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules, objects, imported = {}, {}, []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sqlab":
                for alias in node.names:
                    imported.append((node.module, alias.name))
                    obj = _resolve(node.module, alias.name)
                    if isinstance(obj, types.ModuleType):
                        modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                    elif obj is not None:
                        objects[alias.asname or alias.name] = obj
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "sqlab" and alias.asname:
                        modules[alias.asname] = alias.name
        yield path.name, tree, modules, objects, imported


def bench_names() -> set[tuple[str, str, str]]:
    """(script, module, name) for every sqlab name a bench script reads."""
    found = set()
    for script, tree, modules, _, imported in _scripts():
        found.update((script, module, name) for module, name in imported)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                found.add((script, modules[node.value.id], node.attr))
    return found


def _sqlab_object(node, modules, objects):
    """The sqlab object that a ``name`` or ``module.attr`` expression names,
    or None."""
    if isinstance(node, ast.Name):
        return objects.get(node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
        return getattr(importlib.import_module(modules[node.value.id]), node.attr, None)
    return None


def bench_calls() -> list[tuple[str, int, object, list, list]]:
    """(script, line, callee, positional argument nodes, keyword nodes) for
    every call a bench script makes to a sqlab callable, directly or as
    ``t.call(layer, fn, *args, **kwargs)``."""
    found = []
    for script, tree, modules, objects, _ in _scripts():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            fn, args = _sqlab_object(node.func, modules, objects), node.args
            if fn is None and isinstance(node.func, ast.Attribute) and node.func.attr == "call" and len(args) >= 2:
                fn, args = _sqlab_object(args[1], modules, objects), args[2:]
            if callable(fn):
                found.append((script, node.lineno, fn, args, node.keywords))
    return found


def test_bench_reads_only_existing_sqlab_names():
    names = bench_names()
    assert len(names) >= 20  # the scan must see the workloads' reads
    missing = sorted(n for n in names if _resolve(n[1], n[2]) is None)
    assert not missing, f"bench scripts read names sqlab no longer has: {missing}"


def test_bench_calls_bind_to_sqlab_signatures():
    calls = bench_calls()
    assert len(calls) >= 25  # the scan must see the workloads' calls
    assert any(fn.__name__ == "greedy_square_path" for _, _, fn, _, _ in calls)  # a t.call
    unbound = []
    for script, line, fn, args, keywords in calls:
        sig = inspect.signature(fn)
        names = {k.arg: None for k in keywords if k.arg is not None}
        try:
            if any(isinstance(a, ast.Starred) for a in args) or len(names) < len(keywords):
                # *args or **kwargs: only the keywords spelled out can be bound
                sig.bind_partial(**names)
            else:
                sig.bind(*[None] * len(args), **names)
        except TypeError as e:
            unbound.append(f"{script}:{line} {fn.__qualname__}{sig}: {e}")
    assert not unbound, "bench calls that no longer bind:\n" + "\n".join(unbound)


def _bench_checks():
    """``bench/checks.py``, loaded by its file path."""
    spec = importlib.util.spec_from_file_location("bench_checks", BENCH / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bench_prune_check_reads_what_prune_returns(seed):
    checks = _bench_checks()
    ch = blowup.build_chain_random(4, 40, 0.5, seed)
    before = {key: ch.pair(*key).copy() for key in ch.pair_indices()}
    res = blowup.prune_to_gtilde(ch, 0.2)
    assert sum(res.removed.values()) > 0
    assert checks.prune_problems(ch, res, 0.2) == []
    # pruning works on a private copy: the input keeps every pair and shares
    # no pair array with the result
    for key, pair in before.items():
        assert np.array_equal(ch.pair(*key), pair)
        assert not np.shares_memory(ch.pair(*key), res.chain.pair(*key))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bench_chain_checks_read_what_the_chain_stores(seed):
    # the dense re-checks unpack chain.pair() themselves: they must agree
    # with the kernels on the stored pairs, so a pair format they cannot
    # read fails here too
    checks = _bench_checks()
    ch = blowup.build_chain_random(5, 12, 0.5, seed)
    pairs = ch.pair_edges_local(0, 1)[:20]
    fractions = ch.expansion_fractions(pairs)
    assert 0 < max(fractions)
    for (a, b), fraction in zip(pairs, fractions):
        e = (ch.to_global(0, a), ch.to_global(1, b))
        assert checks.expansion_fraction(ch, e) == fraction
        assert checks.square_path_counts(ch, e) == blowup.square_path_counts_from(ch, e)
    exceptions = blowup.check_gtilde_ii(ch, 0.2, 0.5, 20, seed)
    floor = checks.size_window_exceptions(ch, 0.2, 0.5)
    # the size window alone is a lower bound on the exceptions
    assert sorted(floor) == sorted(exceptions) and sum(floor.values()) > 0
    assert all(floor[m] <= exceptions[m] for m in floor)
