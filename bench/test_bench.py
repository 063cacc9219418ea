"""Tests of the benchmark harness itself, at toy sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import spans
from sqlab import embedder
from sqlab.squarewalk import SquareCycle, SquarePath
from workloads import Chain, LowerBound, Regularity, Resilience

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def toy(name):
    return {
        "resilience": lambda: Resilience(n=600, p=0.7),
        "regularity": lambda: Regularity(
            true_sizes=(40, 100), true_per_size=3, planted_sizes=(100,), planted_per_size=2,
            partition_n=300,
        ),
        "chain": lambda: Chain(prune_shape=(4, 120, 0.5), window_shape=(5, 30, 0.6),
                               sample_limit=8, count_starts=2, count_targets=3),
        "lower-bound": lambda: LowerBound(template_m=3, blocker_n=12, node_budget=20_000,
                                          wipe_n=20, greedy_n=80),
    }[name]()


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_out")
    return {
        (name, trace): run.run(name, 1, 0.01, trace, workload=toy(name), out=out)
        for name in ("regularity", "chain", "lower-bound")
        for trace in (False, True)
    }


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == ["resilience", "regularity", "chain", "lower-bound"]
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_its_unit(records, trace):
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for (name, tr), record in records.items():
        if tr != trace:
            continue
        line = run.summary(record, SPEC)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in wanted]
        for m in wanted:
            got = line["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_records_are_valid_json(records):
    for record in records.values():
        text = json.dumps(record, allow_nan=False)
        assert json.loads(text) == record
        assert set(record["provenance"]) >= {"commit", "python", "numpy", "nproc", "blas_threads"}


def test_spans_nest_with_nonnegative_self_time(records):
    tracer = spans.Tracer()
    wl = toy("chain")
    wl.setup(3, tracer)
    run.run_pass(wl, tracer, 0)
    by_id = {s["id"]: s for s in tracer.spans}
    assert any(s["parent"] is not None for s in tracer.spans)
    for s in tracer.spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            assert parent["op"] == s["op"]
    assert min(spans.self_times(tracer.spans).values()) >= 0
    layers = spans.layer_times(tracer.spans)
    assert layers["blowup.busy_s"] > 0 and layers["check.busy_s"] > 0
    for (name, trace), record in records.items():
        if trace:
            assert all(record["metrics"][k] >= 0 for k in record["metrics"] if k.endswith("self_s"))


def test_digest_repeats_across_runs(tmp_path):
    first = run.run("lower-bound", 5, 0.01, False, workload=toy("lower-bound"), out=tmp_path)
    second = run.run("lower-bound", 5, 0.01, False, workload=toy("lower-bound"), out=tmp_path)
    assert first["digest"] == second["digest"]
    assert first["digest_matches_previous"] is None
    assert second["digest_matches_previous"] is True
    other = run.run("lower-bound", 6, 0.01, False, workload=toy("lower-bound"), out=tmp_path)
    assert other["digest"] != first["digest"]


def test_changed_digest_is_flagged(tmp_path):
    record = run.run("chain", 2, 0.01, False, workload=toy("chain"), out=tmp_path)
    path = tmp_path / "digests.json"
    stored = json.loads(path.read_text())
    stored = {k: "0" * 64 for k in stored}
    path.write_text(json.dumps(stored))
    again = run.run("chain", 2, 0.01, False, workload=toy("chain"), out=tmp_path)
    assert record["correct"] and not again["correct"]
    assert again["digest_matches_previous"] is False


def _swap_two(seq):
    seq = list(seq)
    seq[1], seq[len(seq) // 2] = seq[len(seq) // 2], seq[1]
    return tuple(seq)


def test_swapped_cycle_counts_as_failed(tmp_path, monkeypatch):
    real = embedder.embed_square_cycle

    def tampered(*args, **kwargs):
        tr = real(*args, **kwargs)
        if tr.cycle is not None:
            return dataclasses.replace(tr, cycle=SquareCycle(_swap_two(tr.cycle.vertices)))
        return dataclasses.replace(tr, path=SquarePath(_swap_two(tr.path.vertices)))

    clean = run.run("resilience", 0, 0.01, False, workload=toy("resilience"), out=tmp_path)
    assert clean["correct"] and clean["failed"] == 0
    monkeypatch.setattr(embedder, "embed_square_cycle", tampered)
    bad = run.run("resilience", 0, 0.01, False, workload=toy("resilience"), out=tmp_path / "b")
    assert not bad["correct"]
    # both tuned pipeline ops in every pass; the defaults op raises before embedding
    assert bad["failed"] == 2 * bad["passes"]
    assert any("not a square" in p or "not in class" in p for p in bad["problems"])


def test_wrong_verdict_counts_as_failed(tmp_path, monkeypatch):
    from sqlab import squarewalk

    def found(g, node_budget=None):
        return squarewalk.CycleSearchResult("found", None, 1)

    monkeypatch.setattr(squarewalk, "has_square_hamilton_cycle", found)
    record = run.run("lower-bound", 0, 0.01, False, workload=toy("lower-bound"), out=tmp_path)
    assert record["failed"] == record["passes"] and not record["correct"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
