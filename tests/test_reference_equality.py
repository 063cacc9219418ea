"""The matrix-backed gnp, per-vertex deletion, pair counter and greedy
square path against the bitset reference implementations in ``oracles``:
outputs must be identical, down to edge counts, witnesses, sample indices
and path vertices."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sqlab import adversary, graph
from sqlab import regularity as reg
from sqlab import squarewalk as sw
from oracles import (
    ReferenceGraphCounter,
    reference_gnp,
    reference_greedy_square_path,
    reference_per_vertex_deletion,
)
from test_regularity import squared_cycle_blowup
from test_squarewalk import cycle_graph, squared_cycle_graph


def assert_same_graph(got, want):
    assert got == want
    assert got.edge_count == want.edge_count
    got.validate()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 9, 64, 131])
@pytest.mark.parametrize("p", [0.0, 0.05, 0.5, 0.93, 1.0])
def test_gnp_matches_reference(n, p):
    for seed in (0, 11):
        assert_same_graph(graph.gnp(n, p, seed), reference_gnp(n, p, seed))


@pytest.mark.parametrize("n", [0, 1, 2, 5, 40, 150])
@pytest.mark.parametrize("p", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("r", [0.0, 0.1, 0.37, 1.0])
def test_per_vertex_deletion_matches_reference(n, p, r):
    g = graph.gnp(n, p, seed=n)
    for seed in (0, 3):
        assert_same_graph(
            adversary.per_vertex_deletion(g, r, seed),
            reference_per_vertex_deletion(g, r, seed),
        )


def with_reference_counter(monkeypatch, fn, *args, **kwargs):
    """(fn with the matrix counter, fn with the bitset reference counter)."""
    got = fn(*args, **kwargs)
    with monkeypatch.context() as mp:
        mp.setattr(reg, "_GraphCounter", ReferenceGraphCounter)
        want = fn(*args, **kwargs)
    return got, want


def random_pair(s, p, seed):
    """A pair of G(3s, p) on two disjoint, unsorted, interleaved vertex sets."""
    g = graph.gnp(3 * s, p, seed)
    perm = [int(v) for v in np.random.default_rng(seed).permutation(3 * s)]
    return g, reg.BipartitePairView(g, tuple(perm[:s]), tuple(perm[s : 2 * s]))


def planted_pair(s, seed):
    """Two complete blocks plus density-0.4 noise across, relabelled at random."""
    rng = np.random.default_rng(seed)
    h = s // 2
    probs = np.full((s, s), 0.4)
    probs[:h, :h] = 1.0
    probs[h:, h:] = 1.0
    hit = rng.random((s, s)) < probs
    perm = [int(v) for v in rng.permutation(2 * s)]
    edges = [(perm[u], perm[s + w]) for u, w in zip(*np.nonzero(hit))]
    g = graph.from_edges(2 * s, edges)
    return g, reg.BipartitePairView(g, tuple(perm[:s]), tuple(perm[s:]))


PAIRS = [
    ("random-40", lambda: random_pair(40, 0.7, 1)),
    ("random-100", lambda: random_pair(100, 0.7, 2)),
    ("random-sparse", lambda: random_pair(60, 0.05, 3)),
    ("random-edgeless", lambda: random_pair(30, 0.0, 4)),
    ("random-complete", lambda: random_pair(30, 1.0, 5)),
    ("planted-100", lambda: planted_pair(100, 6)),
    ("planted-41", lambda: planted_pair(41, 7)),
]


@pytest.mark.parametrize("make", [m for _, m in PAIRS], ids=[i for i, _ in PAIRS])
@pytest.mark.parametrize("tester", [reg.test_regular, reg.test_lower_regular])
@pytest.mark.parametrize("epsilon", [0.075, 0.2])
def test_reports_match_reference(monkeypatch, make, tester, epsilon):
    g, pair = make()
    p = float(pair.density()) or 0.5
    for seed in (0, 9):
        got, want = with_reference_counter(monkeypatch, tester, g, pair, p, epsilon, 200, seed)
        assert got == want
        assert got.to_json_dict() == want.to_json_dict()


def test_reports_match_reference_find_witnesses(monkeypatch):
    # the grid above must exercise both verdicts and pivot witnesses
    seen = set()
    for _, make in PAIRS:
        g, pair = make()
        p = float(pair.density()) or 0.5
        got, want = with_reference_counter(monkeypatch, reg.test_regular, g, pair, p, 0.075)
        assert got == want
        w = got.witness
        seen.add((got.verdict, w is not None and w.pivot is not None))
    assert {("violated", True), ("violated", False), ("no-violation-found", False)} <= seen


@pytest.mark.parametrize(
    "g, p, epsilon, r, rounds",
    [
        (squared_cycle_blowup()[0], 0.45, 0.25, 9, 2),
        (graph.gnp(360, 0.6, 8), 0.6, 0.2, 6, 1),
        (graph.gnp(360, 0.6, 8), 0.6, 0.075, 6, 3),
    ],
    ids=["blowup", "gnp-eps0.2", "gnp-eps0.075"],
)
def test_partition_matches_reference(monkeypatch, g, p, epsilon, r, rounds):
    got, want = with_reference_counter(
        monkeypatch,
        reg.partition_heuristic,
        g,
        reference_p=p,
        epsilon=epsilon,
        mu=0.05,
        nu=0.05,
        r_min=r,
        r_max=r,
        seed=3,
        sample_count=60,
        refine_rounds=2,
    )
    assert got == want
    assert got.rounds_used == rounds


# -- greedy square path ---------------------------------------------------------


def assert_same_greedy(g, seed, depth):
    got = sw.greedy_square_path(g, seed, depth)
    assert got == reference_greedy_square_path(g, seed, depth)
    return got


def disjoint_union(*parts):
    edges, offset = [], 0
    for h in parts:
        edges += [(u + offset, v + offset) for u, v in h.edges()]
        offset += h.n
    return graph.from_edges(offset, edges)


SHAPES = [
    ("edgeless", lambda: graph.empty(6)),
    ("single-edge", lambda: graph.from_edges(5, [(1, 3)])),
    ("complete-12", lambda: graph.complete(12)),
    ("cycle-9", lambda: cycle_graph(9)),
    ("disconnected", lambda: disjoint_union(graph.complete(4), squared_cycle_graph(10), graph.empty(3))),
]


@pytest.mark.parametrize("make", [m for _, m in SHAPES], ids=[i for i, _ in SHAPES])
@pytest.mark.parametrize("depth", [1, 2])
def test_greedy_matches_reference_on_shapes(make, depth):
    g = make()
    for seed in range(8):
        assert_same_greedy(g, seed, depth)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 130])
@pytest.mark.parametrize("depth", [1, 2])
def test_greedy_matches_reference_across_padding(n, depth):
    for p in (0.3, 0.8):
        for seed in (0, 5):
            assert_same_greedy(graph.gnp(n, p, seed), seed, depth)


def test_greedy_matches_reference_at_scale():
    assert len(assert_same_greedy(graph.gnp(2000, 0.5, 4), 4, 1)) > 1900


def test_greedy_empty_graph_raises():
    with pytest.raises(ValueError):
        sw.greedy_square_path(graph.empty(0), 0)


@given(st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 10**6), st.sampled_from([1, 2]))
def test_greedy_matches_reference_property(n, p, seed, depth):
    assert_same_greedy(graph.gnp(n, p, seed), seed, depth)


@pytest.mark.parametrize(
    "g",
    [graph.complete(6), cycle_graph(9), graph.gnp(23, 0.4, 2), graph.gnp(70, 0.2, 3)],
    ids=["complete-6", "cycle-9", "gnp-23", "gnp-70"],
)
def test_kth_edge_matches_edge_list(g):
    edges = list(g.edges())
    assert [sw._kth_edge(g, k) for k in range(len(edges))] == edges
    with pytest.raises(IndexError):
        sw._kth_edge(g, len(edges))
