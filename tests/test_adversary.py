import math
import tracemalloc

import numpy as np
import pytest

from sqlab import adversary as adv
from sqlab import graph
from sqlab import squarewalk as sw
from oracles import oracle_common_neighbors, oracle_longest_square_path


def test_per_vertex_zero_budget():
    g = graph.complete(5)
    assert adv.per_vertex_deletion(g, 0.0, 1) == g


def test_per_vertex_full_budget_is_subgraph():
    g = graph.complete(5)
    h = adv.per_vertex_deletion(g, 1.0, 1)
    assert h.n == 5
    for u, v in h.edges():
        assert g.has_edge(u, v)


def test_per_vertex_budget_respected():
    g = graph.gnp(500, 0.2, seed=1)
    h = adv.per_vertex_deletion(g, 0.3, seed=2)
    for v in range(g.n):
        before, after = g.degree(v), h.degree(v)
        assert before - after <= int(0.3 * before)
    assert h.edge_count < g.edge_count


def test_gnp_and_deletion_hold_no_dense_matrix():
    """Both work on word rows (n^2/8 bytes) and edge ids: each traced peak,
    the deletion's above its input graph, stays below n^2/2 bytes, half of
    one dense n x n boolean matrix."""
    n = 8000
    tracemalloc.start()
    try:
        g = graph.gnp(n, 0.01, 3)
        _, gnp_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        h = adv.per_vertex_deletion(g, 0.1, 3)
        _, deletion_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < h.edge_count < g.edge_count
    assert gnp_peak < n * n / 2
    assert deletion_peak - before < n * n / 2


def test_per_vertex_rejects_bad_fraction():
    with pytest.raises(ValueError):
        adv.per_vertex_deletion(graph.complete(4), 1.2, 0)


def test_wipe_k4():
    g = graph.complete(4)
    h = adv.neighborhood_wipe(g, 0)
    assert h.edge_count == 3
    assert all(h.has_edge(0, w) for w in (1, 2, 3))
    for w in (1, 2, 3):
        assert oracle_common_neighbors(h, 0, w) == set()


def test_wipe_edgeless_noop():
    g = graph.empty(6)
    assert adv.neighborhood_wipe(g, 2) == g


def test_wipe_kills_square_cycles_through_vertex():
    g = graph.gnp(100, 0.3, seed=5)
    v = 17
    h = adv.neighborhood_wipe(g, v)
    # v is triangle-free, so the anchored exact search over the whole graph
    # must come up empty: no square cycle of any subgraph passes through v
    res = sw.has_square_cycle_through(h, v)
    assert res.status == "none"


@pytest.mark.parametrize("seed", range(4))
def test_wipe_and_blocker_delete_the_edges_inside(seed):
    """The wipe equals ``without_edges`` of the edges inside N(v), with v
    also given as a numpy integer, and the blocker that of the edges inside
    U."""
    for n, p in ((1, 0.5), (2, 1.0), (5, 0.7), (20, 0.3), (60, 0.5), (60, 1.0), (80, 0.0)):
        g = graph.gnp(n, p, seed)

        def inside(vs):
            return g.without_edges((u, w) for u, w in g.edges() if u in vs and w in vs)

        v = (7 * seed) % n
        want = inside(set(g.neighbors(v)))
        assert adv.neighborhood_wipe(g, v) == want
        assert adv.neighborhood_wipe(g, np.int64(v)) == want
        for c in (0.25, 0.5, 0.75):
            h, blocked = adv.independent_blocker(g, c, seed)
            assert h == inside(set(blocked))


def test_blocker_k9():
    g = graph.complete(9)
    h, blocked = adv.independent_blocker(g, 1.0 / 3.0, seed=4)
    assert len(blocked) == 6
    assert g.edge_count - h.edge_count == 15  # C(6,2)
    # blocked set is independent
    for i, u in enumerate(blocked):
        for v in blocked[i + 1 :]:
            assert not h.has_edge(u, v)
    # every blocked vertex keeps exactly n - |U| neighbours
    for u in blocked:
        assert h.degree(u) == 9 - 6
    # the longest square path is exactly 5 (oracle-checked): a square path on
    # m vertices holds >= floor(2m/3) outside vertices and only 3 exist
    res = sw.longest_square_path_exact(h)
    assert len(res.path) == 5 and res.optimal
    assert oracle_longest_square_path(h) == 5


def test_blocker_edgeless_noop():
    g = graph.empty(10)
    h, blocked = adv.independent_blocker(g, 0.4, seed=1)
    assert h == g and len(blocked) == 6


def test_blocker_rejects_bad_fraction():
    with pytest.raises(ValueError):
        adv.independent_blocker(graph.complete(4), 0.0, 0)


def test_blocker_path_intersection_invariant():
    g = graph.gnp(300, 0.12, seed=8)
    h, blocked = adv.independent_blocker(g, 0.5, seed=9)
    bset = set(blocked)
    for seed in range(5):
        p = sw.greedy_square_path(h, seed)
        assert sw.is_square_path(h, p.vertices)
        inside = sum(1 for v in p.vertices if v in bset)
        assert inside <= math.ceil(len(p) / 3)


@pytest.mark.parametrize("graph_seed,blocker_seed", [(0, 1), (1, 2), (2, 3), (3, 4), (41, 7)])
def test_blocker_caps_square_paths_exactly(graph_seed, blocker_seed):
    """Claim (3) on G(20, 0.7): the exact search proves the longest square
    path of the blocker graph, which meets the cap floor((3 (n - |U|) + 2) / 2)
    and holds at most ceil(len/3) vertices of U."""
    g = graph.gnp(20, 0.7, graph_seed)
    h, blocked = adv.independent_blocker(g, 0.5, blocker_seed)
    cap = (3 * (g.n - len(blocked)) + 2) // 2
    res = sw.longest_square_path_exact(h, node_budget=20_000)
    assert res.optimal
    assert len(res.path) <= cap
    assert len(set(res.path.vertices) & set(blocked)) <= math.ceil(len(res.path) / 3)
    # on these seeds the counting cap is attained
    assert len(res.path) == cap == 16


def test_tripartite_template():
    t2 = adv.tripartite_template(2)
    assert t2.n == 7 and t2.min_degree() == 4
    t1 = adv.tripartite_template(1)
    assert t1.n == 4 and t1.edge_count == 5  # K_{1,1,2}
    t3 = adv.tripartite_template(3)
    assert t3.n == 10 and t3.edge_count == 33
    with pytest.raises(ValueError):
        adv.tripartite_template(0)


def test_adversary_spec_validation():
    with pytest.raises(ValueError):
        adv.AdversarySpec(kind="nope")
    with pytest.raises(ValueError):
        adv.AdversarySpec(kind="per-vertex-fraction")  # missing r
    spec = adv.AdversarySpec.from_json({"kind": "per-vertex-fraction", "r": 0.2, "seed": 3})
    g = graph.complete(20)
    h, info = adv.apply_adversary(g, spec)
    assert info["edges_removed"] == g.edge_count - h.edge_count
    assert info["min_degree_before"] == 19
    with pytest.raises(ValueError):
        adv.AdversarySpec.from_json({"kind": "neighborhood-wipe", "bogus": 1})


def test_adversary_spec_takes_exactly_its_kinds_field():
    # the tripartite template builds a graph and deletes nothing: no spec
    kinds = ("per-vertex-fraction", "neighborhood-wipe", "independent-blocker")
    assert adv.ADVERSARY_KINDS == kinds
    with pytest.raises(ValueError, match="unknown adversary kind"):
        adv.AdversarySpec(kind="tripartite-template")
    # a wipe names its vertex: there is no default target
    with pytest.raises(ValueError, match="requires 'target'"):
        adv.AdversarySpec(kind="neighborhood-wipe")
    for kind, fields in (
        ("per-vertex-fraction", {"r": 0.2, "c": 0.9}),
        ("per-vertex-fraction", {"r": 0.2, "target": 3}),
        ("neighborhood-wipe", {"target": 1, "r": 0.1}),
        ("independent-blocker", {"c": 0.5, "target": 0}),
    ):
        with pytest.raises(ValueError, match="takes no"):
            adv.AdversarySpec(kind=kind, **fields)
    g = graph.complete(6)
    h, info = adv.apply_adversary(g, adv.AdversarySpec(kind="neighborhood-wipe", target=2))
    assert h == adv.neighborhood_wipe(g, 2) and info["target"] == 2
    h, info = adv.apply_adversary(g, adv.AdversarySpec(kind="independent-blocker", c=0.5, seed=3))
    want, blocked = adv.independent_blocker(g, 0.5, 3)
    assert h == want and info["blocked"] == list(blocked) and len(blocked) == 3
    assert info["edges_removed"] == 3 and info["min_degree_after"] == 3
