"""The matrix-backed gnp, per-vertex deletion, pair counter, greedy square
path and chain kernels against the bitset reference implementations in
``oracles``: outputs must be identical, down to edge counts, witnesses,
sample indices, path vertices, pruned pairs and path counts."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sqlab import adversary, graph
from sqlab import blowup as bl
from sqlab import regularity as reg
from sqlab import squarewalk as sw
from sqlab.bitops import pack_bool_matrix, unpack_packed_matrix
from oracles import (
    ReferenceGraphCounter,
    reference_check_gtilde_ii,
    reference_count_square_paths_between,
    reference_gnp,
    reference_greedy_square_path,
    reference_per_vertex_deletion,
    reference_prune_to_gtilde,
    reference_square_path_counts_from,
    reference_triangle_counts_of_pair,
)
from test_blowup import complete_chain
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


# -- chain kernels ----------------------------------------------------------------


def prune_schedule(chain):
    """None (the default schedule) up to k = 5; PruneSchedule.build underflows
    to a schedule that is not strictly decreasing past that, so longer chains
    get a hand-made geometric one."""
    if chain.k <= 5:
        return None
    delta = tuple(0.05 / 4**i for i in range(chain.k - 2))
    eps = tuple(d / 4 for d in delta)
    m = tuple(math.ceil((1 - e) * chain.n0**2 * chain.reference_p) for e in eps)
    return bl.PruneSchedule(0.1, 0.2, delta, eps, m)


def assert_same_prune(chain, epsilon, triangles=True):
    schedule = prune_schedule(chain)
    got = bl.prune_to_gtilde(chain, epsilon, schedule)
    want = reference_prune_to_gtilde(chain, epsilon, schedule)
    assert got.removed == want.removed
    assert got.removed_fraction == want.removed_fraction
    assert got.flagged == want.flagged
    assert got.threshold == want.threshold
    for key in want.chain.pair_indices():
        assert np.array_equal(got.chain.pair(*key), want.chain.pair(*key)), key
    # the first and the last pair that pruning processes
    for i in sorted({0, chain.k - 3}) if triangles else ():
        got_tri = bl.triangle_counts_of_pair(got.chain, i)
        assert list(got_tri.items()) == list(reference_triangle_counts_of_pair(want.chain, i).items())
    return got


# n0 = 9 and 700 are not multiples of 8 (packing padding)
@pytest.mark.parametrize("k", [3, 4, 5, 8])
@pytest.mark.parametrize("n0", [3, 7, 8, 9, 700])
@pytest.mark.parametrize("p0", [0.0, 0.05, 0.5, 1.0])
def test_prune_matches_reference(k, n0, p0):
    chain = bl.build_chain_random(k, n0, p0, seed=k * n0)
    pruned = assert_same_prune(chain, 0.2)
    assert_same_prune(pruned.chain, 0.2, triangles=False)  # the re-prune of a pruned chain


def test_prune_grid_removes_edges():
    # the grid above must exercise real removals, not only untouched chains
    res = bl.prune_to_gtilde(bl.build_chain_random(5, 700, 0.5, seed=5 * 700), 0.2)
    assert 0 < sum(res.removed.values())


@pytest.mark.parametrize("n0, rows", [(9, 2), (700, 64), (700, 1)])
def test_prune_matches_reference_across_row_blocks(monkeypatch, n0, rows):
    chain = bl.build_chain_random(5, n0, 0.5, seed=n0 + rows)
    monkeypatch.setattr(bl, "_BLOCK_ENTRIES", rows * n0 + n0 - 1)  # `rows` rows a block
    assert n0 % rows or rows == 1
    assert_same_prune(chain, 0.2)


def test_prune_matches_reference_at_block_size():
    # 1100^2 entries exceed _BLOCK_ENTRIES, so the real constant splits the rows
    assert 1100 * 1100 > bl._BLOCK_ENTRIES
    assert_same_prune(bl.build_chain_random(3, 1100, 0.5, seed=12), 0.2)


def test_prune_threshold_is_not_rounded_to_float32():
    # every edge (u, v) of pair (0, 1) closes exactly u triangles; tau sits
    # just above 4, where float32 would round it down to 4.0, so the edges
    # with 4 triangles must go
    epsilon, n0 = 0.2, 8
    p = math.sqrt(4 / 6.4)
    while (1 - epsilon) * n0 * p * p <= 4:
        p = math.nextafter(p, 1.0)
    assert np.float32((1 - epsilon) * n0 * p * p) == 4
    full = np.ones((n0, n0), dtype=bool)
    steps = np.arange(n0)[None, :] < np.arange(n0)[:, None]  # row u: u ones
    pairs = {(0, 1): full, (0, 2): steps, (1, 2): full}
    chain = bl.ChainPartition(
        [tuple(range(c * n0, (c + 1) * n0)) for c in range(3)],
        p,
        {key: pack_bool_matrix(m) for key, m in pairs.items()},
    )
    assert assert_same_prune(chain, epsilon).removed == {(0, 1): 5 * n0}


def end_edges(chain, i, limit, seed):
    """Up to `limit` seeded picks of pair (i, i+1) edges, in global ids."""
    local = chain.pair_edges_local(i, i + 1)
    rng = np.random.default_rng(seed)
    picks = sorted(rng.choice(len(local), size=min(limit, len(local)), replace=False))
    return [(chain.to_global(i, local[j][0]), chain.to_global(i + 1, local[j][1])) for j in picks]


@pytest.mark.parametrize("k", [3, 4, 5, 8])
@pytest.mark.parametrize("n0", [3, 7, 8, 9])
@pytest.mark.parametrize("p0", [0.05, 0.5, 1.0])
def test_counts_match_reference(k, n0, p0):
    chain = bl.build_chain_random(k, n0, p0, seed=k + n0)
    targets = end_edges(chain, k - 2, 12, seed=1)
    for e1 in end_edges(chain, 0, 3, seed=0):
        forward = bl.square_path_counts_from(chain, e1)
        assert forward == reference_square_path_counts_from(chain, e1)
        for e2 in targets:
            got = bl.count_square_paths_between(chain, e1, e2)
            assert got == reference_count_square_paths_between(chain, e1, e2)
            assert got == forward.get(e2, 0)


def test_counts_grid_reaches_zero_and_nonzero():
    chain = bl.build_chain_random(5, 9, 0.5, seed=14)
    e1 = end_edges(chain, 0, 1, seed=0)[0]
    counts = [bl.count_square_paths_between(chain, e1, e2) for e2 in end_edges(chain, 3, 12, seed=1)]
    assert 0 in counts and max(counts) > 1


# k = 26 passes int64 in the forward counter and in the stitch; k = 50 also
# in both halves of the meet-in-the-middle counter
@pytest.mark.parametrize("k", [26, 50])
def test_counts_exact_past_int64(k):
    chain = complete_chain(k, 8)
    e1 = (chain.to_global(0, 0), chain.to_global(1, 1))
    e2 = (chain.to_global(k - 2, 2), chain.to_global(k - 1, 3))
    want = 8 ** (k - 4)  # one free vertex in each of the k - 4 inner classes
    assert want > 2**63
    forward = bl.square_path_counts_from(chain, e1)
    assert forward[e2] == want and type(forward[e2]) is int
    assert bl.count_square_paths_between(chain, e1, e2) == want
    assert reference_count_square_paths_between(chain, e1, e2) == want
    assert forward == reference_square_path_counts_from(chain, e1)


def test_counts_on_two_class_chain():
    m = np.zeros((4, 4), dtype=bool)
    m[0, 1] = m[2, 3] = m[3, 3] = True
    chain = bl.ChainPartition([(0, 1, 2, 3), (4, 5, 6, 7)], 0.2, {(0, 1): pack_bool_matrix(m)})
    e, other = (0, 5), (2, 7)
    assert bl.square_path_counts_from(chain, e) == {e: 1}
    assert bl.count_square_paths_between(chain, e, e) == 1
    assert bl.count_square_paths_between(chain, (5, 0), e) == 1
    assert bl.count_square_paths_between(chain, e, other) == 0
    with pytest.raises(ValueError):
        bl.count_square_paths_between(chain, e, (0, 4))  # not an edge


@pytest.mark.parametrize("k", [3, 4, 5, 8])
@pytest.mark.parametrize("n0", [3, 7, 8, 9, 40])
@pytest.mark.parametrize("p0", [0.0, 0.05, 0.5, 1.0])
@pytest.mark.parametrize("epsilon", [0.2, 0.6, 1.0])
def test_check_ii_matches_reference(k, n0, p0, epsilon):
    chain = bl.build_chain_random(k, n0, p0, seed=3 * k + n0)
    for p in {p0, 0.5}:
        got = bl.check_gtilde_ii(chain, epsilon, p, sample_count=10, seed=n0)
        assert got == reference_check_gtilde_ii(chain, epsilon, p, sample_count=10, seed=n0)


def test_check_ii_matches_reference_at_scale():
    chain = bl.build_chain_random(3, 700, 0.6, seed=7)
    got = bl.check_gtilde_ii(chain, 0.1, 0.6, sample_count=10, seed=1)
    assert got == reference_check_gtilde_ii(chain, 0.1, 0.6, sample_count=10, seed=1)


def hollow_chain():
    """complete_chain(4, 8) where middle vertex 5 of class 1 is isolated and
    middle vertex 2 of class 2 has no class-3 neighbours."""
    chain = complete_chain(4, 8)
    dense = {key: unpack_packed_matrix(chain.pair(*key), 8) for key in chain.pair_indices()}
    dense[(0, 1)][:, 5] = False
    dense[(1, 2)][5, :] = False
    dense[(1, 3)][5, :] = False
    dense[(2, 3)][2, :] = False
    return bl.ChainPartition(chain.classes, 1.0, {key: pack_bool_matrix(m) for key, m in dense.items()})


@pytest.mark.parametrize("reference_p", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("epsilon", [0.2, 1.0, 1.5])
def test_check_ii_matches_reference_on_empty_neighbourhoods(reference_p, epsilon):
    chain = hollow_chain()
    got = bl.check_gtilde_ii(chain, epsilon, reference_p, sample_count=10, seed=2)
    assert got == reference_check_gtilde_ii(chain, epsilon, reference_p, sample_count=10, seed=2)


def test_empty_neighbourhood_is_a_violation():
    # at epsilon >= 1 an empty neighbourhood passes the size window and the
    # empty flank slice reaches the verdict, which flags it when p > 0
    chain = hollow_chain()
    assert bl.check_gtilde_ii(chain, 1.0, 1.0, sample_count=10, seed=2) == {1: 1, 2: 1}
    assert reg.lower_regular_verdict(np.zeros((0, 3), dtype=bool), 0.5, 0.2, 10, None) == "violated"
    assert reg.lower_regular_verdict(np.zeros((3, 0), dtype=bool), 0.0, 0.2, 10, None) == (
        "no-violation-found"
    )
