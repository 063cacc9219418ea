"""The word-row gnp and per-vertex deletion, the pair counter, greedy square
path, chain kernels and embedder windows against the bitset and chain-view
reference implementations in ``oracles``: outputs must be identical, down to
edge counts, witnesses, sample indices, path vertices, pruned pairs, path
counts, expansion fractions and rng draws.  The exact longest square path
search, which prunes with a second bound, is held to the same paths and
verdicts in no more nodes.  ``test_regular``, ``lower_regular_verdict``
and ``partition_heuristic`` are held, subset by subset, to the sampling loop
run one pair at a time on Python-int rows.  The six searches ported onto
``squarewalk.search_square_paths`` are held to their hand-rolled loops:
the same results in the same node counts, and the embedder's window and
join searches call by call inside whole pipeline runs."""

import copy
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sqlab import adversary, embedder, graph
from sqlab import blowup as bl
from sqlab import regularity as reg
from sqlab import squarewalk as sw
from sqlab.bitops import bits, mask_of, pack_bool_matrix, unpack_packed_matrix
from sqlab.util import rng_from
from oracles import (
    ReferenceGraphCounter,
    ReferenceStateView,
    bipartite_classes,
    matrix_counter,
    reference_check_gtilde_ii,
    reference_classify,
    reference_count_square_paths_between,
    reference_dfs_to_targets,
    reference_expansion_fractions,
    reference_gnp,
    reference_greedy_square_path,
    reference_has_square_cycle_through,
    reference_has_square_hamilton_cycle,
    reference_longest_square_path_exact,
    reference_longest_square_path_pruned,
    reference_lower_regular_verdict,
    reference_per_vertex_deletion,
    reference_pick_start_edge,
    reference_prune_to_gtilde,
    reference_sampled_test,
    reference_square_path_counts_from,
    reference_test_regular,
    reference_triangle_counts_of_pair,
    reference_window,
)
from test_blowup import complete_chain
from test_embedder import run_pipeline
from test_regularity import squared_cycle_blowup, whole, whole_verdict
from test_squarewalk import cycle_graph, squared_cycle_graph


def assert_same_graph(got, want):
    assert got == want
    assert got.edge_count == want.edge_count
    got.validate()


def row_blocks(monkeypatch):
    """Run the loop body once with the default row blocks of ``gnp`` and
    ``per_vertex_deletion`` and once with 64-row blocks, which split n = 131
    and 150 into several blocks, mirrored off-diagonal blocks and a partial
    last block."""
    for nbytes in (None, 64):
        with monkeypatch.context() as mp:
            if nbytes is not None:
                mp.setattr(graph, "_BLOCK_BYTES", nbytes)
                mp.setattr(adversary, "_BLOCK_BYTES", nbytes)
            yield


@pytest.mark.parametrize("n", [0, 1, 2, 3, 9, 64, 131])
@pytest.mark.parametrize("p", [0.0, 0.05, 0.5, 0.93, 1.0])
def test_gnp_matches_reference(monkeypatch, n, p):
    for _ in row_blocks(monkeypatch):
        for seed in (0, 11):
            assert_same_graph(graph.gnp(n, p, seed), reference_gnp(n, p, seed))


@pytest.mark.parametrize("n", [0, 1, 2, 5, 40, 150])
@pytest.mark.parametrize("p", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("r", [0.0, 0.1, 0.37, 1.0])
def test_per_vertex_deletion_matches_reference(monkeypatch, n, p, r):
    for _ in row_blocks(monkeypatch):
        g = graph.gnp(n, p, seed=n)
        for seed in (0, 3):
            assert_same_graph(
                adversary.per_vertex_deletion(g, r, seed),
                reference_per_vertex_deletion(g, r, seed),
            )


@pytest.mark.parametrize("chunk", [1, 7])
def test_per_vertex_deletion_matches_reference_across_chunks(monkeypatch, chunk):
    monkeypatch.setattr(adversary, "_CHUNK_EDGES", chunk)
    for _ in row_blocks(monkeypatch):
        for n, p, r in [(5, 1.0, 1.0), (40, 0.6, 0.37), (150, 0.6, 0.1)]:
            g = graph.gnp(n, p, seed=n)
            for seed in (0, 3):
                assert_same_graph(
                    adversary.per_vertex_deletion(g, r, seed),
                    reference_per_vertex_deletion(g, r, seed),
                )


def with_reference_counter(monkeypatch, fn, *args, **kwargs):
    """(fn with the word-row counter and array sampling loop, fn with the
    bitset reference counter and the loop run one pair at a time)."""
    got = fn(*args, **kwargs)
    with monkeypatch.context() as mp:
        mp.setattr(reg, "_GraphCounter", ReferenceGraphCounter)
        mp.setattr(reg, "_sampled_test", reference_sampled_test)
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


# the ids name test_regular, the one report route held to the reference
@pytest.mark.parametrize(
    "make", [m for _, m in PAIRS], ids=[f"test_regular-{i}" for i, _ in PAIRS]
)
@pytest.mark.parametrize("epsilon", [0.075, 0.2])
def test_reports_match_reference(make, epsilon):
    g, pair = make()
    p = float(reg.density(g, pair.left, pair.right)) or 0.5
    for seed in (0, 9):
        got = reg.test_regular(g, pair, p, epsilon, 200, seed)
        want = reference_test_regular(g, pair, p, epsilon, 200, seed)
        assert got == want
        assert got.to_json_dict() == want.to_json_dict()


def test_reports_match_reference_find_witnesses():
    # the grid above must exercise both verdicts and pivot witnesses
    seen = set()
    for _, make in PAIRS:
        g, pair = make()
        p = float(reg.density(g, pair.left, pair.right)) or 0.5
        got = reg.test_regular(g, pair, p, 0.075)
        assert got == reference_test_regular(g, pair, p, 0.075)
        w = got.witness
        seen.add((got.verdict, w is not None and w.pivot is not None))
    assert {("violated", True), ("violated", False), ("no-violation-found", False)} <= seen


@st.composite
def pair_matrices(draw):
    """A seeded |L| x |R| boolean matrix, sides up to 60, density 0.1-0.9,
    optionally with a planted complete block in one corner."""
    nl, nr = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = gen.random((nl, nr)) < draw(st.floats(0.1, 0.9))
    if draw(st.booleans()):
        m[: (nl + 1) // 2, : (nr + 1) // 2] = True
    return m


SINGLE_PAIR = dict(
    m=pair_matrices(),
    reference_p=st.floats(0.1, 0.9),
    epsilon=st.sampled_from([0.075, 0.2, 0.5]),
    sample_count=st.integers(1, 120),
    seed=st.integers(0, 10**6),
)


@given(**SINGLE_PAIR)
def test_test_regular_matches_single_pair_reference(m, reference_p, epsilon, sample_count, seed):
    nl, nr = m.shape
    perm = [int(v) for v in np.random.default_rng(seed).permutation(nl + nr)]
    g = graph.from_edges(nl + nr, [(perm[u], perm[nl + w]) for u, w in zip(*np.nonzero(m))])
    pair = reg.BipartitePairView(g, tuple(perm[:nl]), tuple(perm[nl:]))
    got = reg.test_regular(g, pair, reference_p, epsilon, sample_count, seed)
    want = reference_test_regular(g, pair, reference_p, epsilon, sample_count, seed)
    assert got == want
    assert got.to_json_dict() == want.to_json_dict()


@given(**SINGLE_PAIR)
def test_lower_regular_verdict_matches_single_pair_reference(
    m, reference_p, epsilon, sample_count, seed
):
    nl, nr = m.shape
    got_rng, want_rng = rng_from(seed), rng_from(seed)
    got = reg.lower_regular_verdict(m, whole(m), reference_p, epsilon, sample_count, got_rng)
    want = reference_lower_regular_verdict(
        m, whole(m), reference_p, epsilon, sample_count, want_rng
    )
    assert got == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class LoggingPairCounter:
    """Both counter interfaces over classes of one dense matrix, the array
    one through ``regularity._MatrixCounter`` for the one pair of its full
    ranges (the default) and else through ``regularity._GraphCounter`` on
    its bipartite graph; logs the subsets of every sample it counts, sorted
    and without the padding past a class's size, so that two sampling loops
    can be compared draw by draw."""

    def __init__(self, m, classes=None):
        if classes is None:
            self.matrix, classes = reg._MatrixCounter(m), whole(m)[0]
        else:
            self.matrix = reg._GraphCounter(*bipartite_classes(m, classes))
        self.scalar = matrix_counter(m, classes)
        self.sizes = [len(c) for c in classes]
        self.log = []

    def neighbourhoods(self, pivot, pc, oc):
        return self.matrix.neighbourhoods(pivot, pc, oc)

    def counts(self, a, b, left, right):
        for x, y, li, ri in zip(a, b, left, right):
            li, ri = li[li < self.sizes[x]], ri[ri < self.sizes[y]]
            self.log.append((sorted(li.tolist()), sorted(ri.tolist())))
        return self.matrix.counts(a, b, left, right)

    def adjacent(self, c, i, o, j):
        return self.scalar.adjacent(c, i, o, j)

    def count(self, a, li, b, ri):
        self.log.append((sorted(li), sorted(ri)))
        return self.scalar.count(a, li, b, ri)


@given(
    m=pair_matrices(),
    scale=st.floats(0.5, 2.0),
    epsilon=st.sampled_from([0.075, 0.2, 0.5]),
    sample_count=st.integers(1, 120),
    seed=st.integers(0, 10**6),
    one_sided=st.booleans(),
)
def test_sampled_test_draws_match_single_pair_reference(
    m, scale, epsilon, sample_count, seed, one_sided
):
    # the reference density sits near the pair's own, so that runs stop at
    # any sample index; every sample's subsets must agree, not only the verdict
    d = np.count_nonzero(m) / m.size
    reference_p = scale * d or 0.5
    got_counter, want_counter = LoggingPairCounter(m), LoggingPairCounter(m)
    got_rng, want_rng = rng_from(seed), rng_from(seed)
    args = (m.shape, [(0, 1)], [d], reference_p, epsilon, sample_count)
    got = reg._sampled_test(got_counter, *args, got_rng, one_sided)
    want = reference_sampled_test(want_counter, *args, want_rng, one_sided)
    assert got_counter.log == want_counter.log
    assert_same_results(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def assert_same_results(got, want):
    """``_sampled_test`` results against the reference's: the same samples
    run and the same hits, subsets compared as sets."""
    assert len(got) == len(want)
    for (g, got_samples), (w, want_samples) in zip(got, want):
        assert got_samples == want_samples
        assert (g is None) == (w is None)
        if g is not None:
            li, ri, observed, pivot, idx = g
            assert (sorted(li.tolist()), sorted(ri.tolist()), observed, pivot, idx) == (
                sorted(w[0]), sorted(w[1]), *w[2:]
            )


@st.composite
def matrix_classes(draw):
    """A pair matrix, 3-8 classes of unequal sizes read from it (even ones
    of row ids, odd ones of column ids, in random order) and a nonempty list
    of distinct (even, odd) pairs of them, which may share classes."""
    m = draw(pair_matrices())
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    classes = []
    for c in range(draw(st.integers(3, 8))):
        n = m.shape[c % 2]
        classes.append(gen.permutation(n)[: draw(st.integers(1, n))])
    options = [(x, y) for x in range(0, len(classes), 2) for y in range(1, len(classes), 2)]
    pairs = draw(st.lists(st.sampled_from(options), min_size=1, unique=True))
    return m, classes, pairs


@given(
    case=matrix_classes(),
    scale=st.floats(0.5, 2.0),
    epsilon=st.sampled_from([0.075, 0.2, 0.5]),
    sample_count=st.integers(1, 60),
    seed=st.integers(0, 10**6),
    one_sided=st.booleans(),
)
def test_sampled_test_draws_match_reference_on_unequal_classes(
    case, scale, epsilon, sample_count, seed, one_sided
):
    # each class takes subsets of its own size, ceil(eps * size); pairs that
    # share a class share its keys and pivot, and every pair stops on its own
    m, classes, pairs = case
    dens = [m[np.ix_(classes[x], classes[y])].mean() for x, y in pairs]
    reference_p = scale * float(np.mean(dens)) or 0.5
    got_counter, want_counter = LoggingPairCounter(m, classes), LoggingPairCounter(m, classes)
    got_rng, want_rng = rng_from(seed), rng_from(seed)
    args = ([len(c) for c in classes], pairs, dens, reference_p, epsilon, sample_count)
    got = reg._sampled_test(got_counter, *args, got_rng, one_sided)
    want = reference_sampled_test(want_counter, *args, want_rng, one_sided)
    assert got_counter.log == want_counter.log
    assert_same_results(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize(
    "g, p, epsilon, r, rounds",
    [
        (squared_cycle_blowup()[0], 0.45, 0.25, 9, 2),
        (graph.gnp(360, 0.6, 8), 0.6, 0.2, 6, 1),
        (graph.gnp(360, 0.6, 8), 0.6, 0.075, 6, 3),
        (graph.gnp(120, 0.6, 4), 0.6, 0.1, 2, 2),
        (graph.empty(60), 0.5, 0.3, 6, 1),
        (graph.gnp(128, 0.6, 5), 0.6, 0.2, 5, 3),
    ],
    ids=["blowup", "gnp-eps0.2", "gnp-eps0.075", "one-dense-pair", "no-dense-pair", "gnp-128"],
)
@pytest.mark.filterwarnings("ignore:minimum degree:UserWarning")
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


@pytest.mark.parametrize("shape", [(60, 90), (90, 60)])
@pytest.mark.parametrize("epsilon", [0.075, 0.2])
def test_lower_regular_verdict_on_unequal_sides_matches_reference(shape, epsilon):
    # the shorter side's key row is padded past its size; both orientations,
    # on a random pair and on one with a planted empty corner, which always
    # flags
    gen = np.random.default_rng(11)
    for hole in (False, True):
        m = gen.random(shape) < 0.6
        if hole:
            m[: shape[0] // 2, : shape[1] // 2] = False
        verdicts = set()
        for seed in range(6):
            got_rng, want_rng = rng_from(seed), rng_from(seed)
            [got] = reg.lower_regular_verdict(m, whole(m), 0.6, epsilon, 60, got_rng)
            want = reference_lower_regular_verdict(m, whole(m), 0.6, epsilon, 60, want_rng)
            assert [got] == want
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            verdicts.add(got)
        if hole:
            assert verdicts == {"violated"}


@pytest.mark.parametrize("side", [32, 64])
def test_lower_regular_verdict_at_the_word_boundary_matches_reference(side):
    # the matrix's bipartite graph has 64 or 128 vertices, so the counter's
    # padding id n sits in a spare word; sub-pairs of unequal sizes read it,
    # and at reference_p 0.5 some of them flag
    gen = np.random.default_rng(side)
    m = gen.random((side, side)) < 0.6
    sub_pairs = whole(m) + [
        (gen.permutation(side)[: side - d], gen.permutation(side)[: side // d]) for d in (2, 3, 5)
    ]
    verdicts = set()
    for seed in range(4):
        got_rng, want_rng = rng_from(seed), rng_from(seed)
        got = reg.lower_regular_verdict(m, sub_pairs, 0.5, 0.2, 60, got_rng)
        want = reference_lower_regular_verdict(m, sub_pairs, 0.5, 0.2, 60, want_rng)
        assert got == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        verdicts.update(got)
    assert verdicts == {"violated", "no-violation-found"}


# -- greedy square path ---------------------------------------------------------


def assert_same_greedy(g, seed):
    got = sw.greedy_square_path(g, seed)
    assert got == reference_greedy_square_path(g, seed)
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
def test_greedy_matches_reference_on_shapes(make):
    g = make()
    for seed in range(8):
        assert_same_greedy(g, seed)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 130])
def test_greedy_matches_reference_across_padding(n):
    for p in (0.3, 0.8):
        for seed in (0, 5):
            assert_same_greedy(graph.gnp(n, p, seed), seed)


def test_greedy_matches_reference_at_scale():
    assert len(assert_same_greedy(graph.gnp(2000, 0.5, 4), 4)) > 1900


def test_greedy_empty_graph_raises():
    with pytest.raises(ValueError):
        sw.greedy_square_path(graph.empty(0), 0)


# n up to 140 crosses the 64-bit word boundaries of the greedy's rows twice.
# An edgeless graph returns [0] without a step and is a case of the padding
# test above.  n and p are sampled from ranges, since st.integers and
# st.floats draw their bounds, and st.floats drew p = 0 for about a quarter
# of the examples
@settings(max_examples=25)
@given(st.sampled_from(range(2, 141)), st.sampled_from(range(1, 21)), st.integers(0, 10**6))
def test_greedy_matches_reference_property(n, p20, seed):
    g = graph.gnp(n, p20 / 20, seed)
    assume(g.edge_count)  # every example takes a step on the word rows
    assert_same_greedy(g, seed)


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


# -- exact longest square path ---------------------------------------------------


def assert_same_exact_path(g, node_budget=None, same_nodes=False):
    """Same path and verdict as the reach-bound-only search; never more nodes."""
    got = sw.longest_square_path_exact(g, node_budget)
    want = reference_longest_square_path_exact(g, node_budget)
    assert got.path == want.path
    assert got.optimal == want.optimal
    if same_nodes:
        assert got.nodes == want.nodes
    else:
        assert got.nodes <= want.nodes
    return got


@pytest.mark.parametrize("n", range(1, 14))
@pytest.mark.parametrize("p", [0.3, 0.5, 0.7, 0.9])
def test_exact_path_matches_reference(n, p):
    # the reference alone takes up to 8 s on a blocker of G(13, 0.9), so
    # n = 12 and 13 run one seed
    for seed in range(3 if n <= 11 else 1):
        g = graph.gnp(n, p, 100 * n + seed)
        assert_same_exact_path(g)
        blocked, _ = adversary.independent_blocker(g, 0.5, seed)
        assert_same_exact_path(blocked)


@pytest.mark.parametrize("n", range(1, 11))
def test_exact_path_matches_reference_on_shapes(n):
    assert len(assert_same_exact_path(graph.complete(n)).path) == n
    assert len(assert_same_exact_path(graph.empty(n)).path) == 1
    if n >= 3:
        assert len(assert_same_exact_path(cycle_graph(n)).path) == (3 if n == 3 else 2)


@pytest.mark.parametrize("n", range(3, 10))
def test_exact_path_budgeted_matches_reference_on_complete(n):
    # I is one vertex, so the independent-set bound never cuts and a budget
    # stops both searches at the same node
    g = graph.complete(n)
    assert sw._greedy_independent_set(g) == 1
    for budget in range(n + 1):
        assert_same_exact_path(g, budget, same_nodes=True)


@given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 10**6))
def test_exact_path_matches_reference_property(n, p, seed):
    assert_same_exact_path(graph.gnp(n, p, seed))


# -- the searches on search_square_paths -------------------------------------------


def cycle_outcome(res):
    return res.status, res.cycle and res.cycle.vertices, res.nodes


PORTED_SEARCHES = [
    (
        sw.longest_square_path_exact,
        reference_longest_square_path_pruned,
        lambda res: (res.path.vertices, res.optimal, res.nodes),
    ),
    (sw.has_square_hamilton_cycle, reference_has_square_hamilton_cycle, cycle_outcome),
    (
        lambda g, budget: sw.has_square_cycle_through(g, g.n // 2, budget),
        lambda g, budget: reference_has_square_cycle_through(g, g.n // 2, 5, budget),
        cycle_outcome,
    ),
]


@pytest.mark.parametrize("n", range(5, 12))
def test_ported_searches_match_hand_rolled_loops(n):
    statuses = set()
    for p in (0.3, 0.5, 0.7, 0.9):
        for seed in range(2):
            g = graph.gnp(n, p, 1000 * n + seed)
            blocked, _ = adversary.independent_blocker(g, 0.5, seed)
            for h in (g, blocked):
                for budget in (None, 0, 1, 7, 60, 500):
                    for search, reference, outcome in PORTED_SEARCHES:
                        got = outcome(search(h, budget))
                        assert got == outcome(reference(h, budget))
                        statuses.add(got[0])
    assert {"found", "none", "unknown"} <= statuses


def copy_state(st):
    """A deep copy of an embed state that shares its read-only adjacency rows
    and matrix."""
    shared = (st.adj, st.a)
    return copy.deepcopy(st, {id(x): x for x in shared})


def test_embedder_searches_match_hand_rolled_loops(monkeypatch):
    """Each extension search of six embeds is run against the hand-rolled
    window search on a deep copy of the embed state: a window with its good
    target edges, a join across two or more classes with the seam's target
    edges.  A join across fewer classes is checked against ``_closes``."""
    calls = {"window": 0, "join": 0, "short join": 0}
    exhausted, advancing = [], []
    search, advance, extend = (
        embedder.search_square_paths, embedder._advance_window, embedder._extend,
    )

    def recording_search(roots, expand, budget):
        nodes, out = search(roots, expand, budget)
        exhausted.append(out)
        return nodes, out

    def flagged_advance(*args):
        advancing.append(True)
        try:
            return advance(*args)
        finally:
            advancing.pop()

    def checked_extend(st, depth, targets, budget):
        got = extend(st, depth, targets, budget)
        adj, path, start = st.adj, st.path, len(st.path)
        u, v = path[-2:]
        if advancing:
            kind, pairs = "window", [(a, b) for a, m in targets.items() for b in bits(m)]
        elif depth >= 2:
            # the seam, read off the start edge: y sees x1, and z sees x1 and
            # x2; only pairs in the pools the end pair is drawn from can matter
            heads = adj[path[0]] & st.available_mask(start + depth - 2)
            tails = adj[path[0]] & adj[path[1]] & st.available_mask(start + depth - 1)
            kind, pairs = "join", [(a, b) for a in bits(heads) for b in bits(tails)]
        else:
            kind, pairs = "short join", None
        if pairs is not None:
            want = reference_dfs_to_targets(copy_state(st), u, v, start - 2, depth + 2, pairs, budget)
        elif depth == 0:
            want = [] if sw._closes(adj, path, u, v) else None
        else:
            # the largest closing vertex pops first
            ends = [w for w in bits(adj[u] & adj[v] & st.available_mask(start))
                    if sw._closes(adj, path, v, w)]
            want = ends[-1:] or None
        assert got == want
        calls[kind] += 1
        return got

    monkeypatch.setattr(embedder, "search_square_paths", recording_search)
    monkeypatch.setattr(embedder, "_advance_window", flagged_advance)
    monkeypatch.setattr(embedder, "_extend", checked_extend)
    for seed in (1, 3):
        # window_node_budget 4000, the default; the partition does not read it
        h, pr, cyc, tr = run_pipeline(600, 0.7, seed)
        params = embedder.PipelineParams(epsilon=0.2, nu=0.3)
        for budget in (3, 4):
            with monkeypatch.context() as mp:
                mp.setattr(embedder.PipelineParams, "window_node_budget", budget)
                embedder.embed_square_cycle(h, pr.partition, cyc, params, seed)
    assert all(calls.values())
    assert any(exhausted) and not all(exhausted)


# -- chain kernels ----------------------------------------------------------------


def assert_same_prune(chain, epsilon, triangles=True):
    got = bl.prune_to_gtilde(chain, epsilon)
    want = reference_prune_to_gtilde(chain, epsilon)
    assert got.removed == want.removed
    assert got.threshold == want.threshold
    for key in want.chain.pair_indices():
        assert np.array_equal(got.chain.pair(*key), want.chain.pair(*key)), key
    # the GEMM triangle counts of the first and the last pair that pruning
    # processes, on every surviving edge
    for i in sorted({0, chain.k - 3}) if triangles else ():
        tri = np.vstack([block for _, block in bl._triangle_blocks(got.chain, i)])
        want_tri = reference_triangle_counts_of_pair(want.chain, i)
        assert {e: int(tri[e]) for e in want_tri} == want_tri
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
    assert whole_verdict(np.zeros((0, 3), dtype=bool), 0.5, 0.2, 10, None) == "violated"
    assert whole_verdict(np.zeros((3, 0), dtype=bool), 0.0, 0.2, 10, None) == (
        "no-violation-found"
    )


# -- embedder windows ---------------------------------------------------------------


def embed_state(n, p, r, reserve, seed, closing=False):
    """G(n, p) and an embedder state over r seeded classes of it whose pools
    have lost a seeded, class-dependent number of vertices, so their sizes
    differ."""
    g = graph.gnp(n, p, seed)
    gen = np.random.default_rng(seed)
    order = [int(v) for v in gen.permutation(n)]
    size = n // r
    classes = [tuple(order[i * size : (i + 1) * size]) for i in range(r)]
    state = embedder._EmbedState(g, classes, reserve, rng_from(seed))
    for c in range(r):
        pool = list(bits(state.unused[c] & ~state.reserved[c]))
        drop = gen.choice(len(pool), size=int(gen.integers(0, len(pool) // 2)), replace=False)
        state.unused[c] &= ~mask_of(pool[int(i)] for i in drop)
    state.closing = closing
    return g, state


def assert_same_chain(got, view):
    """A window's ChainPartition and the chain view of the same classes
    agree on every pair, each (n0, ceil(n0 / 64)) uint64 word rows with
    clear padding bits, and on the mean pair density."""
    n0, k = view.n0, view.k
    assert got.classes == view.classes and got.reference_p == view.reference_p
    assert got.pair_indices() == view.pair_indices() == sorted(
        (i, j) for i in range(k) for j in (i + 1, i + 2) if j < k
    )
    for key in view.pair_indices():
        block = got.pair(*key)
        assert block.dtype == np.dtype("<u8") and block.shape == (n0, -(-n0 // 64))
        assert not unpack_packed_matrix(block, 64 * block.shape[1])[:, n0:].any()
        assert np.array_equal(block, view.pair(*key))


WINDOW_STATES = [
    ("dense", lambda closing: embed_state(240, 0.6, 12, 2, 1, closing)),
    ("sparse", lambda closing: embed_state(240, 0.35, 12, 2, 2, closing)),
    ("small-pools", lambda closing: embed_state(96, 0.7, 12, 1, 3, closing)),
]


@pytest.mark.parametrize("make", [m for _, m in WINDOW_STATES], ids=[i for i, _ in WINDOW_STATES])
@pytest.mark.parametrize("closing", [False, True], ids=["growing", "closing"])
def test_window_route_matches_chain_view(make, closing):
    g, state = make(closing)
    sizes = [state.available_mask(c).bit_count() for c in range(state.r)]
    assert len(set(sizes)) > 1  # the subsampling rng.choice runs
    for start in (0, 5, 9):
        for t in (5, 7, 10):
            seed = 100 * start + t
            rng, ref_rng = rng_from(seed), rng_from(seed)
            cols = embedder._window(state, start, t, rng)
            ref = reference_window(ReferenceStateView(state, g), start, t, ref_rng)
            assert (cols is None) == (ref is None)
            if cols is not None:
                win = bl.ChainPartition.from_matrix(state.a, cols)
                assert_same_chain(win, ref)
                pairs = ref.pair_edges_local(0, 1)
                assert win.expansion_fractions(pairs) == reference_expansion_fractions(ref, pairs)
                got = embedder._classify(win, 0.51, 16, rng)
                assert got == reference_classify(ref, 0.51, 16, ref_rng)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("limit", [16, 4096], ids=["sampled", "in-full"])
def test_advance_window_draws_as_the_chain_view_route(monkeypatch, limit):
    # two advances from one seed build the same window, and each draws from
    # rng what a build and classification of the chain-view route draws and
    # calls the kernel, whether its first pair is sampled or classified in full
    monkeypatch.setattr(embedder.PipelineParams, "good_sample_limit", limit)
    params = embedder.PipelineParams(epsilon=0.2, nu=0.3)
    g, state = embed_state(240, 0.6, 12, 2, 1)
    for pos in (0, 1):
        state.consume(min(bits(state.available_mask(pos))))
    t = params.k0
    # the pools differ in size, so _window draws
    assert len({state.available_mask(c).bit_count() for c in range(t - 2, 2 * t - 2)}) > 1
    calls = []
    kernel = bl.ChainPartition.expansion_fractions

    def counted_kernel(self, sources):
        calls.append(len(sources))
        return kernel(self, sources)

    monkeypatch.setattr(bl.ChainPartition, "expansion_fractions", counted_kernel)
    monkeypatch.setattr(embedder, "_extend", lambda *args: None)
    for _ in range(2):
        rng, ref_rng = rng_from(5), rng_from(5)
        assert embedder._advance_window(state, t, params, rng, 0) is None
        ref = reference_window(ReferenceStateView(state, g), t - 2, t, ref_rng)
        want = reference_classify(ref, params.good_threshold, limit, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert (ref.pair_edge_count(0, 1) > limit) == (limit == 16)
    assert calls == [want.sampled, want.sampled]


def test_window_route_reaches_dead_frontiers_and_subsamples():
    # the grid above must see frontiers that die, frontiers that survive, and
    # first pairs larger than the classification sample
    _, state = embed_state(240, 0.35, 12, 2, 2)
    win = bl.ChainPartition.from_matrix(state.a, embedder._window(state, 0, 10, rng_from(10)))
    pairs = win.pair_edges_local(0, 1)
    fractions = win.expansion_fractions(pairs)
    assert 0.0 in fractions and max(fractions) > 0
    assert len(pairs) > 16


@pytest.mark.parametrize("k", [2, 3, 5, 10])
@pytest.mark.parametrize("n0", [3, 9])
@pytest.mark.parametrize("p", [0.15, 0.6, 1.0])
def test_layers_from_matrix_match_chain_view(k, n0, p):
    g = graph.gnp(k * n0 + 4, p, seed=k + n0)
    order = [int(v) for v in np.random.default_rng(k * n0).permutation(g.n)]
    classes = [tuple(order[i * n0 : (i + 1) * n0]) for i in range(k)]
    layers = bl.ChainPartition.from_matrix(graph.to_matrix(g), classes)
    view = bl.chain_view(g, classes)
    assert_same_chain(layers, view)
    pairs = view.pair_edges_local(0, 1)
    want = reference_expansion_fractions(view, pairs)
    assert layers.expansion_fractions(pairs) == want
    for ci, cls in enumerate(classes):
        for li, v in enumerate(cls):
            assert layers.to_global(ci, li) == view.to_global(ci, li) == v
    if k == 2:
        assert want == [1 / len(pairs)] * len(pairs)


def test_layers_kernel_spans_several_source_blocks(monkeypatch):
    # nine vertices a class take two bytes of one word; 65 take a ninth
    # byte, in a second word, and every block must read it
    for n0, n, p in [(9, 60, 0.7), (65, 400, 0.25)]:
        g = graph.gnp(n, p, 8)
        classes = [tuple(range(i * n0, (i + 1) * n0)) for i in range(6)]
        layers = bl.ChainPartition.from_matrix(graph.to_matrix(g), classes)
        view = bl.chain_view(g, classes)
        pairs = view.pair_edges_local(0, 1)[:61]
        want = reference_expansion_fractions(view, pairs)
        monkeypatch.setattr(bl, "_BLOCK_ENTRIES", 4 * n0 * n0)  # 4 sources per block
        assert len(pairs) > 4 and len(pairs) % 4
        assert layers.expansion_fractions(pairs) == want
        monkeypatch.undo()


@pytest.mark.parametrize(
    "classes, error",
    [
        ([(0, 1, 2), (3, 4, 2)], ValueError),  # overlap
        ([(0, 1, 2), (3, 4, 12)], ValueError),  # past the last vertex
        ([(0, 1, 2), (-1, 4, 5)], ValueError),  # negative
        ([(0, 1, 2), (3, 4, 5, 6)], ValueError),  # unequal sizes
        ([(0, 1), (3, 4)], ValueError),  # classes below 3 vertices
        ([(0, 1, 2)], ValueError),  # one class
        ([(0.5, 1, 2), (3, 4, 5), (6, 7, 8)], TypeError),  # a float id, not truncated
    ],
    ids=["overlap", "too-large", "negative", "unequal", "small", "single", "float"],
)
def test_layers_reject_what_chain_view_rejects(classes, error):
    g = graph.complete(12)
    with pytest.raises(error):
        bl.chain_view(g, classes)
    with pytest.raises(error):
        bl.ChainPartition.from_matrix(graph.to_matrix(g), classes)


def test_chain_classes_take_integer_ids_only():
    with pytest.raises(TypeError):
        bl.ChainPartition([(0.5, 1, 2), (3, 4, 5)], 0.5, {})
    # numpy widens a mix of Python ints and uint64 ids to float64; each id is
    # still an integer, so the classes are taken as they are
    a = graph.to_matrix(graph.gnp(12, 0.6, 3))
    ints = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
    mixed = [(0, np.uint64(1), 2), (3, 4, 5), (6, 7, np.uint64(8)), (9, 10, 11)]
    assert np.asarray(mixed).dtype == np.float64
    want, got = bl.ChainPartition.from_matrix(a, ints), bl.ChainPartition.from_matrix(a, mixed)
    assert_same_chain(got, want)
    # numpy ids come back as Python ints on both routes
    assert type(got.to_global(0, 1)) is int and type(got.to_global(2, 2)) is int
    chain = bl.ChainPartition([np.array([0, 1, 2]), (3, 4, np.uint64(5))], 0.5, {})
    assert chain.classes == ((0, 1, 2), (3, 4, 5))
    assert all(type(v) is int for c in chain.classes for v in c)


def test_layers_reject_bad_sources():
    g = graph.gnp(30, 0.5, 7)
    classes = [tuple(range(i * 6, (i + 1) * 6)) for i in range(4)]
    layers = bl.ChainPartition.from_matrix(graph.to_matrix(g), classes)
    view = bl.chain_view(g, classes)
    non_edge = tuple(int(x) for x in np.argwhere(~unpack_packed_matrix(layers.pair(0, 1), 6))[0])
    for bad in (non_edge, (6, 0), (0, 6), (-1, 0)):
        with pytest.raises(ValueError):
            layers.expansion_fractions([bad])
        with pytest.raises(ValueError):
            reference_expansion_fractions(view, [bad])


def test_layers_refuse_float_and_misshaped_sources():
    a = graph.to_matrix(graph.complete(12))
    layers = bl.ChainPartition.from_matrix(a, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)])
    with pytest.raises(TypeError):
        layers.expansion_fractions([(0.5, 1.7)])  # not truncated to (0, 1)
    for bad in ([[0], [1]], [(0, 1, 2, 0)], [0, 1], [[]]):  # not one pair, or two
        with pytest.raises(ValueError):
            layers.expansion_fractions(bad)
    assert layers.expansion_fractions([]) == []
    # a Python int beside a numpy uint64 makes numpy widen to float64; each id
    # is still an integer, so the pair is taken
    assert layers.expansion_fractions([(0, np.uint64(1))]) == [1.0]


@st.composite
def random_chains(draw):
    """A chain of 2 to 9 classes of 3 to 70 vertices, every distance-1 and
    distance-2 pair filled with one edge probability in (0, 1].  Drawn from
    uniform lists: hypothesis would spend most examples on 3 vertices or on
    probabilities so small that no pair holds an edge."""
    k, n0 = draw(st.sampled_from(range(2, 10))), draw(st.sampled_from(range(3, 71)))
    p = draw(st.sampled_from(range(1, 21))) / 20
    gen = np.random.default_rng(draw(st.integers(0, 10**6)))
    pairs = {
        (i, j): pack_bool_matrix(gen.random((n0, n0)) < p)
        for i in range(k)
        for j in (i + 1, i + 2)
        if j < k
    }
    return bl.ChainPartition([tuple(range(i * n0, (i + 1) * n0)) for i in range(k)], p, pairs)


@given(random_chains())
def test_kernel_matches_reference_property(chain):
    pairs = chain.pair_edges_local(0, 1)
    want = reference_expansion_fractions(chain, pairs)
    assert chain.expansion_fractions(pairs) == want


def start_pick_outcome(n, p, reserve, seed):
    """The start pick and the chain-view reference on a growing state, the
    only kind ``embed_square_cycle`` picks on; returns the (certified,
    flags) outcome."""
    params = embedder.PipelineParams(epsilon=0.2, nu=0.3)
    g, state = embed_state(n, p, 3 * params.k0, reserve, seed)
    got_trace = embedder.EmbeddingTrace([], None, None, None, False)
    want_trace = embedder.EmbeddingTrace([], None, None, None, False)
    rng, ref_rng = rng_from(seed), rng_from(seed)
    got = embedder._pick_start_edge(state, params, rng, got_trace)
    want = reference_pick_start_edge(ReferenceStateView(state, g), params, ref_rng, want_trace)
    assert got == want
    assert got_trace.flags == want_trace.flags
    assert got_trace.start_certified == want_trace.start_certified
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return got_trace.start_certified, tuple(got_trace.flags)


def test_start_pick_matches_chain_view():
    seen = set()
    for p, reserve, seed in [(0.8, 3, 1), (0.6, 4, 2), (0.3, 3, 3), (0.6, 2, 4), (0.05, 3, 5)]:
        seen.add(start_pick_outcome(300, p, reserve, seed))
    # certified, uncertified and pool starts, with and without the reserved view
    assert {(True, ()), (False, ("start-uncertified",)), (False, ("start-from-pool",))} <= seen
