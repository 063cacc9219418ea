import dataclasses
import hashlib

import numpy as np
import pytest

from sqlab import adversary, embedder, graph, regularity
from sqlab import blowup as bl
from sqlab.bitops import bits, mask_of, pack_bool_matrix, unpack_packed_matrix
from sqlab.regularity import EquitablePartition
from sqlab.squarewalk import SquareCycle, is_square_cycle, is_square_path
from sqlab.util import rng_from
from oracles import oracle_expansion_fraction, reference_expansion_fractions

# sha256 of EmbeddingTrace.to_json() for G(600, 0.7), graph seed 1, at
# PipelineParams(epsilon=0.2, nu=0.3), which ends open-path at 532/600: the
# partition draws all its pairs' subsets from one key array per sample and
# falsely flags 14 of its 105 pairs at class size 40
PIPELINE_600_TRACE_SHA256 = "eb0e95f60db685def11a31d99f77440dcbb3a10c0967c4301e057dc9845231c8"
# the same for G(1200, 0.6), graph seed 1, which closes at 1110/1200, as
# produced by windows built as chain views: at the benchmark's size the
# windows subsample unequal pools, which the 600-vertex run never does
PIPELINE_1200_TRACE_SHA256 = "22bc62ac8b45472dd1b1d17f5748fc3e5ff986c46feccf77e979f91fbfce7f29"
# the same for G(240, 0.95), graph seed 2, which closes at 195/240 through the
# early join: the pools thin below 4 at path length 182, and the join spans
# the 13 classes left of the lap
PIPELINE_240_TRACE_SHA256 = "d6e5e95bce99e739137792162a324943a36088576dc5213f1f3d20d06df554e3"


def reference_fractions(chain):
    """The set-walk oracle over every first-pair edge, row-major."""
    pairs = chain.pair_edges_local(0, 1)
    return pairs, [oracle_expansion_fraction(chain, a, b) for a, b in pairs]


# -- the batched kernel ---------------------------------------------------------


@pytest.mark.parametrize(
    "k, n0, p0, seed, emptied",
    [
        (3, 12, 0.5, 1, None),
        (4, 12, 0.5, 7, None),  # the closed-form second move is the whole walk
        (8, 10, 0.6, 2, None),
        (6, 12, 0.25, 3, None),
        (6, 10, 0.6, 8, (0, 2)),  # no first move leads anywhere
        (6, 10, 0.6, 9, (1, 3)),  # no second move leads anywhere
    ],
    ids=["k3", "k4", "k8", "sparse", "dead-after-first", "dead-after-second"],
)
def test_kernel_matches_set_walk_oracle(k, n0, p0, seed, emptied):
    chain = bl.build_chain_random(k, n0, p0, seed)
    if emptied is not None:
        chain._pairs[emptied] = np.zeros_like(chain.pair(*emptied))
    pairs, ref = reference_fractions(chain)
    assert pairs
    assert chain.expansion_fractions(pairs) == ref
    if p0 < 0.3:
        assert 0.0 in ref and any(f > 0 for f in ref)  # some frontiers die
    if emptied is not None:
        assert chain.pair_edge_count(k - 2, k - 1) and set(ref) == {0.0}
    if emptied == (1, 3):  # the first move still reaches some state
        B0, A0 = chain.pair(0, 2), chain.pair(1, 2)
        assert any((B0[a] & A0[b]).any() for a, b in pairs)


@pytest.mark.parametrize("k", [5, 6])
@pytest.mark.parametrize("n0", [63, 64, 65, 128])
def test_kernel_at_the_word_boundary(k, n0):
    # one and two words per row, with and without padding bits; at p0 = 0.25
    # no source reaches a whole last pair, so every byte of a state row counts
    chain = bl.build_chain_random(k, n0, 0.25, k * n0)
    pairs = chain.pair_edges_local(0, 1)[::7]
    want = reference_expansion_fractions(chain, pairs)
    assert chain.expansion_fractions(pairs) == want
    assert max(want) < 1


def test_kernel_past_one_word_where_frontiers_die():
    chain = bl.build_chain_random(6, 65, 0.12, 1)
    pairs = chain.pair_edges_local(0, 1)
    want = reference_expansion_fractions(chain, pairs)
    assert chain.expansion_fractions(pairs) == want
    assert 0.0 in want and max(want) > 0


def test_kernel_spans_several_source_blocks(monkeypatch):
    chain = bl.build_chain_random(5, 9, 0.6, 4)
    pairs, ref = reference_fractions(chain)
    monkeypatch.setattr(bl, "_BLOCK_ENTRIES", 4 * 9 * 9)  # 4 sources per block
    assert len(pairs) > 4 and len(pairs) % 4
    assert chain.expansion_fractions(pairs) == ref


def test_kernel_edge_cases():
    chain = bl.build_chain_random(4, 6, 0.5, 5)
    assert chain.expansion_fractions([]) == []
    a, b = chain.pair_edges_local(0, 1)[0]
    assert chain.expansion_fractions([(a, b), (a, b)]) == [oracle_expansion_fraction(chain, a, b)] * 2
    dense = unpack_packed_matrix(chain.pair(0, 1), 6)
    non_edge = tuple(int(x) for x in np.argwhere(~dense)[0])
    for bad in (non_edge, (6, 0), (-1, 0)):
        with pytest.raises(ValueError):
            chain.expansion_fractions([bad])


def test_classify_good_edges_matches_per_edge_reference():
    window = bl.build_chain_random(6, 14, 0.55, 6)
    threshold, limit, seed = 0.5, 40, 11
    pairs = window.pair_edges_local(0, 1)
    assert len(pairs) > limit
    idx = rng_from(seed).choice(len(pairs), size=limit, replace=False)
    sampled = [pairs[int(i)] for i in sorted(idx)]
    good = [
        (window.to_global(0, a), window.to_global(1, b))
        for a, b in sampled
        if oracle_expansion_fraction(window, a, b) >= threshold
    ]
    expected = embedder.GoodEdgeReport(tuple(good), limit)
    got = embedder.classify_good_edges(window, threshold, sample_limit=limit, seed=seed)
    assert got == expected
    assert got.fraction == len(good) / limit
    assert 0 < len(good) < limit


def test_derived_fields_at_empty_inputs():
    # no first-pair edge to sample reads a good fraction of 0.0, and a trace
    # with neither a cycle nor a path reads "failed"
    rep = embedder.classify_good_edges(bl.build_chain_random(6, 14, 0.0, 6), 0.5)
    assert (rep.good, rep.sampled, rep.fraction) == ((), 0, 0.0)
    tr = embedder.EmbeddingTrace([], None, None, None, False)
    assert (tr.closing_status, tr.final_length) == ("failed", 0)


def test_classify_good_edges_refuses_empty_sample():
    window = bl.build_chain_random(6, 14, 0.55, 6)
    for limit in (0, -1):
        with pytest.raises(ValueError, match="sample_limit"):
            embedder.classify_good_edges(window, 0.5, sample_limit=limit)


def test_classify_good_edges_refuses_threshold_outside_unit_interval(monkeypatch):
    # a NaN threshold used to pass every check and report no good edge
    window = bl.build_chain_random(6, 14, 0.55, 6)

    def unreachable(*args):
        raise AssertionError("the window was read before the threshold was checked")

    monkeypatch.setattr(embedder, "_classify", unreachable)
    for threshold in (float("nan"), -0.01, 1.01, float("inf")):
        with pytest.raises(ValueError, match="threshold"):
            embedder.classify_good_edges(window, threshold)


# -- the embed state ------------------------------------------------------------------


@pytest.mark.parametrize("closing", [False, True], ids=["growing", "closing"])
def test_consume_keeps_available_masks(closing):
    r = 6
    g = graph.gnp(60, 0.5, 1)
    classes = [tuple(range(10 * c, 10 * c + 10)) for c in range(r)]
    st = embedder._EmbedState(g, classes, 3, rng_from(1))
    st.closing = closing
    # one lap of pool vertices, then one of reserved vertices
    for pos in range(2 * r):
        c = pos % r
        reserved = pos >= r
        v = min(bits(st.reserved[c] if reserved else st.unused[c] & ~st.reserved[c]))
        prev = st.available_mask(c)
        # a reserved vertex is available only while closing
        assert (prev >> v) & 1 == (closing or not reserved)
        st.consume(v)
        assert st.available_mask(c) == prev & ~(1 << v)
    assert st.unused == [mask_of(cls) & ~mask_of(st.path[c::r]) for c, cls in enumerate(classes)]
    # the next position is class 0 again, whose first vertex is used
    with pytest.raises(AssertionError, match="not available in class 0"):
        st.consume(st.path[0])


# -- chain_view -------------------------------------------------------------------


def reference_chain_view_masks(g, classes):
    """The per-vertex full-row unpacking that chain_view vectorised."""
    k, n0 = len(classes), len(classes[0])
    masks = {}
    for i in range(k):
        for j in (i + 1, i + 2):
            if j >= k:
                continue
            rows = np.zeros((n0, n0), dtype=bool)
            cols = np.array(classes[j], dtype=np.int64)
            for li, u in enumerate(classes[i]):
                row = g.adjacency[u]
                if row:
                    buf = np.frombuffer(row.to_bytes((g.n + 7) // 8, "little"), dtype=np.uint8)
                    rows[li] = np.unpackbits(buf, bitorder="little", count=g.n)[cols]
            masks[(i, j)] = rows
    return masks


@pytest.mark.parametrize("n, p, k, seed", [(70, 0.5, 5, 1), (41, 0.3, 4, 2), (24, 0.0, 3, 3)])
def test_chain_view_matches_reference_masks(n, p, k, seed):
    g = graph.gnp(n, p, seed=seed)
    order = [int(v) for v in np.random.default_rng(seed).permutation(n)]
    n0 = n // k
    classes = [tuple(order[i * n0 : (i + 1) * n0]) for i in range(k)]
    ch = bl.chain_view(g, classes)
    masks = reference_chain_view_masks(g, classes)
    assert ch.pair_indices() == sorted(masks)
    for key, m in masks.items():
        assert np.array_equal(ch.pair(*key), pack_bool_matrix(m))


def test_chain_view_rejects_out_of_range_vertex():
    g = graph.complete(9)
    with pytest.raises(ValueError):
        bl.chain_view(g, [(0, 1, 2), (3, 4, 5), (6, 7, 9)])


# -- the embedder -----------------------------------------------------------------


def run_pipeline(n, p, seed):
    """G(n, p), per-vertex deletion at r = 0.1, partition, reduced cycle and
    embed at PipelineParams(epsilon=0.2, nu=0.3), all from one seed."""
    params = embedder.PipelineParams(epsilon=0.2, nu=0.3)
    h = adversary.per_vertex_deletion(graph.gnp(n, p, seed), 0.1, seed)
    with pytest.warns(UserWarning):  # minimum degree below (mu + nu) n p
        pr = regularity.partition_heuristic(
            h, p, params.epsilon, params.mu, params.nu, params.r_min, params.r_max,
            seed, alpha=params.alpha,
        )
    rg = embedder.reduced_graph(pr.partition, pr.reduced_adjacency)
    cyc = embedder.square_cycle_in_reduced(rg).cycle
    tr = embedder.embed_square_cycle(h, pr.partition, cyc, params, seed)
    return h, pr, cyc, tr


def assert_trace_replays(tr, r):
    """The window records replay the final path: each one starts where the
    previous one ended and ends at the path's two vertices there, and only
    the closing join may add vertices after the last one, and it ends the
    lap the last window is in."""
    seq = tuple((tr.path if tr.cycle is None else tr.cycle).vertices)
    assert seq[:2] == tr.start_edge
    length = 2
    for i, rec in enumerate(tr.windows):
        assert rec.index == i
        assert rec.start_class == (length - 2) % r
        assert rec.path_length == length + rec.length - 2
        length = rec.path_length
        assert rec.chosen_edge == seq[length - 2 : length]
    if tr.closing_status == "open-path":
        assert tr.final_length == length
    else:
        assert tr.final_length % r == 0 and length <= tr.final_length < length + r


def test_pipeline_600_trace_unchanged(monkeypatch):
    # windows built and kernel calls made: each window built is classified
    # once
    counts = {"windows": 0, "kernel": 0}
    window, kernel = embedder._window, bl.ChainPartition.expansion_fractions

    def counted_window(*args):
        cols = window(*args)
        counts["windows"] += cols is not None
        return cols

    def counted_kernel(self, sources):
        counts["kernel"] += 1
        return kernel(self, sources)

    monkeypatch.setattr(embedder, "_window", counted_window)
    monkeypatch.setattr(bl.ChainPartition, "expansion_fractions", counted_kernel)
    h, pr, cyc, tr = run_pipeline(600, 0.7, 1)

    assert (tr.closing_status, tr.final_length) == ("open-path", 532) and tr.start_certified
    assert hashlib.sha256(tr.to_json().encode()).hexdigest() == PIPELINE_600_TRACE_SHA256
    # one kernel call picks the start edge and one classifies each of the
    # 184 windows built; 176 of them reached a good edge and are kept
    assert counts == {"windows": 184, "kernel": 185} and len(tr.windows) == 176
    seq = tr.path.vertices
    assert is_square_path(h, seq)
    r = len(cyc.vertices)
    position = {v: j for j, c in enumerate(cyc.vertices) for v in pr.partition.classes[c]}
    assert all(position[v] == idx % r for idx, v in enumerate(seq))
    assert_trace_replays(tr, r)


def test_pipeline_1200_trace_unchanged():
    h, _, cyc, tr = run_pipeline(1200, 0.6, 1)
    assert (tr.closing_status, tr.final_length) == ("closed", 1110)
    assert hashlib.sha256(tr.to_json().encode()).hexdigest() == PIPELINE_1200_TRACE_SHA256
    assert is_square_cycle(h, tr.cycle.vertices)
    assert_trace_replays(tr, len(cyc.vertices))


def test_pipeline_1200_closes():
    # the benchmark's resilience op pipeline-2: G(1200, 0.6), graph seed 2.  No
    # window advances the path past 1101/1200, 9 classes short of the lap
    # boundary, so the join spans more classes than a window's 2 k0 - 2 = 8
    h, _, cyc, tr = run_pipeline(1200, 0.6, 2)
    assert (tr.closing_status, tr.final_length) == ("closed", 1110)
    assert tr.final_length - tr.windows[-1].path_length == 9
    assert is_square_cycle(h, tr.cycle.vertices)
    assert_trace_replays(tr, len(cyc.vertices))


@pytest.mark.parametrize("seed", [5, 6, 7, 8])
def test_pipeline_1200_closes_at_graph_seeds_5_to_8(seed):
    # seeds 6 and 7 stop 14 and 9 classes short of the lap boundary
    h, _, cyc, tr = run_pipeline(1200, 0.6, seed)
    assert tr.closing_status == "closed"
    assert is_square_cycle(h, tr.cycle.vertices)
    assert_trace_replays(tr, len(cyc.vertices))


def test_pipeline_240_closes_through_the_early_join(monkeypatch):
    # the run that reaches the join taken while closing, once some pool holds
    # fewer than 4 vertices (graph seeds 1-8 all reach it at path length 182;
    # seed 9 raises, see the next test)
    seen = []
    smallest = embedder._EmbedState.smallest_pool

    def spy(st):
        seen.append((len(st.path), st.closing, smallest(st)))
        return seen[-1][2]

    monkeypatch.setattr(embedder._EmbedState, "smallest_pool", spy)
    h, _, cyc, tr = run_pipeline(240, 0.95, 2)
    assert [length for length, closing, size in seen if closing and size < 4] == [182]
    assert (tr.closing_status, tr.final_length) == ("closed", 195)
    assert is_square_cycle(h, tr.cycle.vertices)
    assert hashlib.sha256(tr.to_json().encode()).hexdigest() == PIPELINE_240_TRACE_SHA256
    assert_trace_replays(tr, len(cyc.vertices))


def test_embed_ends_without_a_budget_when_no_join_succeeds(monkeypatch):
    # the path only grows, and each window uses at least k0 - 2 vertices, so
    # an embed whose joins all fail runs out of windows and ends open
    advancing, refused = [], []
    advance, extend = embedder._advance_window, embedder._extend

    def flagged_advance(*args):
        advancing.append(True)
        try:
            return advance(*args)
        finally:
            advancing.pop()

    def windows_only(st, depth, targets, budget):
        if advancing:
            return extend(st, depth, targets, budget)
        refused.append(len(st.path))
        return None

    monkeypatch.setattr(embedder, "_advance_window", flagged_advance)
    monkeypatch.setattr(embedder, "_extend", windows_only)
    h, _, cyc, tr = run_pipeline(240, 0.95, 2)
    assert tr.closing_status == "open-path" and "stuck-while-closing" in tr.flags
    assert refused and refused[-1] == tr.final_length
    assert is_square_path(h, tr.path.vertices)
    assert_trace_replays(tr, len(cyc.vertices))


def test_window_check_refuses_vertices_that_break_the_square_path(monkeypatch):
    # K(120) on 15 classes of 8, less every edge between classes 1 and 3: the
    # first window puts a class-3 vertex two places after the start edge's
    # class-1 end.  A search that returns the smallest available vertex of
    # each class gets past consume, which checks only that each is an unused
    # vertex of its class; the window's own square-path check must refuse it
    r, size = 15, 8
    classes = tuple(tuple(range(size * c, size * (c + 1))) for c in range(r))
    a = ~np.eye(r * size, dtype=bool)
    a[np.ix_(classes[1], classes[3])] = a[np.ix_(classes[3], classes[1])] = False
    g = graph.from_matrix(a)
    segments = []

    def smallest_available(st, depth, targets, budget):
        new = [min(bits(st.available_mask(len(st.path) + i))) for i in range(depth)]
        segments.append([*st.path[-2:], *new])
        return new

    monkeypatch.setattr(embedder, "_extend", smallest_available)
    part, cyc = EquitablePartition((), classes), SquareCycle(tuple(range(r)))
    with pytest.raises(AssertionError, match="window broke square-path validity"):
        embedder.embed_square_cycle(g, part, cyc, embedder.PipelineParams(), 0)
    assert len(segments) == 1 and not is_square_path(g, segments[0])


def test_join_at_lap_remainders_0_and_1_reads_the_path_end():
    # K(120) on 15 classes of 8, less the edge {0, 119}: a lap of each class's
    # smallest vertex starts at the edge (0, 8), and its end pair closes onto
    # it unless its last vertex is 119
    r, size = 15, 8
    classes = tuple(tuple(range(size * c, size * (c + 1))) for c in range(r))
    a = ~np.eye(r * size, dtype=bool)
    a[0, 119] = a[119, 0] = False
    g = graph.from_matrix(a)
    st = embedder._EmbedState(g, classes, 1, rng_from(0))
    st.closing = True  # the pools hold the reserve too
    for pos in range(r - 1):
        st.consume(size * pos)
    seam = dict.fromkeys(bits(g.adjacency[0]), g.adjacency[0] & g.adjacency[8])
    # one class left: 119 is its largest vertex, but it does not see 0
    assert embedder._extend(st, 1, seam, 10) == [118]
    for last, want in ((119, None), (118, [])):
        st.consume(last)
        assert embedder._extend(st, 0, seam, 10) == want
        st.unused[r - 1] |= 1 << st.path.pop()


def test_pipeline_240_seed_9_reduced_cycle_too_short():
    # at class size 16 the sampled tester falsely flags 48 of the 105 pairs,
    # and the reduced graph has no square Hamilton cycle (its longest square
    # cycle has 14 of the 15 classes); the smallest graph seed that raises
    with pytest.raises(
        ValueError,
        match=r"no square Hamilton cycle in the reduced graph \(r = 15, class size 16\)",
    ):
        run_pipeline(240, 0.95, 9)


def test_params_settable_values_are_epsilon_and_nu():
    assert [f.name for f in dataclasses.fields(embedder.PipelineParams)] == ["nu", "epsilon"]


@pytest.mark.parametrize(
    "name",
    [
        "gamma", "alpha", "mu", "r_min", "r_max", "good_threshold", "reserve_fraction",
        "good_sample_limit", "window_node_budget", "backtrack_budget",
    ],
)
def test_params_refuse_removed_fields(name):
    # any value: the keyword is refused before it is read
    with pytest.raises(TypeError, match=name):
        embedder.PipelineParams(**{name: 1})


def test_params_refuse_positional_arguments():
    # keyword-only, so a positional value cannot land in the wrong field
    with pytest.raises(TypeError):
        embedder.PipelineParams(3.0)
    with pytest.raises(TypeError):
        embedder.PipelineParams(0.3, 0.2)


def test_params_constants_within_limits():
    P = embedder.PipelineParams
    assert P.k0 == 5
    assert P.window_node_budget >= P.k0 - 2
    assert 0 < P.good_threshold <= 1
    assert P.good_sample_limit >= 1
    assert P.r_max == P.r_min == 3 * P.k0


@pytest.mark.parametrize(
    "epsilon, nu", [(0, 0.3), (0.3, 0.3), (1.0, 2.0), (1.5, 2.0)],
    ids=["zero", "equals-nu", "one", "above-one"],
)
def test_params_reject_epsilon_out_of_range(epsilon, nu):
    # epsilon is also the reserve share of each class, so it must stay below 1
    # even when nu allows more
    with pytest.raises(ValueError, match="epsilon"):
        embedder.PipelineParams(epsilon=epsilon, nu=nu)


def test_params_to_json_dict_unchanged():
    default = {
        "gamma": 3.0, "nu": 0.1, "alpha": 0.1, "epsilon": 0.075, "mu": 2.0 / 3.0, "k0": 5,
        "r_min": 15, "r_max": 15, "good_threshold": 0.51, "reserve_fraction": 0.075,
    }
    assert embedder.PipelineParams().to_json_dict() == default
    assert embedder.PipelineParams(epsilon=0.2, nu=0.3).to_json_dict() == {
        **default, "nu": 0.3, "epsilon": 0.2, "reserve_fraction": 0.2,
    }


def test_embed_without_reduced_cycle_raises_value_error():
    # an edgeless reduced graph (every pair flagged, as the sampled test does
    # at the default PipelineParams) has no square cycle, and embed refuses it
    res = embedder.square_cycle_in_reduced(graph.empty(4))
    assert res.cycle is None
    g = graph.complete(12)
    part = EquitablePartition((), tuple(tuple(range(3 * i, 3 * i + 3)) for i in range(4)))
    with pytest.raises(
        ValueError, match=r"no square Hamilton cycle in the reduced graph \(r = 4, class size 3\)"
    ):
        embedder.embed_square_cycle(g, part, res.cycle, embedder.PipelineParams(), seed=0)
    # a reduced cycle of 12 classes is shorter than 3 k0 = 15
    part = EquitablePartition((), tuple(tuple(range(3 * i, 3 * i + 3)) for i in range(12)))
    with pytest.raises(ValueError, match="reduced cycle length 12 below 3 k0 = 15"):
        embedder.embed_square_cycle(
            graph.complete(36), part, SquareCycle(tuple(range(12))), embedder.PipelineParams(), seed=0
        )


def test_embed_on_an_edgeless_graph_fails_without_a_start_edge():
    part = EquitablePartition((), tuple(tuple(range(3 * i, 3 * i + 3)) for i in range(15)))
    tr = embedder.embed_square_cycle(
        graph.empty(45), part, SquareCycle(tuple(range(15))), embedder.PipelineParams(), seed=0
    )
    assert tr.closing_status == "failed" and tr.final_length == 0
    assert tr.flags == ["start-from-pool", "no-start-edge"]


def test_class_alignment_check_refuses_a_misaligned_path():
    classes = [(0, 1), (2, 3), (4, 5)]
    embedder._assert_class_alignment([0, 2, 4, 1, 3, 5], classes, 3)
    with pytest.raises(AssertionError, match="class order"):
        embedder._assert_class_alignment([0, 4, 2], classes, 3)
    with pytest.raises(AssertionError, match="multiple of r"):
        embedder._assert_class_alignment([0, 2, 4, 1], classes, 3)

