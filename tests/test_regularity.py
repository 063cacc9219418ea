import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from sqlab import graph
from sqlab import regularity as reg
from sqlab.util import rng_from
from oracles import bipartite_classes


def bipartite_random(nl, nr, p, seed):
    rng = np.random.default_rng(seed)
    m = rng.random((nl, nr)) < p
    edges = [(u, nl + w) for u, w in zip(*np.nonzero(m))]
    g = graph.from_edges(nl + nr, edges)
    return g, reg.BipartitePairView(g, tuple(range(nl)), tuple(range(nl, nl + nr)))


def two_block_graph():
    edges = [(u, w) for u in range(50) for w in range(100, 150)]
    edges += [(u, w) for u in range(50, 100) for w in range(150, 200)]
    g = graph.from_edges(200, edges)
    return g, reg.BipartitePairView(g, tuple(range(100)), tuple(range(100, 200)))


def complete_bipartite(nl, nr):
    edges = [(u, nl + w) for u in range(nl) for w in range(nr)]
    g = graph.from_edges(nl + nr, edges)
    return g, reg.BipartitePairView(g, tuple(range(nl)), tuple(range(nl, nl + nr)))


def pair_matrix(g, pair):
    """The dense |L| x |R| boolean matrix of a pair."""
    return graph.to_matrix(g, pair.left)[:, list(pair.right)]


def whole(m):
    """The one sub-pair of a matrix's full row and column ranges."""
    return [(np.arange(m.shape[0]), np.arange(m.shape[1]))]


def whole_verdict(m, *args):
    """``lower_regular_verdict`` of a whole matrix, as its one sub-pair."""
    [verdict] = reg.lower_regular_verdict(m, whole(m), *args)
    return verdict


# -- density -----------------------------------------------------------------


def test_density_complete_halves():
    g, pair = complete_bipartite(10, 10)
    assert reg.density(g, pair.left, pair.right) == 1


def test_density_edgeless():
    g = graph.empty(10)
    assert reg.density(g, range(5), range(5, 10)) == 0


def test_density_gnp_concentrates():
    g = graph.gnp(400, 0.25, seed=4)
    rng = np.random.default_rng(0)
    order = rng.permutation(400)
    a, b = order[:100].tolist(), order[100:200].tolist()
    d = float(reg.density(g, a, b))
    sigma = math.sqrt(0.25 * 0.75 / 10000)
    assert abs(d - 0.25) <= 5 * sigma


def test_density_rejects_bad_sets():
    g = graph.complete(6)
    # a negative id would index adjacency rows from the end: [-1] is vertex 5
    # a repeated id would count its edges twice
    for a, b in [([], [1, 2]), ([1, 2], [2, 3]), ([-1], [0]), ([0], [-2, 1]), ([6], [0]), ([0], [1, 6]),
                 ([0, 0], [1]), ([0], [1, 2, 1])]:
        with pytest.raises(ValueError):
            reg.density(g, a, b)


def test_pair_view_rejects_overlap():
    g = graph.complete(4)
    with pytest.raises(ValueError, match="overlap"):
        reg.BipartitePairView(g, (0, 1), (1, 2))
    with pytest.raises(ValueError, match="duplicate"):
        reg.BipartitePairView(g, (0, 1, 0), (2, 3))


# -- two-sided tester ----------------------------------------------------------


def test_regular_complete_never_violated():
    g, pair = complete_bipartite(40, 40)
    for eps in (0.05, 0.2, 0.5):
        rep = reg.test_regular(g, pair, 1.0, eps, 100, seed=1)
        assert rep.verdict == "no-violation-found"
        # with no witness there is nothing to replay
        assert not reg.replay_witness(g, rep)


def test_regular_two_block_violated():
    # frozen Monte Carlo: detection measured at 100/100 over seeds 0..99
    g, pair = two_block_graph()
    for seed in range(20):
        rep = reg.test_regular(g, pair, 0.5, 0.2, 200, seed=seed)
        assert rep.verdict == "violated"
        w = rep.witness
        assert len(w.left) >= math.ceil(0.2 * 100)
        assert len(w.right) >= math.ceil(0.2 * 100)
        assert abs(float(w.observed) - 0.5) > 0.2 * 0.5
        assert reg.replay_witness(g, rep)


def test_pair_view_sides_take_numpy_integer_ids():
    # a planted two-block pair on 40 + 40 vertices, probability 1.0 between
    # matching halves and 0.4 across, with sides given as numpy integers:
    # its witness must replay as it does with Python ints
    rng = rng_from(7)
    probs = np.full((40, 40), 0.4)
    probs[:20, :20] = probs[20:, 20:] = 1.0
    m = rng.random((40, 40)) < probs
    full = np.zeros((80, 80), dtype=bool)
    full[:40, 40:], full[40:, :40] = m, m.T
    g = graph.from_matrix(full)
    pair = reg.BipartitePairView(g, tuple(np.arange(40)), tuple(np.arange(40, 80)))
    rep = reg.test_regular(g, pair, 0.7, 0.075, 200, seed=0)
    assert rep.verdict == "violated"
    assert reg.replay_witness(g, rep)
    assert all(type(v) is int for v in pair.left + pair.right)


def test_regular_gnp_rarely_violated():
    # frozen Monte Carlo: seeds 1000..1099 measured 100/100 clean
    g, pair = bipartite_random(200, 200, 0.3, seed=5)
    clean = sum(
        reg.test_regular(g, pair, 0.3, 0.15, 200, seed=1000 + s).verdict
        == "no-violation-found"
        for s in range(30)
    )
    assert clean >= 29


def test_witness_monotone_in_epsilon():
    g, pair = two_block_graph()
    rep = reg.test_regular(g, pair, 0.5, 0.2, 200, seed=0)
    w = rep.witness
    for smaller in (0.15, 0.1):
        assert len(w.left) >= math.ceil(smaller * 100)
        assert len(w.right) >= math.ceil(smaller * 100)
        dev = abs(float(reg.density(g, w.left, w.right) - rep.density))
        assert dev > smaller * rep.reference_p


def test_report_json_fractions():
    g, pair = two_block_graph()
    rep = reg.test_regular(g, pair, 0.5, 0.2, 200, seed=0)
    doc = rep.to_json_dict()
    assert doc["density"] == [1, 2]
    assert doc["witness"]["observed"][1] > 0
    assert "one_sided" not in doc


# -- one-sided tester ----------------------------------------------------------


def test_lower_regular_complete():
    g, pair = complete_bipartite(30, 30)
    verdict = whole_verdict(pair_matrix(g, pair), 1.0, 0.2, 100, rng_from(3))
    assert verdict == "no-violation-found"


def test_lower_regular_edgeless_first_sample():
    g = graph.empty(20)
    pair = reg.BipartitePairView(g, tuple(range(10)), tuple(range(10, 20)))
    rng = rng_from(1)
    assert whole_verdict(pair_matrix(g, pair), 0.5, 0.3, 50, rng) == "violated"
    # the first sample is a uniform one, drawn from one 2 x 10 key array;
    # the verdict must stop right after it
    twin = rng_from(1)
    twin.random((2, 10))
    assert rng.bit_generator.state == twin.bit_generator.state


def test_regular_pass_implies_lower_pass_same_seed():
    g, pair = bipartite_random(150, 150, 0.4, seed=11)
    d = float(reg.density(g, pair.left, pair.right))
    for seed in range(5):
        two = reg.test_regular(g, pair, d, 0.15, 120, seed=seed)
        one = whole_verdict(pair_matrix(g, pair), d, 0.15, 120, rng_from(seed))
        if two.verdict == "no-violation-found":
            assert one == "no-violation-found"


def test_sample_count_zero_refused():
    # with no sample drawn nothing is checked, and an edgeless pair would
    # pass as "no-violation-found"
    with pytest.raises(ValueError):
        whole_verdict(np.zeros((5, 5), dtype=bool), 0.5, 0.2, 0, rng_from(0))
    # an empty matrix has its verdict without sampling, but is refused too
    for shape in ((0, 3), (3, 0)):
        for count in (0, -5):
            with pytest.raises(ValueError):
                whole_verdict(np.zeros(shape, dtype=bool), 0.5, 0.2, count, None)
    g, pair = complete_bipartite(10, 10)
    with pytest.raises(ValueError):
        reg.test_regular(g, pair, 1.0, 0.2, 0)


@pytest.mark.parametrize(
    "reference_p, epsilon", [(0.7, 0.0), (0.7, -0.3), (-0.7, 0.2), (0.7, float("nan"))]
)
def test_sampling_refuses_empty_flag_window_and_negative_density(reference_p, epsilon):
    # at epsilon <= 0 every sample violates, and a negative reference density
    # flags even a complete pair, so "violated" would prove nothing
    g, pair = bipartite_random(20, 20, 0.7, seed=1)
    with pytest.raises(ValueError):
        reg.test_regular(g, pair, reference_p, epsilon, 50, seed=1)
    for m in (np.ones((5, 5), dtype=bool), np.zeros((0, 3), dtype=bool)):
        with pytest.raises(ValueError):
            whole_verdict(m, reference_p, epsilon, 5, rng_from(0))
    with pytest.raises(ValueError):
        reg.partition_heuristic(g, reference_p, epsilon, 0.1, 0.1, 4, 4, seed=1)


@pytest.mark.parametrize(
    "rows, cols, error",
    [
        ((5, 1, 2), (0, 1, 2), ValueError),
        ((-1, 1, 2), (0, 1, 2), ValueError),
        ((0, 1, 2), (0, 7, 2), ValueError),
        ((0, 0, 1), (0, 1, 2), ValueError),
        ((0.5, 1, 2), (0, 1, 2), TypeError),
    ],
    ids=["row-past-side", "negative-row", "column-past-side", "repeated-row", "float-row"],
)
def test_lower_regular_verdict_refuses_bad_sub_pair_ids(rows, cols, error):
    # an id past a side would read the counter's padding (or, in the matrix's
    # bipartite graph, a vertex of the other side), a repeated one would be
    # counted twice and a float one truncated; on either side, and beside a
    # good sub-pair
    m = np.ones((5, 5), dtype=bool)
    for sub_pairs in ([(rows, cols)], [(cols, rows)], [((0, 1), (2, 3)), (rows, cols)]):
        with pytest.raises(error):
            reg.lower_regular_verdict(m, sub_pairs, 1.0, 0.2, 30, rng_from(1))


def test_lower_regular_verdict_takes_mixed_integer_ids():
    # Python ints mixed with uint64 ids, as blowup's classes take them, and
    # empty sides
    m = np.random.default_rng(4).random((9, 7)) < 0.6
    plain = [((0, 3, 5, 8), (1, 2, 6)), ((), (0, 1)), ((2, 4), ())]
    mixed = [((0, np.uint64(3), 5, np.int32(8)), (1, 2, np.uint64(6))), ([], (0, 1)), ((2, 4), [])]
    for seed in range(3):
        want = reg.lower_regular_verdict(m, plain, 0.5, 0.2, 30, rng_from(seed))
        assert reg.lower_regular_verdict(m, mixed, 0.5, 0.2, 30, rng_from(seed)) == want
        assert want[1:] == ["violated", "violated"]


def test_regular_refuses_an_empty_side_or_another_graph():
    g = graph.complete(6)
    for left, right in (((), (0, 1, 2)), ((0, 1, 2), ())):
        with pytest.raises(ValueError, match="pair"):
            reg.test_regular(g, reg.BipartitePairView(g, left, right), 1.0, 0.2, 10)
    # the test reads the graph it is given, so a view of another graph would
    # get that graph's density (or an IndexError from a smaller one)
    pair = reg.BipartitePairView(graph.gnp(20, 0.5, 1), range(10), range(10, 20))
    for other in (graph.gnp(40, 0.5, 2), graph.gnp(12, 0.5, 2)):
        with pytest.raises(ValueError, match="another graph"):
            reg.test_regular(other, pair, 0.5, 0.2, 50)
    # an equal graph is the same graph
    same = reg.test_regular(graph.gnp(20, 0.5, 1), pair, 0.5, 0.2, 50)
    assert same == reg.test_regular(pair.graph, pair, 0.5, 0.2, 50)


def test_small_deletion_keeps_regularity():
    # deleting <= eps^4 of the edges of a dense regular pair never produces a
    # violated verdict at 2 eps (frozen over 10 seeded pairs)
    eps = 0.25
    for seed in range(10):
        g, pair = bipartite_random(120, 120, 0.5, seed=100 + seed)
        edges = [(u, v) for u in pair.left for v in pair.right if g.has_edge(u, v)]
        drop = rng_from(seed).choice(len(edges), size=int(eps**4 * len(edges)), replace=False)
        out = g.without_edges([edges[i] for i in drop])
        kept = reg.BipartitePairView(out, pair.left, pair.right)
        d = float(reg.density(out, kept.left, kept.right))
        rep = reg.test_regular(out, kept, d, 2 * eps, 100, seed)
        assert rep.verdict == "no-violation-found"


# -- sampling draws ------------------------------------------------------------------


class RecordingCounter:
    """The counter of one matrix's pair of full ranges (the default), or of
    classes of its bipartite graph, recording each sample's pivot (the
    per-class pivot positions and the first pair's pivot class, or None at
    a uniform sample) and every running pair's two subsets, as read."""

    def __init__(self, m, classes=None):
        if classes is None:
            self.inner = reg._MatrixCounter(m)
        else:
            self.inner = reg._GraphCounter(*bipartite_classes(m, classes))
        self.samples = []
        self.pivot = None

    def neighbourhoods(self, pivot, pc, oc):
        self.pivot = (pivot.tolist(), int(pc[0]))
        return self.inner.neighbourhoods(pivot, pc, oc)

    def counts(self, a, b, left, right):
        self.samples.append((self.pivot, left.tolist(), right.tolist()))
        self.pivot = None
        return self.inner.counts(a, b, left, right)


def recorded_samples(m, epsilon, sample_count, seeds):
    """Every sample of one-sided runs that never flag (reference_p 0)."""
    out = []
    d = np.count_nonzero(m) / m.size
    for seed in seeds:
        counter = RecordingCounter(m)
        [(hit, ran)] = reg._sampled_test(
            counter, m.shape, [(0, 1)], [d], 0.0, epsilon, sample_count, rng_from(seed), True
        )
        assert hit is None and ran == sample_count == len(counter.samples)
        out += [(pivot, li, ri) for pivot, (li,), (ri,) in counter.samples]
    return out


def test_uniform_subsets_hit_each_position_at_rate_k_over_n():
    # frozen Monte Carlo: 3,000 uniform samples of a 12 x 20 pair at eps
    # 0.25 (k = 3 and 5, so each position lands in a subset with probability
    # 1/4); every count lies within 5 standard deviations of 750, and the
    # 12-vertex side's padded key positions are never chosen
    m = np.ones((12, 20), dtype=bool)
    samples = recorded_samples(m, 0.25, 30, range(300))
    uniform = [(li, ri) for pivot, li, ri in samples if pivot is None]
    assert len(uniform) == 3000
    for side, n, k in ((0, 12, 3), (1, 20, 5)):
        chosen = [x[side] for x in uniform]
        assert all(len(c) == len(set(c)) == k for c in chosen)
        hits = np.bincount(np.concatenate(chosen), minlength=n)
        assert hits.size == n
        mean, sd = 3000 * k / n, math.sqrt(3000 * k / n * (1 - k / n))
        assert np.all(np.abs(hits - mean) <= 5 * sd), hits
    # the same on three sub-pairs of unequal sizes, tested in one run: class
    # c's k_c = ceil(n_c / 4) positions come first in its rows, padded to
    # the widest k on its side with position 20 (no vertex), and each of
    # its positions lands in a subset at rate k_c / n_c
    gen = np.random.default_rng(5)
    sizes = [12, 20, 7, 15, 9, 11]
    classes = [gen.permutation((12, 20)[c % 2])[:n] for c, n in enumerate(sizes)]
    chosen = [[] for _ in sizes]
    for seed in range(300):
        counter = RecordingCounter(m, classes)
        results = reg._sampled_test(
            counter, sizes, [(0, 1), (2, 3), (4, 5)], [1.0] * 3, 0.0, 0.25, 30,
            rng_from(seed), True,
        )
        assert results == [(None, 30)] * 3
        for pivot, left, right in counter.samples:
            if pivot is None:
                for c, subset in enumerate(x for pair in zip(left, right) for x in pair):
                    chosen[c].append([x for x in subset if x != 20])
                    assert all(x == 20 for x in subset[len(chosen[c][-1]) :])
    for n, subsets in zip(sizes, chosen):
        k = math.ceil(n / 4)
        assert len(subsets) == 3000
        assert all(len(c) == len(set(c)) == k and max(c) < n for c in subsets)
        hits = np.bincount(np.concatenate(subsets), minlength=n)
        mean, sd = 3000 * k / n, math.sqrt(3000 * k / n * (1 - k / n))
        assert np.all(np.abs(hits - mean) <= 5 * sd), (n, hits)


def test_batched_sub_pair_flags_at_its_own_rate():
    # frozen Monte Carlo: a 40 x 35 sub-pair of a G(60, 60, 0.6) matrix is
    # flagged one-sidedly in some of 300 seeded runs of 10 samples; run
    # alone or beside four other sub-pairs, which share none of its keys, it
    # is flagged at the same rate within 5 standard deviations
    gen = np.random.default_rng(8)
    m = gen.random((60, 60)) < 0.6
    target = (gen.permutation(60)[:40], gen.permutation(60)[:35])
    others = [(gen.permutation(60)[:n], gen.permutation(60)[:n + 5]) for n in (20, 30, 45, 55)]
    batch = others[:2] + [target] + others[2:]
    alone = batched = 0
    for seed in range(300):
        [verdict] = reg.lower_regular_verdict(m, [target], 0.7, 0.2, 10, rng_from(seed))
        alone += verdict == "violated"
        verdicts = reg.lower_regular_verdict(m, batch, 0.7, 0.2, 10, rng_from(seed))
        batched += verdicts[2] == "violated"
    rate = (alone + batched) / 600
    assert 0.1 < rate < 0.9, rate
    assert abs(alone - batched) / 300 <= 5 * math.sqrt(rate * (1 - rate) * 2 / 300), (alone, batched)


def test_pivot_subsets_lie_in_the_pivot_neighbourhood():
    # each pivot here sees at least 9 positions of the other side, above
    # both subset sizes (6 and 8), so no proposal falls back to uniform
    m = np.random.default_rng(3).random((30, 40)) < 0.5
    assert m.sum(axis=0).min() >= 9 and m.sum(axis=1).min() >= 9
    proposals = 0
    for pivot, li, ri in recorded_samples(m, 0.2, 30, range(40)):
        if pivot is None:
            continue
        proposals += 1
        positions, c = pivot
        if c == 1:  # pivot in the right class: the left subset is near it
            hood, near, own = set(np.flatnonzero(m[:, positions[1]])), li, ri
        else:
            hood, near, own = set(np.flatnonzero(m[positions[0]])), ri, li
        assert set(near) <= hood
        assert positions[c] not in own
    assert proposals == 40 * 20


@pytest.mark.parametrize(
    "shape, epsilon", [((1, 30), 0.2), ((5, 7), 1.0)], ids=["one-vertex-side", "eps-1"]
)
def test_rest_holds_the_pivot_only_in_a_class_of_at_most_k(shape, epsilon):
    # a side of at most k vertices is its own subset, pivot included; a
    # larger side leaves its pivot out
    m = np.ones(shape, dtype=bool)
    k = [min(n, max(1, math.ceil(epsilon * n))) for n in shape]
    seen = 0
    for pivot, li, ri in recorded_samples(m, epsilon, 30, range(20)):
        if pivot is None:
            continue
        positions, c = pivot
        own = ri if c == 1 else li
        if shape[c] <= k[c]:
            assert sorted(own) == list(range(shape[c]))
        else:
            assert positions[c] not in own and len(own) == k[c]
        seen += 1
    assert seen == 20 * 20


# -- partition heuristic -----------------------------------------------------------


def test_partition_complete_graph():
    g = graph.complete(600)
    res = reg.partition_heuristic(
        g, 1.0, 0.3, mu=2 / 3, nu=0.05, r_min=30, r_max=30, seed=1, sample_count=25
    )
    assert res.partition.r == 30
    assert res.partition.class_size() == 20
    assert not res.partition.exceptional
    assert all(len(res.reduced_adjacency[i]) == 29 for i in range(30))
    assert res.min_degree_ok


def test_partition_edgeless_warns():
    g = graph.empty(60)
    with pytest.warns(UserWarning):
        res = reg.partition_heuristic(
            g, 0.5, 0.3, mu=0.5, nu=0.1, r_min=6, r_max=6, seed=1, sample_count=10
        )
    assert all(not s for s in res.reduced_adjacency.values())
    assert not res.min_degree_ok


def test_partition_rejects_bad_r():
    with pytest.raises(ValueError):
        reg.partition_heuristic(
            graph.complete(10), 1.0, 0.3, 0.5, 0.1, r_min=5, r_max=4, seed=0
        )
    with pytest.raises(ValueError, match="r_min"):
        reg.partition_heuristic(graph.gnp(60, 0.7, 1), 0.7, 0.2, 0.6, 0.3, 0, 0, 1)
    with pytest.raises(ValueError, match="more classes than vertices"):
        reg.partition_heuristic(graph.complete(4), 1.0, 0.3, 0.5, 0.1, r_min=5, r_max=5, seed=0)


@pytest.mark.parametrize(
    "bad",
    [{"epsilon": 0.0}, {"sample_count": 0}, {"refine_rounds": -3}, {"refine_rounds": 6}],
    ids=["epsilon", "sample_count", "negative-rounds", "rounds-above-cap"],
)
def test_partition_refuses_bad_arguments_before_any_work(bad):
    # the minimum degree of this graph sits below (mu + nu) n p, so a check
    # made after the degree test would warn before it raised
    g, _ = bipartite_random(20, 20, 0.7, seed=1)
    args = dict(epsilon=0.2, mu=0.6, nu=0.3, r_min=4, r_max=4, seed=1)
    with pytest.warns(UserWarning, match="minimum degree"):
        reg.partition_heuristic(g, 0.7, **args)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=next(iter(bad))):
            reg.partition_heuristic(g, 0.7, **{**args, **bad})
    assert not seen


def squared_cycle_blowup(r=9, n0=20):
    pair_set = set()
    for i in range(r):
        pair_set.add(tuple(sorted((i, (i + 1) % r))))
        pair_set.add(tuple(sorted((i, (i + 2) % r))))
    edges = []
    for i, j in sorted(pair_set):
        edges.extend(
            (i * n0 + a, j * n0 + b) for a in range(n0) for b in range(n0)
        )
    return graph.from_edges(r * n0, edges), pair_set


def test_partition_recovers_blowup_of_squared_cycle():
    g, pair_set = squared_cycle_blowup()
    res = reg.partition_heuristic(
        g,
        reference_p=0.45,
        epsilon=0.25,
        mu=0.4,
        nu=0.05,
        r_min=9,
        r_max=9,
        seed=3,
        sample_count=60,
        refine_rounds=4,
    )
    classes = res.partition.classes
    originals = [{v // 20 for v in c} for c in classes]
    assert all(len(o) == 1 for o in originals)
    lookup = [next(iter(o)) for o in originals]
    for i in range(9):
        for j in range(i + 1, 9):
            expected = tuple(sorted((lookup[i], lookup[j]))) in pair_set
            assert (j in res.reduced_adjacency[i]) == expected
    # the square of a 9-cycle is 4-regular
    assert res.reduced_degrees == dict.fromkeys(range(9), 4)


def test_equitable_partition_invariants():
    with pytest.raises(ValueError):
        reg.EquitablePartition((), ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        reg.EquitablePartition((0,), ((0, 1), (2, 3)))
    with pytest.raises(ValueError, match="equal-size"):
        reg.EquitablePartition((), ((0, 1), (2,)))
    with pytest.raises(ValueError, match="duplicate exceptional"):
        reg.EquitablePartition((4, 4), ((0, 1), (2, 3)))
    part = reg.EquitablePartition((4,), ((0, 1), (2, 3)))
    assert part.r == 2 and part.class_size() == 2
