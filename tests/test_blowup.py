import itertools
import math

import numpy as np
import pytest

from sqlab import blowup as bl
from sqlab import graph
from sqlab import regularity as reg
from sqlab.bitops import pack_bool_matrix, unpack_packed_matrix
from sqlab.squarewalk import is_square_path
from oracles import reference_triangle_counts_of_pair


def complete_chain(k, n0, reference_p=1.0):
    pairs = {}
    for i in range(k):
        for j in (i + 1, i + 2):
            if j < k:
                pairs[(i, j)] = pack_bool_matrix(np.ones((n0, n0), dtype=bool))
    classes = [tuple(range(i * n0, (i + 1) * n0)) for i in range(k)]
    return bl.ChainPartition(classes, reference_p, pairs)


def chain_pair_bool(chain, i, j):
    return unpack_packed_matrix(chain.pair(i, j), chain.n0)


def oracle_spanning_path_count(chain, e1, e2):
    """Brute force: enumerate one vertex per interior class, check every
    consecutive and distance-2 adjacency directly."""
    k = chain.n0 and chain.k
    mats = {key: chain_pair_bool(chain, *key) for key in chain.pair_indices()}

    def adj(ci, li, cj, lj):
        if ci > cj:
            ci, li, cj, lj = cj, lj, ci, li
        return bool(mats[(ci, cj)][li, lj])

    _, _, a1, b1 = chain.locate_edge(*e1)
    _, _, a2, b2 = chain.locate_edge(*e2)
    interior = range(2, chain.k - 2)
    count = 0
    for combo in itertools.product(range(chain.n0), repeat=max(0, chain.k - 4)):
        seq = [a1, b1, *combo, a2, b2]
        ok = True
        for pos in range(len(seq) - 1):
            if not adj(pos, seq[pos], pos + 1, seq[pos + 1]):
                ok = False
                break
        if ok:
            for pos in range(len(seq) - 2):
                if not adj(pos, seq[pos], pos + 2, seq[pos + 2]):
                    ok = False
                    break
        if ok:
            count += 1
    return count


# -- construction ---------------------------------------------------------------


def test_build_chain_p1_complete():
    ch = bl.build_chain_random(3, 5, 1.0, seed=0)
    for i, j in ch.pair_indices():
        assert ch.pair_edge_count(i, j) == 25


def test_build_chain_p0_edgeless():
    ch = bl.build_chain_random(4, 6, 0.0, seed=0)
    assert all(ch.pair_edge_count(i, j) == 0 for i, j in ch.pair_indices())


def test_build_chain_binomial_counts():
    ch = bl.build_chain_random(5, 500, 0.1, seed=3)
    sigma = math.sqrt(250000 * 0.1 * 0.9)
    for i, j in ch.pair_indices():
        assert abs(ch.pair_edge_count(i, j) - 25000) <= 5 * sigma


def test_build_chain_reproducible():
    a = bl.build_chain_random(4, 50, 0.3, seed=9)
    b = bl.build_chain_random(4, 50, 0.3, seed=9)
    for key in a.pair_indices():
        assert (a.pair(*key) == b.pair(*key)).all()


def test_build_chain_rejects():
    with pytest.raises(ValueError):
        bl.build_chain_random(2, 5, 0.5, 0)
    with pytest.raises(ValueError):
        bl.build_chain_random(4, 2, 0.5, 0)
    with pytest.raises(ValueError):
        bl.build_chain_random(4, 5, 1.5, 0)


def test_chain_view_complete():
    g = graph.complete(30)
    classes = [tuple(range(i * 10, (i + 1) * 10)) for i in range(3)]
    ch = bl.chain_view(g, classes)
    assert all(ch.pair_edge_count(i, j) == 100 for i, j in ch.pair_indices())


def test_chain_view_no_cross_edges_empty():
    g = graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    ch = bl.chain_view(g, [(0, 1, 2, 3), (4, 5, 6, 7)])
    assert ch.pair_edge_count(0, 1) == 0


def test_chain_view_masks_match_recount():
    g = graph.gnp(60, 0.4, seed=5)
    rng = np.random.default_rng(2)
    order = [int(v) for v in rng.permutation(60)]
    classes = [tuple(order[i * 12 : (i + 1) * 12]) for i in range(4)]
    ch = bl.chain_view(g, classes)
    for (i, j) in ch.pair_indices():
        direct = sum(
            1 for u in classes[i] for v in classes[j] if g.has_edge(u, v)
        )
        assert ch.pair_edge_count(i, j) == direct


def test_chain_view_rejects_overlap():
    g = graph.complete(6)
    with pytest.raises(ValueError):
        bl.chain_view(g, [(0, 1), (1, 2), (3, 4)])


# -- schedule ------------------------------------------------------------------


def test_prune_schedule_formulas():
    sched = bl.PruneSchedule.build(epsilon_0=0.2, steps=3, n0=100, p0=0.5)
    d1 = (0.2 / 4) ** 4 / 2
    assert sched.delta[0] == pytest.approx(d1)
    assert sched.epsilon[0] == pytest.approx(d1 / 4)
    assert sched.m[0] == math.ceil((1 - d1 / 4) * 100 * 100 * 0.5)
    # strictly decreasing chain eps0 > d1 > e1 > d2 > ...
    seq = [sched.epsilon_0]
    for d, e in zip(sched.delta, sched.epsilon):
        seq += [d, e]
    assert all(a > b for a, b in zip(seq, seq[1:]))


def direct_schedule(epsilon_0, steps, n0, p0):
    """(delta, epsilon, m) by the plain float recursion with eps_i = delta_i / 4."""
    deltas, epsilons, ms = [], [], []
    prev = epsilon_0
    for _ in range(steps):
        d = (prev / 4) ** 4 / 2
        prev = d / 4
        deltas.append(d)
        epsilons.append(prev)
        ms.append(math.ceil((1 - prev) * n0 * n0 * p0))
    return tuple(deltas), tuple(epsilons), tuple(ms)


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("epsilon", [0.1, 0.2, 0.35, 0.5])
def test_prune_schedule_short_chains_exact_floats(k, epsilon):
    sched = bl.PruneSchedule.build(epsilon, k - 2, 1500, 0.35)
    assert (sched.delta, sched.epsilon, sched.m) == direct_schedule(epsilon, k - 2, 1500, 0.35)
    assert not sched.underflows


@pytest.mark.parametrize("k", [6, 7, 8, 9])
@pytest.mark.parametrize("epsilon", [0.1, 0.2, 0.5])
def test_prune_default_schedule_long_chains(k, epsilon):
    sched = bl.PruneSchedule.build(epsilon, k - 2, 12, 0.5)
    assert (sched.delta, sched.epsilon, sched.m) == direct_schedule(epsilon, k - 2, 12, 0.5)
    assert sched.underflows and sched.delta[-1] == 0.0
    res = bl.prune_to_gtilde(bl.build_chain_random(k, 12, 0.5, seed=k), epsilon)
    assert res.schedule_underflow
    assert 0 < sum(res.removed.values())
    for step, d in enumerate(sched.delta):
        if d == 0.0:  # the bound is below one edge, so the flag reads "removed any"
            key = (step, step + 1)
            assert res.flagged[key] == (res.removed[key] > 0)


def test_prune_default_schedule_still_refuses_a_rising_one():
    # for epsilon_0 >= 8, delta_1 = (epsilon_0 / 4)^4 / 2 is not below it
    with pytest.raises(ValueError, match="strictly decreasing"):
        bl.PruneSchedule.build(10.0, 2, 100, 0.5)


# -- pruning -------------------------------------------------------------------


def test_prune_complete_chain_no_removals():
    ch = complete_chain(5, 8)
    res = bl.prune_to_gtilde(ch, 0.1)
    assert sum(res.removed.values()) == 0
    assert not any(res.flagged.values())


def test_prune_constructed_single_edge():
    # one edge of the first-processed pair loses all triangle support; with
    # reference_p = 0.5 the threshold is low enough that nothing else goes
    ch = complete_chain(5, 8, reference_p=0.5)
    u, v = 2, 3  # locals in classes 2 and 3
    B = unpack_packed_matrix(ch.pair(2, 4), 8)
    C = unpack_packed_matrix(ch.pair(3, 4), 8)
    B[u, :] = False
    B[u, :4] = True
    C[v, :] = False
    C[v, 4:] = True
    ch._pairs[(2, 4)] = pack_bool_matrix(B)
    ch._pairs[(3, 4)] = pack_bool_matrix(C)
    res = bl.prune_to_gtilde(ch, 0.1)
    assert res.removed[(2, 3)] == 1
    assert res.removed[(1, 2)] == 0 and res.removed[(0, 1)] == 0
    survived = chain_pair_bool(res.chain, 2, 3)
    assert not survived[u, v]
    assert survived.sum() == 63


def test_prune_random_chain_moderate_regime():
    # frozen Monte Carlo at a desk-feasible regime (threshold ~2 sigma below
    # the triangle mean): per-pair removal stays below 8% and pruning is
    # idempotent; every surviving processed edge keeps enough triangles
    ch = bl.build_chain_random(5, 1500, 0.35, seed=2)
    res = bl.prune_to_gtilde(ch, 0.15)
    for key, frac in res.removed_fraction.items():
        assert frac <= 0.08, (key, frac)
    again = bl.prune_to_gtilde(res.chain, 0.15)
    assert sum(again.removed.values()) == 0
    tau = res.threshold
    for i in range(3):
        counts = reference_triangle_counts_of_pair(res.chain, i)
        assert all(c >= tau for c in counts.values())


def test_prune_flags_fire_on_heavy_removal():
    ch = bl.build_chain_random(4, 300, 0.15, seed=1)
    res = bl.prune_to_gtilde(ch, 0.1)
    assert any(res.flagged.values())
    assert sum(res.removed.values()) > 0


def test_prune_refuses_epsilon_outside_unit_interval():
    # above 1 the triangle threshold tau is negative and nothing is pruned;
    # below 0 more is pruned than at epsilon 0
    ch = bl.build_chain_random(5, 12, 0.5, seed=1)
    for epsilon in (-0.5, 0.0, 1.0, 3.0, float("nan")):
        with pytest.raises(ValueError, match="epsilon"):
            bl.prune_to_gtilde(ch, epsilon)


# -- property (ii) --------------------------------------------------------------


def test_check_ii_complete_chain():
    ch = complete_chain(4, 10)
    out = bl.check_gtilde_ii(ch, 0.2, 1.0, sample_count=10, seed=0)
    assert out == {1: 0, 2: 0}


def test_check_ii_isolated_middle_vertex():
    ch = complete_chain(3, 8)
    A = unpack_packed_matrix(ch.pair(0, 1), 8)
    B = unpack_packed_matrix(ch.pair(1, 2), 8)
    A[:, 5] = False  # vertex 5 of the middle class loses its left side
    B[5, :] = False
    ch._pairs[(0, 1)] = pack_bool_matrix(A)
    ch._pairs[(1, 2)] = pack_bool_matrix(B)
    out = bl.check_gtilde_ii(ch, 0.2, 1.0, sample_count=10, seed=0)
    assert out[1] == 1


def test_check_ii_random_chain_within_budget():
    # frozen: n0 p0 = 480 keeps the size window at 3.5 sigma, so exception
    # counts stay far below the eps n0 budget
    ch = bl.build_chain_random(4, 800, 0.6, seed=5)
    out = bl.check_gtilde_ii(ch, 0.1, 0.6, sample_count=10, seed=1)
    for middle, count in out.items():
        assert count <= 0.1 * 800


def test_check_ii_refuses_zero_samples():
    # zero samples would certify every neighbourhood pair that passes the
    # size window, as all 24 here do; 5 samples find an exception in middle
    # class 2
    ch = bl.build_chain_random(4, 12, 0.5, seed=1)
    assert bl.check_gtilde_ii(ch, 0.5, 0.5, sample_count=5, seed=1) == {1: 0, 2: 1}
    with pytest.raises(ValueError):
        bl.check_gtilde_ii(ch, 0.5, 0.5, sample_count=0, seed=1)


def test_check_ii_samples_each_middle_class_in_one_run(monkeypatch):
    # one sampling run per middle class, over the flank sub-pairs of all its
    # vertices inside the size window (16.8 to 31.2 neighbours a side here)
    runs = []
    real = reg._sampled_test

    def spy(counter, sizes, pairs, *args, **kwargs):
        runs.append(len(pairs))
        return real(counter, sizes, pairs, *args, **kwargs)

    monkeypatch.setattr(reg, "_sampled_test", spy)
    ch = bl.build_chain_random(6, 40, 0.6, seed=2)
    out = bl.check_gtilde_ii(ch, 0.3, 0.6, sample_count=10, seed=1)
    outside = []
    for i in range(ch.k - 2):
        left = unpack_packed_matrix(ch.pair(i, i + 1), 40).sum(axis=0)
        right = unpack_packed_matrix(ch.pair(i + 1, i + 2), 40).sum(axis=1)
        sizes = np.stack([left, right])
        outside.append(40 - int(((sizes >= 16.8) & (sizes <= 31.2)).all(axis=0).sum()))
    assert len(runs) == ch.k - 2
    assert runs == [40 - x for x in outside]
    assert all(count >= x for count, x in zip(out.values(), outside))


def test_check_ii_refuses_zero_samples_on_empty_neighbourhoods():
    # at epsilon 1 on an edgeless chain every neighbourhood is empty and
    # passes the size window, so each verdict is read off an empty flank pair
    ch = bl.build_chain_random(3, 6, 0.0, seed=1)
    with pytest.raises(ValueError):
        bl.check_gtilde_ii(ch, 1.0, 0.5, sample_count=0, seed=2)


@pytest.mark.parametrize(
    "epsilon, reference_p, sample_count",
    [(0.01, 0.9, 0), (-0.5, 0.9, 10), (float("nan"), 0.9, 10), (0.01, -0.5, 10)],
    ids=["zero-samples", "negative-epsilon", "nan-epsilon", "negative-p"],
)
def test_check_ii_refuses_bad_sampling_arguments_before_any_work(
    epsilon, reference_p, sample_count
):
    # no neighbourhood of this chain passes the size window under any of these
    # arguments, so no vertex reaches the sampled test, which used to be the
    # only place they were checked: each call returned {1: 12}
    ch = bl.build_chain_random(3, 12, 0.5, seed=1)
    with pytest.raises(ValueError):
        bl.check_gtilde_ii(ch, epsilon, reference_p, sample_count=sample_count, seed=1)


# -- edge expansion ----------------------------------------------------------------


def kernel_fraction(chain, a, b):
    return bl.ChainLayers.from_chain(chain).expansion_fractions([(a, b)])[0]


def test_edge_expansion_complete_chain_full():
    assert kernel_fraction(complete_chain(6, 6), 0, 0) == 1.0


def test_edge_expansion_isolated_first_edge():
    ch = complete_chain(4, 8, reference_p=0.5)
    B = unpack_packed_matrix(ch.pair(0, 2), 8)
    C = unpack_packed_matrix(ch.pair(1, 2), 8)
    B[0, :] = False
    B[0, :4] = True
    C[0, :] = False
    C[0, 4:] = True
    ch._pairs[(0, 2)] = pack_bool_matrix(B)
    ch._pairs[(1, 2)] = pack_bool_matrix(C)
    assert kernel_fraction(ch, 0, 0) == 0.0


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("n0", [3, 4])
@pytest.mark.parametrize("p0", [0.4, 0.7, 1.0])
def test_expansion_counts_real_square_paths(k, n0, p0):
    """A reached last-pair edge ends a real square path: brute force over
    every one-vertex-per-class sequence, checked by is_square_path on the
    chain as a graph."""
    for seed in (1, 2, 3):
        ch = bl.build_chain_random(k, n0, p0, seed)
        g = graph.from_edges(
            k * n0,
            [
                (ch.to_global(i, u), ch.to_global(j, v))
                for i, j in ch.pair_indices()
                for u, v in ch.pair_edges_local(i, j)
            ],
        )
        total = ch.pair_edge_count(k - 2, k - 1)
        for a, b in ch.pair_edges_local(0, 1):
            ends = set()
            for rest in itertools.product(range(n0), repeat=k - 2):
                seq = (a, b, *rest)
                if is_square_path(g, [ch.to_global(c, x) for c, x in enumerate(seq)]):
                    ends.add(seq[-2:])
            assert kernel_fraction(ch, a, b) == (len(ends) / total if total else 0.0)


# -- path counting -----------------------------------------------------------------


def test_count_complete_chain_exact():
    ch = complete_chain(6, 4)
    e1 = (ch.to_global(0, 0), ch.to_global(1, 0))
    e2 = (ch.to_global(4, 0), ch.to_global(5, 0))
    assert bl.count_square_paths_between(ch, e1, e2) == 16


def test_count_no_successors_zero():
    ch = complete_chain(5, 6, reference_p=0.5)
    B = unpack_packed_matrix(ch.pair(0, 2), 6)
    B[0, :] = False
    ch._pairs[(0, 2)] = pack_bool_matrix(B)
    e1 = (ch.to_global(0, 0), ch.to_global(1, 0))
    e2 = (ch.to_global(3, 0), ch.to_global(4, 0))
    assert bl.count_square_paths_between(ch, e1, e2) == 0


@pytest.mark.parametrize(
    "k,n0,p0,seed",
    [(4, 8, 0.6, 3), (5, 7, 0.5, 4), (6, 6, 0.5, 5), (6, 6, 0.7, 6), (7, 5, 0.6, 7)],
)
def test_count_matches_bruteforce(k, n0, p0, seed):
    ch = bl.build_chain_random(k, n0, p0, seed)
    first = ch.pair_edges_local(0, 1)
    last = ch.pair_edges_local(k - 2, k - 1)
    if not first or not last:
        pytest.skip("degenerate chain")
    rng = np.random.default_rng(seed)
    for _ in range(10):
        a, b = first[int(rng.integers(len(first)))]
        c, d = last[int(rng.integers(len(last)))]
        e1 = (ch.to_global(0, a), ch.to_global(1, b))
        e2 = (ch.to_global(k - 2, c), ch.to_global(k - 1, d))
        assert bl.count_square_paths_between(ch, e1, e2) == oracle_spanning_path_count(
            ch, e1, e2
        )


def test_count_consistency_with_forward_dp():
    ch = bl.build_chain_random(5, 25, 0.4, seed=23)
    first = ch.pair_edges_local(0, 1)
    e1 = (ch.to_global(0, first[0][0]), ch.to_global(1, first[0][1]))
    forward = bl.square_path_counts_from(ch, e1)
    total_bidir = sum(
        bl.count_square_paths_between(ch, e1, e2) for e2 in forward
    )
    assert total_bidir == sum(forward.values())
    for e2, cnt in list(forward.items())[:10]:
        assert bl.count_square_paths_between(ch, e1, e2) == cnt
