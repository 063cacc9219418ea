import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqlab import adversary as adv
from sqlab import graph
from sqlab import regularity as reg
from sqlab import squarewalk as sw
from sqlab.adversary import independent_blocker
from sqlab.bitops import bits, mask_of
from sqlab.util import rng_from
from oracles import oracle_longest_square_path


def cycle_graph(n):
    return graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def squared_cycle_graph(n):
    edges = set()
    for i in range(n):
        edges.add(tuple(sorted((i, (i + 1) % n))))
        edges.add(tuple(sorted((i, (i + 2) % n))))
    return graph.from_edges(n, sorted(edges))


def test_edge_states_counts():
    assert len(sw.edge_states(graph.complete(3))) == 6
    assert sw.edge_states(graph.empty(4)) == []
    g = graph.gnp(100, 0.1, seed=2)
    assert len(sw.edge_states(g)) == 2 * g.edge_count


# -- the one search ---------------------------------------------------------------


def test_search_square_paths_order_and_lazy_roots():
    log = []

    def roots():
        for root in ((0, 1, 0b11, [0, 1]), (8, 9, 0b11 << 8, [8, 9])):
            log.append("draw")
            yield root

    def expand(cu, cv, visited, seq):
        log.append((cu, cv, visited, seq))
        if seq == [0, 1]:
            return 0b1100  # a bitset: 2 pushed before 3
        if seq == [8, 9]:
            return [5, 4]  # a sequence: pushed as given
        return 0

    assert sw.search_square_paths(roots(), expand) == (6, False)
    assert log == [
        "draw",
        (0, 1, 0b11, [0, 1]),
        (1, 3, 0b1011, [0, 1, 3]),
        (1, 2, 0b111, [0, 1, 2]),
        "draw",
        (8, 9, 0b11 << 8, [8, 9]),
        (9, 4, 0b1100010000, [8, 9, 4]),
        (9, 5, 0b1100100000, [8, 9, 5]),
    ]


def test_search_square_paths_stop_and_budget():
    def chain(cu, cv, visited, seq):
        return None if len(seq) == 4 else 1 << len(seq)

    assert sw.search_square_paths([(0, 1, 0b11, [0, 1])], chain) == (3, False)
    for budget, want in ((0, (0, True)), (2, (2, True)), (3, (3, False))):
        assert sw.search_square_paths([(0, 1, 0b11, [0, 1])], chain, budget) == want
    assert sw.search_square_paths([], chain, 0) == (0, False)
    with pytest.raises(ValueError, match="node_budget"):
        sw.search_square_paths([(0, 1, 0b11, [0, 1])], chain, -1)


PUBLIC_SEARCHES = [
    sw.longest_square_path_exact,
    sw.has_square_hamilton_cycle,
    lambda g, budget: sw.has_square_cycle_through(g, 0, node_budget=budget),
]


@pytest.mark.parametrize("search", PUBLIC_SEARCHES, ids=["path", "hamilton", "through"])
def test_public_searches_share_the_budget_rule(search):
    g = graph.complete(6)
    with pytest.raises(ValueError, match="node_budget"):
        search(g, -1)
    res = search(g, 0)
    assert res.nodes == 0
    assert getattr(res, "status", None) == "unknown" or not res.optimal
    assert search(g, None).nodes > 0


def test_is_square_path_basics():
    k4 = graph.complete(4)
    assert sw.is_square_path(k4, [0, 1, 2, 3])
    c5 = cycle_graph(5)
    assert not sw.is_square_path(c5, [0, 1, 2])
    c6 = cycle_graph(6)
    for seq in ([0, 1, 2], [1, 2, 3, 4], [0, 1, 2, 3, 4, 5]):
        assert not sw.is_square_path(c6, seq)
    assert sw.is_square_path(c6, [0, 1])
    assert sw.is_square_path(c6, [3])
    assert not sw.is_square_path(k4, [0, 0])
    assert not sw.is_square_path(k4, [0, 1, 0])


def brute_force_square_cycle(g, seq):
    """The definition: at least 5 distinct ids in range, each adjacent to the
    next two around the cycle."""
    edges = set(g.edges())
    m = len(seq)
    return (
        m >= 5
        and len(set(seq)) == m
        and all(0 <= v < g.n for v in seq)
        and all(
            tuple(sorted((seq[i], seq[(i + d) % m]))) in edges for i in range(m) for d in (1, 2)
        )
    )


@st.composite
def graphs_and_sequences(draw):
    """G(n <= 10, p) and ids from [-2, n + 1], repeats allowed; or G(n, p)
    plus the square-path edges of a prefix of a vertex permutation, and that
    prefix, so that only its wrap-around adjacencies decide the verdict."""
    n = draw(st.integers(0, 10))
    g = graph.gnp(n, draw(st.sampled_from([0.3, 0.6, 0.9])), draw(st.integers(0, 20)))
    if draw(st.booleans()):
        return g, draw(st.lists(st.integers(-2, n + 1), max_size=n + 3))
    prefix = draw(st.permutations(range(n)))[: draw(st.integers(min(5, n), n))]
    chords = {tuple(sorted((u, w))) for i, u in enumerate(prefix) for w in prefix[i + 1 : i + 3]}
    return graph.from_edges(n, sorted(set(g.edges()) | chords)), prefix


@settings(max_examples=500)
@given(graphs_and_sequences())
def test_is_square_cycle_matches_definition(case):
    # the bench re-checks its cycles with this same function; each wrap-around
    # adjacency alone decides only a few draws in a hundred, hence the count
    g, seq = case
    assert sw.is_square_cycle(g, seq) == brute_force_square_cycle(g, seq)


def test_longest_exact_small_cases():
    assert len(sw.longest_square_path_exact(graph.complete(5)).path) == 5
    assert len(sw.longest_square_path_exact(cycle_graph(6)).path) == 2
    assert len(sw.longest_square_path_exact(graph.empty(3)).path) == 1
    with pytest.raises(ValueError, match="empty graph"):
        sw.longest_square_path_exact(graph.empty(0))


def test_longest_exact_matches_oracle():
    cases = []
    seed = 0
    for n in range(6, 11):
        for p in (0.3, 0.5, 0.7):
            for _ in range(4):
                cases.append(graph.gnp(n, p, seed=1000 + seed))
                seed += 1
    for g in cases:
        res = sw.longest_square_path_exact(g)
        assert res.optimal
        assert len(res.path) == oracle_longest_square_path(g)
        assert sw.is_square_path(g, res.path.vertices)


def test_longest_exact_budget_flag():
    g = graph.complete(9)
    res = sw.longest_square_path_exact(g, node_budget=3)
    assert not res.optimal
    assert sw.is_square_path(g, res.path.vertices)


def test_greedy_independent_set_takes_least_degree_first():
    # path 0-1-2-3-4: 0 (degree 1, smallest id), then 2 (degree 1 among
    # 2, 3, 4), then 4
    assert sw._greedy_independent_set(graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])) == 0b10101
    # star: every leaf before the centre
    assert sw._greedy_independent_set(graph.from_edges(5, [(0, v) for v in range(1, 5)])) == 0b11110
    assert sw._greedy_independent_set(graph.complete(6)) == 1
    assert sw._greedy_independent_set(graph.empty(4)) == 0b1111


@pytest.mark.parametrize("seed", range(60))
def test_greedy_independent_set_is_maximal(seed):
    g = graph.gnp(3 + seed % 20, (seed % 9 + 1) / 10, seed)
    indep = sw._greedy_independent_set(g)
    for v in range(g.n):
        if (indep >> v) & 1:
            assert not g.adjacency[v] & indep
        else:
            assert g.adjacency[v] & indep


def longest_extension(g, cu, cv, visited):
    """Brute force: most vertices a square path ending (cu, cv) can add."""
    adj = g.adjacency
    best = 0
    stack = [(cu, cv, visited, 0)]
    while stack:
        a, b, seen, added = stack.pop()
        best = max(best, added)
        for w in range(g.n):
            if not (seen >> w) & 1 and (adj[a] >> w) & 1 and (adj[b] >> w) & 1:
                stack.append((b, w, seen | (1 << w), added + 1))
    return best


def bfs_reach(g):
    """Per vertex v, the vertices that one or more steps out of v reach, by
    breadth-first search, where a step from x goes to any w in N(x) with a
    neighbour in N(x)."""
    nbrs = [set(g.neighbors(x)) for x in range(g.n)]
    step = [{w for w in nx if nx & nbrs[w]} for nx in nbrs]
    out = []
    for v in range(g.n):
        seen, frontier = set(), step[v]
        while frontier:
            seen |= frontier
            frontier = set().union(*(step[x] for x in frontier)) - seen
        out.append(seen)
    return out


@pytest.mark.parametrize("seed", range(5))
def test_vertex_reach_closure_matches_bfs(seed):
    """The boolean-matrix closure against a BFS over the step relation on
    G(n, p) at n <= 40, their blockers, and the one-vertex, edgeless and
    complete graphs."""
    graphs = [graph.empty(1), graph.empty(7), graph.complete(2), graph.complete(8)]
    for n in range(2, 41, 6):
        for p in (0.1, 0.3, 0.6, 0.9):
            g = graph.gnp(n, p, seed)
            graphs += [g, independent_blocker(g, 0.5, seed)[0]]
    for g in graphs:
        assert sw._vertex_reach_closure(g) == list(map(mask_of, bfs_reach(g)))


@pytest.mark.parametrize("seed", range(40))
def test_exact_bounds_cover_every_extension(seed):
    """Both bounds of longest_square_path_exact, restated here and evaluated
    at random partial square paths, are at least the longest extension found
    by brute force."""
    rng = rng_from(seed)
    n = int(rng.integers(3, 10))
    g = graph.gnp(n, float(rng.choice([0.4, 0.6, 0.8, 0.95])), seed)
    if seed % 2:
        g, _ = independent_blocker(g, 0.5, seed)
    states = sw.edge_states(g)
    if not states:
        return
    reach = sw._vertex_reach_closure(g)
    indep = sw._greedy_independent_set(g)
    for _ in range(30):
        cu, cv = states[int(rng.integers(len(states)))]
        visited = (1 << cu) | (1 << cv)
        for _ in range(int(rng.integers(0, n))):
            cand = list(bits(g.adjacency[cu] & g.adjacency[cv] & ~visited))
            if not cand:
                break
            w = cand[int(rng.integers(len(cand)))]
            cu, cv, visited = cv, w, visited | (1 << w)
        avail = reach[cv] & ~visited
        off = 0 if (indep >> cv) & 1 else 1 if (indep >> cu) & 1 else 2
        ext = longest_extension(g, cu, cv, visited)
        assert avail.bit_count() >= ext
        assert (3 * (avail & ~indep).bit_count() + off) // 2 >= ext


def test_hamilton_k7():
    res = sw.has_square_hamilton_cycle(graph.complete(7))
    assert res.status == "found"
    assert sw.is_square_cycle(graph.complete(7), res.cycle.vertices)
    assert len(res.cycle) == 7


def test_hamilton_tripartite_none():
    from sqlab.adversary import tripartite_template

    res = sw.has_square_hamilton_cycle(tripartite_template(2))
    assert res.status == "none"


def test_hamilton_squared_cycle_is_own_certificate():
    g = squared_cycle_graph(8)
    res = sw.has_square_hamilton_cycle(g)
    assert res.status == "found"
    assert len(res.cycle) == 8


def test_hamilton_budget_unknown():
    g = graph.complete(12)
    res = sw.has_square_hamilton_cycle(g, node_budget=2)
    assert res.status == "unknown"


def test_hamilton_below_five_none():
    assert sw.has_square_hamilton_cycle(graph.complete(4)).status == "none"


def test_square_cycle_through():
    g = squared_cycle_graph(9)
    res = sw.has_square_cycle_through(g, 3)
    assert res.status == "found"
    assert 3 in res.cycle.vertices
    lone = graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert sw.has_square_cycle_through(lone, 3).status == "none"


def test_square_cycle_through_takes_a_numpy_integer_vertex():
    g = graph.gnp(100, 0.5, 3)
    res = sw.has_square_cycle_through(g, np.int64(70))
    assert res.status == "found" and 70 in res.cycle.vertices


def test_numpy_vertex_ids_give_the_python_int_answers():
    # a Python-int row shifted by a numpy integer overflows once the row has
    # a bit past 63, which nearly every row of G(200, 0.5) has
    g = graph.gnp(200, 0.5, 4)
    for u, v in [(0, 199), (150, 70), (3, 4), (199, 198), (64, 63)]:
        for cast in (np.int64, np.int32, np.uint64):
            assert g.has_edge(cast(u), cast(v)) == g.has_edge(u, v)
    removed = list(g.edges())[::97]
    assert g.without_edges(np.array(removed)) == g.without_edges(removed)

    path = list(sw.greedy_square_path(g, 4).vertices)
    cycle = list(sw.has_square_cycle_through(g, 150).cycle.vertices)
    for seq in (path, cycle, path[::-1], cycle[1:], path[:3] + path[4:], [5]):
        for ids in (np.array(seq), [np.int64(v) for v in seq]):
            assert sw.is_square_path(g, ids) == sw.is_square_path(g, seq)
            assert sw.is_square_cycle(g, ids) == sw.is_square_cycle(g, seq)
    assert sw.is_square_cycle(g, np.array(cycle)) and not sw.is_square_path(g, np.array(path[:3] + path[4:]))
    # the checked objects hold Python ints, so they serialise
    assert sw.SquarePath.checked(g, np.array(path)).to_json() == sw.SquarePath.checked(g, path).to_json()
    assert sw.SquareCycle.checked(g, np.array(cycle)).to_json() == sw.SquareCycle.checked(g, cycle).to_json()

    # floats are still refused
    with pytest.raises(TypeError):
        g.has_edge(150.0, 70)
    with pytest.raises(TypeError):
        g.without_edges([(0.0, 199)])
    with pytest.raises(TypeError):
        sw.is_square_path(g, [float(v) for v in path])
    # an out-of-range id is refused by name, not read from the row at -1
    for bad in [(-1, 0), (200, 0), (np.int64(-1), 0)]:
        with pytest.raises(ValueError, match="out of range"):
            g.without_edges([bad])


# the entry points that take vertex ids, each called with the ids
# (150, 70, 199, 3) of G(200, 0.5)
ID_ENTRY_POINTS = {
    "from_edges": lambda g, ids: graph.from_edges(g.n, [ids[:2], ids[2:]]),
    "mask_of": lambda g, ids: mask_of(ids),
    "BipartitePairView": lambda g, ids: reg.BipartitePairView(g, ids[:2], ids[2:]),
    "density": lambda g, ids: reg.density(g, ids[:2], ids[2:]),
    "degree": lambda g, ids: g.degree(ids[0]),
    "neighbors": lambda g, ids: list(g.neighbors(ids[0])),
    "neighborhood_wipe": lambda g, ids: adv.neighborhood_wipe(g, ids[0]),
    "has_square_cycle_through": lambda g, ids: sw.has_square_cycle_through(g, ids[0]).cycle,
}


@pytest.mark.parametrize("call", ID_ENTRY_POINTS.values(), ids=ID_ENTRY_POINTS)
def test_entry_points_take_numpy_ids_and_refuse_floats(call):
    g = graph.gnp(200, 0.5, 4)
    ids = [150, 70, 199, 3]
    want = call(g, ids)
    for cast in (np.int64, np.int32, np.uint64):
        got = call(g, [cast(v) for v in ids])
        # numpy 2 names the type in a scalar's repr: equal reprs mean the
        # answer holds Python ints
        assert got == want and repr(got) == repr(want)
    # a float is refused, not truncated to the id below it
    with pytest.raises(TypeError):
        call(g, [v + 0.5 for v in ids])
    with pytest.raises(ValueError):
        call(g, [-1, *ids[1:]])


def test_greedy_complete_graph_spans():
    for n in (5, 9, 14):
        g = graph.complete(n)
        for seed in (0, 1, 7):
            p = sw.greedy_square_path(g, seed)
            assert len(p) == n


def test_greedy_triangle_free_stops_at_edge():
    c8 = cycle_graph(8)
    assert len(sw.greedy_square_path(c8, 3)) == 2


def test_greedy_deterministic_and_valid():
    g = graph.gnp(300, 0.15, 21)
    a = sw.greedy_square_path(g, seed=5)
    b = sw.greedy_square_path(g, seed=5)
    assert a.vertices == b.vertices
    assert sw.is_square_path(g, a.vertices)


@given(st.integers(5, 30), st.floats(0.2, 0.9), st.integers(0, 10**6))
def test_path_reversal_property(n, p, seed):
    g = graph.gnp(n, p, seed)
    path = sw.greedy_square_path(g, seed)
    assert sw.is_square_path(g, path.vertices)
    assert sw.is_square_path(g, path.vertices[::-1])


def test_serialization():
    g = graph.complete(5)
    p = sw.SquarePath.checked(g, [0, 1, 2])
    assert p.to_json() == "[0, 1, 2]"
    res = sw.has_square_hamilton_cycle(g)
    assert res.cycle.to_json().startswith("[")


def test_checked_constructors_reject():
    g = cycle_graph(6)
    with pytest.raises(ValueError):
        sw.SquarePath.checked(g, [0, 1, 2])
    with pytest.raises(ValueError):
        sw.SquareCycle.checked(g, [0, 1, 2, 3, 4, 5])
