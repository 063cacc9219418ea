import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sqlab import graph
from sqlab.bitops import mask_of
from oracles import oracle_common_neighbors, oracle_triangle_total


def test_gnp_p_zero_edgeless():
    g = graph.gnp(5, 0.0, 123)
    assert g.n == 5 and g.edge_count == 0


def test_gnp_p_one_complete():
    g = graph.gnp(5, 1.0, 9)
    assert g.edge_count == 10


def test_gnp_edge_count_binomial():
    # Bin(C(1000,2), 0.1): mean 49950, allow 4 sigma
    g = graph.gnp(1000, 0.1, seed=1)
    pairs = 1000 * 999 // 2
    sigma = math.sqrt(pairs * 0.1 * 0.9)
    assert abs(g.edge_count - pairs * 0.1) <= 4 * sigma


def test_gnp_reproducible():
    a = graph.gnp(200, 0.13, 42)
    b = graph.gnp(200, 0.13, 42)
    assert a == b
    assert a != graph.gnp(200, 0.13, 43)


def test_gnp_rejects_bad_probability():
    with pytest.raises(ValueError):
        graph.gnp(10, 1.5, 0)
    with pytest.raises(ValueError):
        graph.gnp(10, -0.1, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        graph.gnp(-1, 0.5, 0)


@pytest.mark.parametrize(
    "edges,message",
    [([(1, 1)], "self-loop"), ([(0, 3)], "out of range"), ([(-1, 0)], "out of range"),
     ([(0, 1), (1, 0)], "duplicate edge")],
    ids=["self-loop", "too-large", "negative", "duplicate"],
)
def test_from_edges_rejects_bad_edges(edges, message):
    with pytest.raises(ValueError, match=message):
        graph.from_edges(3, edges)


def test_graph_is_an_immutable_value():
    g = graph.from_edges(3, [(0, 1), (1, 2)])
    assert g == graph.Graph(3, [2, 5, 2]) and g != graph.Graph(3, [2, 1, 0])
    assert hash(g) == hash((3, (2, 5, 2)))
    assert repr(g) == "Graph(n=3, m=2)"
    with pytest.raises(AttributeError):
        g.n = 4
    with pytest.raises(AttributeError):
        g.edge_count = 0
    with pytest.raises(ValueError, match="2 rows for n=3"):
        graph.Graph(3, [0, 0])
    assert graph.empty(0).min_degree() == 0
    # validate() catches rows that no constructor builds
    for rows, fault in (([1, 0], "self-loop"), ([4, 0], "beyond n"), ([2, 0], "asymmetric")):
        with pytest.raises(AssertionError, match=fault):
            graph.Graph(2, rows).validate()


@given(st.integers(0, 40), st.floats(0, 1), st.integers(0, 2**32))
def test_gnp_invariants(n, p, seed):
    g = graph.gnp(n, p, seed)
    g.validate()


@given(st.data())
def test_matrix_round_trip(data):
    n = data.draw(st.integers(0, 70))
    p = data.draw(st.floats(0, 1))
    draws = np.random.default_rng(data.draw(st.integers(0, 2**32))).random(n * n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if draws[u * n + v] < p]
    g = graph.from_edges(n, edges)

    back = graph.from_matrix(graph.to_matrix(g))
    assert back == g and back.edge_count == g.edge_count

    rows = data.draw(st.lists(st.integers(0, n - 1))) if n else []
    m = graph.to_matrix(g, rows)
    assert m.dtype == bool and m.shape == (len(rows), n)
    assert m.tolist() == [[bool((g.adjacency[u] >> v) & 1) for v in range(n)] for u in rows]


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
def test_to_words_layout(n):
    g = graph.gnp(n, 0.5, n)
    words = math.ceil(n / 64)
    full = graph.to_words(g)
    assert full.shape == (n, words) and full.dtype == np.uint64
    # row u is the int bitset of u, word by word, and the padding bits are zero
    assert [int.from_bytes(row.tobytes(), "little") for row in full] == list(g.adjacency)
    bits = np.unpackbits(full.view(np.uint8), axis=1, bitorder="little")
    assert bits.shape == (n, 64 * words)
    assert np.array_equal(bits[:, :n].view(bool), graph.to_matrix(g)) and not bits[:, n:].any()
    rows = [n - 1, 0, n // 2, n - 1] if n else []
    sub = graph.to_words(g, rows)
    assert sub.shape == (len(rows), words) and np.array_equal(sub, full[rows])
    assert graph.to_words(g, []).shape == (0, words)
    back = graph.from_words(full)
    assert back == g and back.edge_count == g.edge_count


@pytest.mark.parametrize("shape", [(5, 2), (5, 0), (65, 1), (2, 1, 1)])
def test_from_words_refuses_other_shapes(shape):
    with pytest.raises(ValueError, match="word rows of shape"):
        graph.from_words(np.zeros(shape, dtype=np.uint64))


@pytest.mark.parametrize(
    "rows,error,message",
    [([-1], ValueError, "vertex -1 out of range"), ([5], ValueError, "vertex 5 out of range"),
     ([1.0], TypeError, "float")],
    ids=["negative", "too-large", "float"],
)
def test_packed_rows_check_vertex_ids(rows, error, message):
    g = graph.gnp(5, 0.5, 1)
    for to_rows in (graph.to_words, graph.to_matrix):
        with pytest.raises(error, match=message):
            to_rows(g, rows)
    # numpy integer ids are taken
    assert np.array_equal(graph.to_words(g, np.array([4, 0])), graph.to_words(g)[[4, 0]])


def test_triangle_sum_identity():
    # sum over edges of per-edge triangle counts = 3 * (#triangles)
    for seed in (1, 2, 3):
        g = graph.gnp(40, 0.3, seed)
        total = sum(len(oracle_common_neighbors(g, u, v)) for u, v in g.edges())
        assert total == 3 * oracle_triangle_total(g)


def test_without_edges_and_subgraph_mask():
    g = graph.complete(4)
    h = g.without_edges([(0, 1)])
    assert h.edge_count == 5 and not h.has_edge(0, 1)
    with pytest.raises(ValueError):
        h.without_edges([(0, 1)])


def test_mask_of_takes_numpy_integer_ids():
    # 1 << np.int64(70) wraps in 64 bits; the bitset must keep bit 70
    m = mask_of(np.array([70, 3]))
    assert type(m) is int and m == (1 << 70) | (1 << 3)
