"""Independent brute-force oracles and bitset reference implementations.

The oracles deliberately share no code with the search implementations they
check: plain prefix enumeration and triple loops, pruned only on adjacency.

The reference implementations at the end are the earlier Python-int bitset
versions of ``gnp``, ``per_vertex_deletion``, the regularity tester's
``_GraphCounter`` and ``greedy_square_path``, kept verbatim so the
matrix-backed code can be held to bit-identical outputs.  The counter's
``edge_count``, which ``partition_heuristic`` now reads for each pair's
density, is added on top of the bitset ``count``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from sqlab.bitops import bits, mask_of
from sqlab.graph import Graph
from sqlab.squarewalk import SquarePath
from sqlab.util import rng_from


def oracle_longest_square_path(g: Graph) -> int:
    """Exhaustive vertex-sequence prefix enumeration, adjacency pruning only."""
    if g.n == 0:
        return 0
    adj = g.adjacency
    best = 1
    full = (1 << g.n) - 1

    stack = [(v, -1, 1 << v, 1) for v in range(g.n)]
    while stack:
        last, second, visited, length = stack.pop()
        if length > best:
            best = length
        cand = adj[last] & ~visited
        if second >= 0:
            cand &= adj[second]
        while cand:
            low = cand & -cand
            w = low.bit_length() - 1
            cand ^= low
            stack.append((w, last, visited | low, length + 1))
    return best


def oracle_triangle_total(g: Graph) -> int:
    """Number of triangles by an independent triple loop."""
    count = 0
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if not g.has_edge(a, b):
                continue
            for c in range(b + 1, g.n):
                if g.has_edge(a, c) and g.has_edge(b, c):
                    count += 1
    return count


def oracle_common_neighbors(g: Graph, u: int, v: int) -> set[int]:
    return {w for w in range(g.n) if g.has_edge(u, w) and g.has_edge(v, w)}


def oracle_degree_into(g: Graph, v: int, s) -> int:
    return sum(1 for w in s if g.has_edge(v, w))


# ---------------------------------------------------------------------------
# bitset reference implementations (rng call order is part of the contract)


def reference_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with a fixed lexicographic sampling order.

    Each unordered pair {i, j}, i < j, is an edge independently with
    probability p.  One uniform is drawn per pair, rows in increasing i and
    within a row increasing j, from PCG64(seed); the layout is therefore
    reproducible across platforms.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = np.random.Generator(np.random.PCG64(seed))
    upper: list[np.ndarray] = []
    for i in range(n - 1):
        draws = rng.random(n - 1 - i)
        upper.append(np.nonzero(draws < p)[0] + i + 1)
    if n > 0:
        upper.append(np.empty(0, dtype=np.int64))

    adj = [0] * n
    m = 0
    row_bits = np.zeros(n, dtype=bool)
    lower: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        hits = upper[i]
        row_bits[:] = False
        if hits.size:
            row_bits[hits] = True
            for j in hits:
                lower[j].append(i)
            m += hits.size
        if lower[i]:
            row_bits[lower[i]] = True
        packed = np.packbits(row_bits, bitorder="little")
        adj[i] = int.from_bytes(packed.tobytes(), "little")
    return Graph(n, adj, int(m))


def reference_per_vertex_deletion(g: Graph, r: float, seed: int) -> Graph:
    """Delete at most an r-fraction of the edges at every vertex.

    Candidate edges are visited in seeded random order; a deletion is skipped
    whenever it would overdraw either endpoint's budget floor(r * deg).  The
    result therefore always satisfies the per-vertex budget exactly.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"deletion fraction {r} outside [0, 1]")
    budget = [int(r * g.degree(v)) for v in range(g.n)]
    edges = list(g.edges())
    rng = rng_from(seed)
    order = rng.permutation(len(edges))
    removed = []
    for idx in order:
        u, v = edges[idx]
        if budget[u] > 0 and budget[v] > 0:
            budget[u] -= 1
            budget[v] -= 1
            removed.append((u, v))
    return g.without_edges(removed)


class ReferenceGraphCounter:
    def __init__(self, g: Graph, left: Sequence[int], right: Sequence[int]):
        self.g = g
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)

    def edge_count(self) -> int:
        return self.count(np.arange(self.left.size), np.arange(self.right.size))

    def count(self, li: np.ndarray, ri: np.ndarray) -> int:
        mask = mask_of(int(self.right[j]) for j in ri)
        adj = self.g.adjacency
        return sum((adj[int(self.left[i])] & mask).bit_count() for i in li)

    def left_indices_adjacent_to(self, right_pos: int) -> np.ndarray:
        v = int(self.right[right_pos])
        row = self.g.adjacency[v]
        return np.nonzero([(row >> int(u)) & 1 for u in self.left])[0]

    def right_indices_adjacent_to(self, left_pos: int) -> np.ndarray:
        u = int(self.left[left_pos])
        row = self.g.adjacency[u]
        return np.nonzero([(row >> int(v)) & 1 for v in self.right])[0]


def reference_greedy_square_path(g: Graph, seed: int, lookahead_depth: int = 1) -> SquarePath:
    """Scalable seeded heuristic: grow from a random start edge, at each step
    taking the successor with the most extension states within
    ``lookahead_depth`` further moves (ties to the smallest vertex id).
    Grows forward until stuck, then backward from the start until stuck.
    Deterministic given the seed.
    """
    if g.edge_count == 0:
        if g.n == 0:
            raise ValueError("empty graph has no square path")
        return SquarePath.checked(g, [0])
    rng = rng_from(seed)
    edges = list(g.edges())
    u, v = edges[int(rng.integers(len(edges)))]
    if rng.integers(2):
        u, v = v, u
    adj = g.adjacency
    seq = [u, v]
    visited = (1 << u) | (1 << v)

    def score(prev: int, w: int, visited_mask: int) -> int:
        frontier = adj[prev] & adj[w] & ~visited_mask
        if lookahead_depth <= 1:
            return frontier.bit_count()
        total = 0
        for x in bits(frontier):
            total += (adj[w] & adj[x] & ~visited_mask & ~(1 << x)).bit_count() + 1
        return total

    while True:
        cu, cv = seq[-2], seq[-1]
        cand = adj[cu] & adj[cv] & ~visited
        if not cand:
            break
        w = max(bits(cand), key=lambda x: (score(cv, x, visited | (1 << x)), -x))
        seq.append(w)
        visited |= 1 << w
    while True:
        cu, cv = seq[1], seq[0]
        cand = adj[cu] & adj[cv] & ~visited
        if not cand:
            break
        w = max(bits(cand), key=lambda x: (score(cv, x, visited | (1 << x)), -x))
        seq.insert(0, w)
        visited |= 1 << w
    return SquarePath.checked(g, seq)
