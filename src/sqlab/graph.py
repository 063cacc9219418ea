"""Immutable simple graphs on dense integer vertex ids 0..n-1.

Adjacency has two encodings that agree bit for bit:

* one Python-int bitset per vertex (``Graph.adjacency``), which makes the
  intersection-heavy queries of this package (common neighbourhoods,
  square-path candidates, degrees into subsets) single ``&`` + popcount
  operations, and
* a dense boolean matrix, for whole-graph passes that numpy vectorises.

A ``Graph`` is its vertex count and its rows; it counts its own edges from
the rows, so the constructors (``from_edges``, ``complete``, ``empty``,
``complete_multipartite``, ``from_matrix``) and ``without_edges`` pass rows
only.

Every entry point of the package takes a vertex id of a graph through
``Graph.check_vertex``, which returns it as a Python int after its range
check; where no graph is at hand (``from_edges``, ``bitops.mask_of``) the
conversion is ``operator.index``.  Either way numpy integer ids are taken
and floats are refused, never truncated.

``to_words`` joins chosen adjacency rows into uint64 word rows, the one
packed-row form, with one ``to_bytes`` join; ``to_matrix`` unpacks their
byte view with one ``np.unpackbits``, and ``from_matrix`` packs a symmetric
boolean matrix back into a ``Graph``.  All three use the little-endian
packed layout of ``bitops``.

Random generation is seeded and platform independent: ``gnp`` draws one
uniform per unordered pair in lexicographic pair order from a named PCG64
stream, so identical ``(n, p, seed)`` reproduce the same graph byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bitops import bits, pack_bool_matrix, packed_to_int, unpack_packed_matrix
from .util import rng_from


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable simple graph with bitset adjacency rows."""

    n: int
    adjacency: tuple[int, ...]
    edge_count: int = field(init=False, compare=False)

    def __post_init__(self):
        if len(self.adjacency) != self.n:
            raise ValueError(f"adjacency has {len(self.adjacency)} rows for n={self.n}")
        object.__setattr__(self, "adjacency", tuple(self.adjacency))
        object.__setattr__(self, "edge_count", sum(row.bit_count() for row in self.adjacency) // 2)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"

    # -- primitive queries ------------------------------------------------

    def check_vertex(self, v: int) -> int:
        """``v`` as a Python int, once it is known to be a vertex.

        ``operator.index`` takes numpy integers, which would poison the
        bitsets (a Python-int row shifted by a numpy integer overflows past
        bit 63), and refuses floats instead of truncating them.
        """
        v = index(v)
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")
        return v

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adjacency[self.check_vertex(u)] >> self.check_vertex(v)) & 1)

    def degree(self, v: int) -> int:
        return self.adjacency[self.check_vertex(v)].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        return bits(self.adjacency[self.check_vertex(v)])

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        for u in range(self.n):
            row = self.adjacency[u] >> (u + 1)
            for off in bits(row):
                yield (u, u + 1 + off)

    def min_degree(self) -> int:
        if self.n == 0:
            return 0
        return min(row.bit_count() for row in self.adjacency)

    # -- derived graphs ----------------------------------------------------

    def without_edges(self, removed: Iterable[tuple[int, int]]) -> "Graph":
        """New graph with the given edges deleted (non-edges are an error)."""
        adj = list(self.adjacency)
        for u, v in removed:
            u, v = self.check_vertex(u), self.check_vertex(v)
            if not (adj[u] >> v) & 1:
                raise ValueError(f"({u}, {v}) is not an edge")
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        return Graph(self.n, adj)

    def validate(self) -> None:
        """Full-scan check of the structural invariants (test support)."""
        for v, row in enumerate(self.adjacency):
            if (row >> v) & 1:
                raise AssertionError(f"self-loop at {v}")
            if row >> self.n:
                raise AssertionError(f"row {v} has bits beyond n")
            for u in bits(row):
                if not (self.adjacency[u] >> v) & 1:
                    raise AssertionError(f"asymmetric edge ({v}, {u})")


# ---------------------------------------------------------------------------
# constructors


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    adj = [0] * n
    for u, v in edges:
        u, v = index(u), index(v)
        if u == v:
            raise ValueError(f"self-loop ({u}, {v})")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range")
        if (adj[u] >> v) & 1:
            raise ValueError(f"duplicate edge ({u}, {v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


def complete(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, [full & ~(1 << v) for v in range(n)])


def empty(n: int) -> Graph:
    return Graph(n, [0] * n)


def complete_multipartite(part_sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph; parts are consecutive id ranges."""
    n = sum(part_sizes)
    full = (1 << n) - 1
    adj = []
    start = 0
    for size in part_sizes:
        part_mask = ((1 << size) - 1) << start
        row = full & ~part_mask
        adj.extend([row] * size)
        start += size
    return Graph(n, adj)


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with a fixed lexicographic sampling order.

    Each unordered pair {i, j}, i < j, is an edge independently with
    probability p.  One uniform is drawn per pair, rows in increasing i and
    within a row increasing j, from PCG64(seed); the layout is therefore
    reproducible across platforms.  Draws are taken one row at a time, so
    no n(n-1)/2 float buffer is ever held.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = rng_from(seed)
    m = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        m[i, i + 1 :] = rng.random(n - 1 - i) < p
    m |= m.T
    return from_matrix(m)


# ---------------------------------------------------------------------------
# matrix encoding


def to_words(g: Graph, rows: Sequence[int] | None = None) -> np.ndarray:
    """Little-endian uint64 adjacency rows of ``rows`` (default: every
    vertex; ids go through ``Graph.check_vertex``), ``ceil(n / 64)`` words
    per row with zero padding bits; their byte view is the ``bitops`` packed
    layout.  Words, not bytes: AND and popcount over words take about two
    thirds of the time they take over bytes."""
    rows = range(g.n) if rows is None else list(map(g.check_vertex, rows))
    nbytes = 8 * ((g.n + 63) // 64)
    raw = b"".join(g.adjacency[u].to_bytes(nbytes, "little") for u in rows)
    return np.frombuffer(raw, dtype="<u8").reshape(len(rows), nbytes // 8)


def to_matrix(g: Graph, rows: Sequence[int] | None = None) -> np.ndarray:
    """Boolean adjacency of ``rows`` (default: every vertex) against all n
    columns; row i of the result is the neighbourhood of ``rows[i]``."""
    return unpack_packed_matrix(to_words(g, rows).view(np.uint8), g.n)


def from_matrix(m: np.ndarray) -> Graph:
    """Graph of a symmetric boolean adjacency matrix with an empty diagonal."""
    adj = [packed_to_int(row) for row in pack_bool_matrix(m)]
    return Graph(m.shape[0], adj)
