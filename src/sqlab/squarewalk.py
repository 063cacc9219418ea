"""Squares of paths and cycles as walks in an edge-state transition graph.

A square path v1..vm is a vertex sequence in which consecutive vertices and
vertices two apart are adjacent; equivalently every three consecutive
vertices form a triangle.  Partial square paths are fully described by their
last two vertices, so searches run over *edge states*: ordered pairs (u, v)
with {u, v} an edge.  The successors of (u, v) are exactly (v, w) for
w in N(u) & N(v).

Every exact search here, and the embedder's one extension search (its
windows and its closing join), is one depth-first walk,
:func:`search_square_paths`, over states (cu, cv, visited, seq): a square
path seq ending in the edge state (cu, cv), with visited the bitset the
caller's filters read.  Roots are drawn lazily; each root's subtree is
searched to the end, last in first out, before the next is drawn.  The
caller's ``expand(cu, cv, visited, seq)`` holds its candidate filter,
acceptance test and child order.  It returns None to stop the search, or the
vertices w that extend the path, each pushed as the state
(cv, w, visited | 1 << w, seq + [w]): an int bitset is pushed in ascending
id order, a sequence in the order given.  The search holds the one stack, node counter
and budget rule: at most ``node_budget`` states are expanded, ``None`` means
no limit and a negative budget is a ValueError.  When the budget runs out
the best object found so far is returned flagged as a lower bound / unknown
verdict.  Every path or cycle returned by any routine is re-validated before
it is handed back.

The longest-path search prunes with two admissible bounds: the unvisited
vertices reachable from the end vertex, and an independent-set count.  Any
three consecutive vertices of a square path form a triangle, so an
independent set I holds at most one vertex in every three; with a greedy
maximal I, a path can add at most about 3/2 times the reachable vertices
outside I.  Both bounds only cut subtrees that cannot beat the best path so
far, so without a budget the returned path is the one the reach bound alone
gives; only the node count falls.

The exact searches keep Python-int bitsets; the longest-path search takes
its reach bound from one boolean-matrix closure per call.  The greedy
heuristic, which runs on graphs of thousands of vertices, instead reads the
adjacency once as uint64 word rows (``graph.to_words``, n^2 / 8 bytes) and
keeps the unvisited vertices as one word vector: each step finds its
candidates with one ``&`` of two rows and that vector, scores all of them
with one ``bitwise_count`` over their gathered rows, and clears one bit.  It
never lists the edges; its random start edge is located by row popcounts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from operator import index
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .bitops import bits, pack_bool_matrix, packed_to_int, popcount_rows, unpack_packed_matrix
from .graph import Graph, to_matrix, to_words
from .util import rng_from


class EdgeState(NamedTuple):
    first: int
    second: int


def edge_states(g: Graph) -> list[EdgeState]:
    """Both orientations of every edge, lexicographically sorted."""
    out = []
    for u in range(g.n):
        for v in bits(g.adjacency[u]):
            out.append(EdgeState(u, v))
    return out


def is_square_path(g: Graph, seq: Sequence[int]) -> bool:
    """True iff seq is a valid square path in g.

    Length 1 needs a valid distinct vertex, length 2 an edge; from length 3
    on both the consecutive and the distance-2 adjacencies must hold.  Ids
    may be numpy integers; floats are refused.
    """
    seq = list(map(index, seq))  # a numpy id would overflow the row shifts
    m = len(seq)
    if m == 0 or len(set(seq)) != m:
        return False
    for v in seq:
        if not 0 <= v < g.n:
            return False
    for i in range(m - 1):
        if not (g.adjacency[seq[i]] >> seq[i + 1]) & 1:
            return False
    for i in range(m - 2):
        if not (g.adjacency[seq[i]] >> seq[i + 2]) & 1:
            return False
    return True


def is_square_cycle(g: Graph, seq: Sequence[int]) -> bool:
    """Cyclic analogue: a square path of length >= 5 (so distance-2 chords
    are real) whose last two vertices also see the first two as the
    wrap-around requires."""
    seq = list(map(index, seq))
    return len(seq) >= 5 and is_square_path(g, seq) and _closes(g.adjacency, seq, seq[-2], seq[-1])


@dataclass(frozen=True)
class SquarePath:
    """Vertex sequence carrying its validity certificate."""

    vertices: tuple[int, ...]

    @classmethod
    def checked(cls, g: Graph, seq: Sequence[int]) -> "SquarePath":
        seq = tuple(map(index, seq))
        if not is_square_path(g, seq):
            raise ValueError(f"not a square path: {list(seq)}")
        return cls(seq)

    def __len__(self):
        return len(self.vertices)

    def to_json(self) -> str:
        return json.dumps(list(self.vertices))


@dataclass(frozen=True)
class SquareCycle:
    vertices: tuple[int, ...]

    @classmethod
    def checked(cls, g: Graph, seq: Sequence[int]) -> "SquareCycle":
        seq = tuple(map(index, seq))
        if not is_square_cycle(g, seq):
            raise ValueError(f"not a square cycle: {list(seq)}")
        return cls(seq)

    def __len__(self):
        return len(self.vertices)

    def to_json(self) -> str:
        return json.dumps(list(self.vertices))


@dataclass(frozen=True)
class PathSearchResult:
    path: SquarePath
    optimal: bool
    nodes: int


@dataclass(frozen=True)
class CycleSearchResult:
    # status: "found" (cycle attached), "none" (exhaustive), "unknown" (budget)
    status: str
    cycle: Optional[SquareCycle]
    nodes: int


# ---------------------------------------------------------------------------
# the search


def search_square_paths(
    roots: Iterable[tuple[int, int, int, list[int]]],
    expand: Callable[[int, int, int, list[int]], int | Sequence[int] | None],
    node_budget: int | None = None,
) -> tuple[int, bool]:
    """Depth-first search over square-path states (see the module docstring
    for the contract); returns ``(nodes, exhausted)``, where ``exhausted``
    means the node budget ran out with states left."""
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node_budget must be None or >= 0, got {node_budget}")
    limit = 1 << 62 if node_budget is None else node_budget
    nodes = 0
    for root in roots:
        stack = [root]
        push, pop = stack.append, stack.pop
        while stack:
            if nodes >= limit:
                return nodes, True
            cu, cv, visited, seq = pop()
            nodes += 1
            kids = expand(cu, cv, visited, seq)
            if kids is None:
                return nodes, False
            if type(kids) is int:
                while kids:
                    low = kids & -kids
                    w = low.bit_length() - 1
                    push((cv, w, visited | low, seq + [w]))
                    kids ^= low
            else:
                for w in kids:
                    push((cv, w, visited | (1 << w), seq + [w]))
    return nodes, False


# ---------------------------------------------------------------------------
# exact longest square path


def longest_square_path_exact(g: Graph, node_budget: int | None = None) -> PathSearchResult:
    """Maximum-cardinality square path by branch and bound over edge states.

    DFS grows a path forward from every ordered start edge, keeping a
    visited-vertex bitset.  Start edges with more common neighbours go first;
    successor states with fewer onward moves are tried first.  A node whose
    path cannot beat the best so far is cut by two admissible bounds, with
    ``avail`` the unvisited vertices reachable from the end vertex cv in the
    static state graph (computed once per call, ignoring revisits):

    * the reach bound: current length plus ``|avail|``;
    * the independent-set bound, tried when the reach bound fails.  I is one
      greedy maximal independent set (``_greedy_independent_set``).  Three
      consecutive vertices of a square path form a triangle, so t further
      vertices hold at most floor((t + off) / 3) vertices of I, where off is 0
      if cv is in I, 1 if the vertex before it is and 2 otherwise; the rest
      come from ``avail`` outside I.  With a of those, the largest such t is
      ``(3 a + off) // 2``.

    Both bounds only cut subtrees that cannot beat the best length, so an
    unbudgeted call returns the path the reach bound alone would return, in
    fewer nodes.  If ``node_budget`` DFS expansions are exhausted the best
    path found so far is returned with ``optimal=False``.
    """
    if g.n == 0:
        raise ValueError("empty graph has no square path")
    adj = g.adjacency
    best_seq = [0]
    best_len = 1

    # reach[v] = vertices reachable from any state entering v, ignoring
    # revisits: the transitive closure of v -> (N(u) & N(v)) unions.  A
    # closure over vertices is a sound over-approximation of the per-state
    # reach and much cheaper to compute.
    reach = _vertex_reach_closure(g)
    indep = _greedy_independent_set(g)
    outside = ~indep

    def expand(cu, cv, visited, seq):
        nonlocal best_len, best_seq
        depth = len(seq)
        if depth > best_len:
            best_len = depth
            best_seq = seq
            if best_len == g.n:
                return None
        free = ~visited
        cand = adj[cu] & adj[cv] & free
        if not cand:
            return 0
        avail = reach[cv] & free
        if depth + avail.bit_count() <= best_len:
            return 0
        off = 0 if indep >> cv & 1 else 1 if indep >> cu & 1 else 2
        if depth + (3 * (avail & outside).bit_count() + off) // 2 <= best_len:
            return 0
        if not cand & (cand - 1):
            return cand
        # stack pops last first: sort by (-onward moves, id) so the child
        # with the fewest onward moves, largest id among ties, pops first
        near = adj[cv] & free
        order = []
        while cand:
            low = cand & -cand
            w = low.bit_length() - 1
            order.append((-(near & adj[w]).bit_count(), w))
            cand ^= low
        order.sort()
        return [w for _, w in order]

    states = edge_states(g)
    # try denser start edges first: pruning works best when a long path is
    # found early, so order by decreasing successor count.
    states.sort(key=lambda s: -(adj[s.first] & adj[s.second]).bit_count())
    roots = ((u, v, (1 << u) | (1 << v), [u, v]) for u, v in states)
    nodes, exhausted = search_square_paths(roots, expand, node_budget)
    return PathSearchResult(SquarePath.checked(g, best_seq), not exhausted, nodes)


def _greedy_independent_set(g: Graph) -> int:
    """A maximal independent set as a bitset: repeatedly take the vertex of
    least degree among those left (smallest id on ties) and drop it and its
    neighbours."""
    adj = g.adjacency
    left = (1 << g.n) - 1
    chosen = 0
    while left:
        v = min(bits(left), key=lambda x: (adj[x] & left).bit_count())
        chosen |= 1 << v
        left &= ~(adj[v] | (1 << v))
    return chosen


def _vertex_reach_closure(g: Graph) -> list[int]:
    """reach[v]: the vertices that one or more square-walk moves out of v
    reach, where a move goes from v to any w in N(v) that has a neighbour in
    N(v).  The moves are the boolean matrix step = A & (A @ A), and the
    reach is its transitive closure, squared until it stops growing."""
    a = to_matrix(g)
    reach = a & (a @ a)
    while True:
        grown = reach | reach @ reach
        if np.array_equal(grown, reach):
            return [packed_to_int(row) for row in pack_bool_matrix(reach)]
        reach = grown


# ---------------------------------------------------------------------------
# square Hamilton cycle and square cycles


def _closes(adj: list[int], seq: Sequence[int], cu: int, cv: int) -> bool:
    """Whether a square path that starts seq[0], seq[1] and ends cu, cv
    closes into a square cycle: cv must see seq[0] and seq[1], and cu must
    see seq[0]."""
    s0 = seq[0]
    return bool((adj[cv] >> s0) & 1 and (adj[cu] >> s0) & 1 and (adj[cv] >> seq[1]) & 1)


def _cycle_result(g: Graph, seq, nodes: int, exhausted: bool) -> CycleSearchResult:
    """"unknown" if the budget ran out, else "found" (cycle attached) or
    "none"."""
    status = "unknown" if exhausted else "none" if seq is None else "found"
    return CycleSearchResult(status, None if seq is None else SquareCycle.checked(g, seq), nodes)


def has_square_hamilton_cycle(g: Graph, node_budget: int | None = None) -> CycleSearchResult:
    """Exact search for a spanning square cycle (n >= 5).

    Anchored at a minimum-degree vertex; the DFS extends a square path and at
    full depth checks the four closing adjacencies.  Exhaustion without a
    find is the verdict "none"; running out of budget yields "unknown".
    """
    n = g.n
    if n < 5:
        return CycleSearchResult("none", None, 0)
    # every vertex of a square cycle on >= 5 vertices has 4 distinct
    # neighbours along the cycle
    if g.min_degree() < 4:
        return CycleSearchResult("none", None, 0)
    adj = g.adjacency
    anchor = min(range(n), key=g.degree)
    found = None

    def expand(cu, cv, visited, seq):
        nonlocal found
        if len(seq) == n:
            if _closes(adj, seq, cu, cv):
                found = seq
                return None
            return 0
        cand = adj[cu] & adj[cv] & ~visited
        if len(seq) == n - 1:
            cand &= adj[anchor]  # last vertex must close consecutively
        return cand

    a_mask = 1 << anchor
    roots = [(anchor, b, a_mask | (1 << b), [anchor, b]) for b in bits(adj[anchor])]
    nodes, exhausted = search_square_paths(reversed(roots), expand, node_budget)
    return _cycle_result(g, found, nodes, exhausted)


def has_square_cycle_through(
    g: Graph, v: int, node_budget: int | None = None
) -> CycleSearchResult:
    """Exact search for any square cycle (length >= 5) through v.

    Used to certify wipe-style adversaries: after all edges inside N(v) are
    deleted, v lies in no triangle and this search must report "none".
    """
    v = g.check_vertex(v)
    adj = g.adjacency
    found = None

    def expand(cu, cv, visited, seq):
        nonlocal found
        if len(seq) >= 5 and _closes(adj, seq, cu, cv):
            found = seq
            return None
        return adj[cu] & adj[cv] & ~visited

    # search square paths b, v, c, ... that wrap around to b; anchoring at v
    # keeps the search restricted to cycles through v.
    roots = (
        (v, c, (1 << v) | (1 << b) | (1 << c), [b, v, c])
        for b in bits(adj[v])
        for c in bits(adj[v] & adj[b])
    )
    nodes, exhausted = search_square_paths(roots, expand, node_budget)
    return _cycle_result(g, found, nodes, exhausted)


def greedy_square_path(g: Graph, seed: int) -> SquarePath:
    """Scalable seeded heuristic: grow from a random start edge, at each step
    taking the successor with the most extension states one move further
    (ties to the smallest vertex id).  Grows forward until stuck, then
    backward from the start until stuck.  Deterministic given the seed.

    The start edge is the k-th of ``g.edges()`` for one uniform draw of k,
    found by walking the rows' upper-triangle popcounts; no edge list is
    built.  Steps run on the adjacency as uint64 word rows
    (``graph.to_words``) and ``free``, the unvisited vertices as one word
    vector, which each step clears one bit of.  With (cu, cv) the end state,
    the candidates are the set bits of N(cu) & (N(cv) & free), and a
    candidate w scores |N(cv) & N(w) & free|, one ``bitwise_count`` over the
    gathered candidate rows.  Working memory is the n x 8 ceil(n/64) bytes of
    word rows plus O(n) per step.
    """
    if g.edge_count == 0:
        if g.n == 0:
            raise ValueError("empty graph has no square path")
        return SquarePath.checked(g, [0])
    rng = rng_from(seed)
    u, v = _kth_edge(g, int(rng.integers(g.edge_count)))
    if rng.integers(2):
        u, v = v, u
    words = to_words(g)
    free = np.full(words.shape[1], ~np.uint64(0))  # set padding bits meet zeros in every row

    def take(w: int) -> None:
        free[w >> 6] &= ~np.uint64(1 << (w & 63))

    def grow(cu: int, cv: int) -> list[int]:
        """Extend the end state (cu, cv) greedily; the vertices added."""
        added = []
        while True:
            near = words[cv] & free
            cand = unpack_packed_matrix(words[cu] & near, g.n).nonzero()[0]
            if not cand.size:
                return added
            # argmax keeps the first maximum: the smallest id among ties
            w = index(cand[popcount_rows(words[cand] & near).argmax()])
            added.append(w)
            take(w)
            cu, cv = cv, w

    take(u)
    take(v)
    seq = [u, v] + grow(u, v)
    seq = grow(seq[1], seq[0])[::-1] + seq
    return SquarePath.checked(g, seq)


def _kth_edge(g: Graph, k: int) -> tuple[int, int]:
    """``list(g.edges())[k]`` without listing the edges."""
    for u, row in enumerate(g.adjacency):
        upper = row >> (u + 1)
        count = upper.bit_count()
        if k < count:
            return u, u + 1 + next(islice(bits(upper), k, None))
        k -= count
    raise IndexError(f"edge index out of range for {g.edge_count} edges")
