"""Independent brute-force oracles and bitset reference implementations.

The oracles deliberately share no code with the search implementations they
check: plain prefix enumeration and triple loops, pruned only on adjacency.
``oracle_expansion_fraction`` holds the good-edge kernel to the same
standard: a walk over a Python set of edge states that reads the dense pairs
entry by entry.

The reference implementations at the end are the earlier Python-int bitset
versions of ``gnp``, ``per_vertex_deletion`` and ``greedy_square_path``,
kept verbatim so the matrix-backed code can be held to bit-identical
outputs, and ``ReferenceGraphCounter``, the regularity tester's class
counter read from Python-int rows instead of word rows.  A dense matrix's
classes are counted as classes of its bipartite graph
(``bipartite_classes``), the model ``lower_regular_verdict`` counts its
sub-pairs on; ``matrix_counter`` is that counter.  The exact longest
square path search with the reach bound alone follows them, kept verbatim so
the search with the independent-set bound can be held to the same paths in
no more nodes.

``reference_sampled_test`` is the regularity tester's sampling loop one
pair and one vertex at a time: the same key array per sample index, each
subset read off by sorting keys, each count taken from Python-int rows.
``reference_test_regular``, ``reference_lower_regular_verdict`` and, with
``ReferenceGraphCounter`` patched in, ``partition_heuristic`` run it, so
subsets, reports, verdicts and rng draws can be held to it bit for bit.

The chain kernels after them -- triangle pruning, the two exact
square-path counters and the property-(ii) check, whose flank sub-pairs
go through ``reference_lower_regular_verdict`` one middle class at a time
-- are the earlier per-row and per-state versions, kept for the same
purpose against the dense matrix-product kernels.  The
transposed pairs they read come from a local ``_pair_T``.

The embedder's window route at the very end -- each window a ``chain_view``
of the pools, the graph's own, classified by the good-edge kernel with a
GEMM for every layer, and the start pick's backward view -- is the earlier
version of the one that slices each window out of the embed state's
adjacency matrix with ``ChainPartition.from_matrix``, kept verbatim so windows,
fractions, picks and rng draws can be held to it.  Both read the embed state
through ``ReferenceStateView``, the earlier state's shape: the reserved
vertices as sets and the unused ones split into a pool and a reserve mask.

The edge-state searches at the end -- the longest path search with both
bounds, the Hamilton and through-v cycle searches and the embedder's
window search -- are the hand-rolled loops, each with its own stack, node
counter and budget check, that ``squarewalk.search_square_paths`` replaced;
kept verbatim so the ported searches can be held to identical results and
node counts.  The window search also serves as the reference of the
embedder's closing join, fed the seam's target edges.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from sqlab.bitops import (
    bits,
    mask_of,
    pack_bool_matrix,
    packed_to_int,
    popcount_rows,
    unpack_packed_matrix,
)
from sqlab.blowup import ChainPartition, PruneResult, chain_view
from sqlab.embedder import GoodEdgeReport
from sqlab.graph import Graph, from_matrix
from sqlab.regularity import (
    FLAG_SLACK,
    BipartitePairView,
    RegularityReport,
    _pair_report,
)
from sqlab.squarewalk import (
    CycleSearchResult,
    PathSearchResult,
    SquareCycle,
    SquarePath,
    _greedy_independent_set,
    _vertex_reach_closure,
    edge_states,
)
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


def oracle_expansion_fraction(chain: ChainPartition, a: int, b: int) -> float:
    """Fraction of last-pair edges that the local first-pair edge (a, b)
    reaches by forward square-walk moves, walking a Python set of edge states
    over the dense pairs entry by entry."""
    n0, k = chain.n0, chain.k
    dense = {ij: unpack_packed_matrix(chain.pair(*ij), n0) for ij in chain.pair_indices()}
    states = {(a, b)}
    for i in range(k - 2):
        B, A2 = dense[(i, i + 2)], dense[(i + 1, i + 2)]
        states = {(v, w) for u, v in states for w in range(n0) if B[u, w] and A2[v, w]}
    total = int(dense[(k - 2, k - 1)].sum())
    return len(states) / total if total else 0.0


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
    row_bits = np.zeros(n, dtype=bool)
    lower: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        hits = upper[i]
        row_bits[:] = False
        if hits.size:
            row_bits[hits] = True
            for j in hits:
                lower[j].append(i)
        if lower[i]:
            row_bits[lower[i]] = True
        packed = np.packbits(row_bits, bitorder="little")
        adj[i] = int.from_bytes(packed.tobytes(), "little")
    return Graph(n, adj)


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
    """``regularity._GraphCounter``'s edge counts over classes, and the
    scalar adjacency and subset counts that ``reference_sampled_test`` reads,
    all from the Python-int adjacency rows."""

    def __init__(self, g: Graph, classes: Sequence[Sequence[int]]):
        self.g = g
        self.classes = [tuple(int(v) for v in c) for c in classes]

    def edge_counts(self) -> np.ndarray:
        adj = self.g.adjacency
        masks = [mask_of(c) for c in self.classes]
        return np.array(
            [[sum((adj[u] & mb).bit_count() for u in ca) for mb in masks] for ca in self.classes]
        )

    def adjacent(self, c: int, i: int, o: int, j: int) -> bool:
        """Whether position i of class c and position j of class o are adjacent."""
        return bool(self.g.adjacency[self.classes[c][i]] >> self.classes[o][j] & 1)

    def count(self, a: int, li, b: int, ri) -> int:
        """Edges between positions ``li`` of class a and ``ri`` of class b."""
        mask = mask_of(self.classes[b][j] for j in ri)
        return sum((self.g.adjacency[self.classes[a][i]] & mask).bit_count() for i in li)


def bipartite_classes(m: np.ndarray, classes: Sequence[Sequence[int]]):
    """The bipartite graph of a dense |L| x |R| matrix, whose rows are
    vertices 0..|L|-1 and columns |L|..|L|+|R|-1, and the given classes as
    its vertex ids: an even class holds row ids, an odd one column ids.
    ``lower_regular_verdict`` counts its sub-pairs on this model."""
    nl, nr = m.shape
    full = np.zeros((nl + nr, nl + nr), dtype=bool)
    full[:nl, nl:] = m
    full[nl:, :nl] = m.T
    shifted = [[int(v) + nl * (c % 2) for v in ids] for c, ids in enumerate(classes)]
    return from_matrix(full), shifted


def matrix_counter(m: np.ndarray, classes: Sequence[Sequence[int]]) -> ReferenceGraphCounter:
    """The scalar counter of classes of a dense matrix, read as classes of
    its bipartite graph (``bipartite_classes``)."""
    return ReferenceGraphCounter(*bipartite_classes(m, classes))


def reference_greedy_square_path(g: Graph, seed: int) -> SquarePath:
    """Scalable seeded heuristic: grow from a random start edge, at each step
    taking the successor with the most extension states one move further
    (ties to the smallest vertex id).  Grows forward until stuck, then
    backward from the start until stuck.  Deterministic given the seed.
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
        return (adj[prev] & adj[w] & ~visited_mask).bit_count()

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


def reference_longest_square_path_exact(g: Graph, node_budget: int | None = None) -> PathSearchResult:
    """Maximum-cardinality square path by branch and bound over edge states.

    DFS grows a path forward from every ordered start edge, keeping a
    visited-vertex bitset.  The admissible bound is the current length plus
    the number of new vertices reachable from the end state in the static
    state graph (computed once per start edge, ignoring revisits).  Successor
    states with fewer onward moves are tried first.  If ``node_budget`` DFS
    expansions are exhausted the best path found so far is returned with
    ``optimal=False``.
    """
    if g.n == 0:
        raise ValueError("empty graph has no square path")
    adj = g.adjacency
    best_seq = [0]
    best_len = 1
    nodes = 0
    budget = node_budget if node_budget is not None else -1
    exhausted = False

    # reach[v] = vertices reachable from any state entering v, ignoring
    # revisits: the transitive closure of v -> (N(u) & N(v)) unions.  A
    # fixed-point over vertex bitsets is a sound over-approximation of the
    # per-state reach and much cheaper to compute.
    reach = _vertex_reach_closure(g)

    states = edge_states(g)
    # try denser start edges last: short-circuiting works best when a long
    # path is found early, so order by decreasing successor count.
    states.sort(key=lambda s: -(adj[s.first] & adj[s.second]).bit_count())

    for s in states:
        if exhausted:
            break
        u, v = s
        stack = [(u, v, (1 << u) | (1 << v), [u, v])]
        while stack:
            if budget >= 0 and nodes >= budget:
                exhausted = True
                break
            cu, cv, visited, seq = stack.pop()
            nodes += 1
            if len(seq) > best_len:
                best_len = len(seq)
                best_seq = list(seq)
                if best_len == g.n:
                    stack.clear()
                    break
            cand = adj[cu] & adj[cv] & ~visited
            if not cand:
                continue
            # bound: everything reachable through cv, minus already visited
            ub = len(seq) + (reach[cv] & ~visited).bit_count()
            if ub <= best_len:
                continue
            children = sorted(
                bits(cand),
                key=lambda w: (adj[cv] & adj[w] & ~visited).bit_count(),
                reverse=True,  # stack pops last first -> fewest successors first
            )
            for w in children:
                stack.append((cv, w, visited | (1 << w), seq + [w]))
        if best_len == g.n:
            break

    return PathSearchResult(SquarePath.checked(g, best_seq), not exhausted, nodes)


# ---------------------------------------------------------------------------
# per-row chain kernels


def _pair_T(chain: ChainPartition, i: int, j: int) -> np.ndarray:
    """Transposed packed adjacency of pair (i, j): rows indexed by class j."""
    return pack_bool_matrix(unpack_packed_matrix(chain.pair(i, j), chain.n0).T)


def reference_sampled_test(
    counter,
    sizes: Sequence[int],
    pairs: Sequence[tuple[int, int]],
    densities: Sequence[float],
    reference_p: float,
    epsilon: float,
    sample_count: int,
    rng,
    one_sided: bool,
) -> list:
    """``regularity._sampled_test`` one pair and one vertex at a time, on a
    scalar counter: the same key array per sample index, each subset read
    off by sorting keys.

    At sample idx every class gets one row of ``rng.random((r, width))``
    keys (positions past its size unused).  A uniform subset is the k
    positions with the smallest keys.  At idx % 3 == 1 (2) each right
    (left) class's pivot is the position of its largest key; a pair whose
    pivot sees at least k positions of the other class takes the k of them
    with the smallest keys, and the k smallest keys of the pivot's class
    without the pivot, unless that class has at most k positions; otherwise
    it takes uniform subsets.  The first violating sample wins.
    """
    out = [(None, sample_count)] * len(pairs)
    if not pairs:
        return out
    r, width = len(sizes), max(sizes)
    k = [min(n, max(1, math.ceil(epsilon * n))) for n in sizes]
    live = list(range(len(pairs)))
    for idx in range(sample_count):
        if not live:
            break
        kind = idx % 3
        keys = rng.random((r, width)).tolist()

        def smallest(c, positions):
            return sorted(positions, key=lambda j: keys[c][j])[: k[c]]

        if kind:
            pivot = [max(range(n), key=lambda j: keys[c][j]) for c, n in enumerate(sizes)]
        for i in live:
            a, b = pairs[i]
            li, ri, where = smallest(a, range(sizes[a])), smallest(b, range(sizes[b])), None
            if kind:
                c, o = (b, a) if kind == 1 else (a, b)
                hood = [j for j in range(sizes[o]) if counter.adjacent(c, pivot[c], o, j)]
                if len(hood) >= k[o]:
                    near = smallest(o, hood)
                    rest = smallest(
                        c, [j for j in range(sizes[c]) if j != pivot[c] or sizes[c] <= k[c]]
                    )
                    li, ri = (near, rest) if kind == 1 else (rest, near)
                    where = ("right" if kind == 1 else "left", pivot[c])
            e = counter.count(a, li, b, ri)
            denom = len(li) * len(ri)
            observed = e / denom
            if one_sided:
                bad = observed < (1 - FLAG_SLACK * epsilon) * reference_p
            else:
                bad = abs(observed - densities[i]) > FLAG_SLACK * epsilon * reference_p
            if bad:
                out[i] = ((li, ri, Fraction(e, denom), where, idx), idx + 1)
        live = [i for i in live if out[i][0] is None]
    return out


def reference_test_regular(
    g: Graph,
    pair: BipartitePairView,
    reference_p: float,
    epsilon: float,
    sample_count: int = 200,
    seed: int = 0,
) -> RegularityReport:
    """``test_regular`` through ``reference_sampled_test`` on the scalar
    counter of the pair's two sides."""
    nl, nr = len(pair.left), len(pair.right)
    counter = ReferenceGraphCounter(g, [pair.left, pair.right])
    d = Fraction(counter.count(0, range(nl), 1, range(nr)), nl * nr)
    [result] = reference_sampled_test(
        counter, (nl, nr), [(0, 1)], [float(d)], reference_p, epsilon, sample_count,
        rng_from(seed), one_sided=False,
    )
    return _pair_report(pair.left, pair.right, d, reference_p, epsilon, result)


def reference_lower_regular_verdict(
    m: np.ndarray, sub_pairs, reference_p: float, epsilon: float, sample_count: int, rng
) -> list[str]:
    """``lower_regular_verdict`` through one ``reference_sampled_test`` run
    over the nonempty sub-pairs, on the scalar counter of the matrix; an
    empty sub-pair is "violated" when reference_p > 0."""
    empty = "violated" if reference_p > 0 else "no-violation-found"
    verdicts = [empty] * len(sub_pairs)
    tested = [j for j, (rows, cols) in enumerate(sub_pairs) if len(rows) and len(cols)]
    classes = [ids for j in tested for ids in sub_pairs[j]]
    results = reference_sampled_test(
        matrix_counter(m, classes),
        [len(ids) for ids in classes],
        [(2 * i, 2 * i + 1) for i in range(len(tested))],
        [0.0] * len(tested),
        reference_p,
        epsilon,
        sample_count,
        rng,
        one_sided=True,
    )
    for j, (hit, _) in zip(tested, results):
        verdicts[j] = "violated" if hit is not None else "no-violation-found"
    return verdicts


def reference_triangle_counts_of_pair(chain: ChainPartition, i: int) -> dict[tuple[int, int], int]:
    """Per-edge triangle counts of pair (i, i+1) into class i+2 (local ids)."""
    n0 = chain.n0
    A = chain.pair(i, i + 1)
    B = chain.pair(i, i + 2)
    C = chain.pair(i + 1, i + 2)
    out: dict[tuple[int, int], int] = {}
    for u in range(n0):
        vs = np.nonzero(
            np.unpackbits(A[u].view(np.uint8), bitorder="little", count=n0).astype(bool)
        )[0]
        if not vs.size:
            continue
        tri = popcount_rows(C[vs] & B[u][None, :])
        for v, t in zip(vs.tolist(), tri.tolist()):
            out[(u, v)] = t
    return out


def reference_prune_to_gtilde(chain: ChainPartition, epsilon: float) -> PruneResult:
    """Triangle pruning: for i from the last interior pair down to the first,
    drop every surviving edge of E(V_i, V_{i+1}) that closes fewer than
    (1 - epsilon) n0 p0^2 triangles with V_{i+2}, counted against surviving
    edges.  Counts at step i depend only on the pairs (i, i+2) and
    (i+1, i+2), so removal within a step is order-independent; steps run
    strictly from the top index down.  The final pair is never touched.

    Returns a pruned copy; the input chain is unchanged.
    """
    out = chain.copy()
    n0, p0 = out.n0, out.reference_p
    tau = (1 - epsilon) * n0 * p0 * p0
    removed: dict[tuple[int, int], int] = {}
    for i in range(out.k - 3, -1, -1):
        A = out.pair(i, i + 1)
        B = out.pair(i, i + 2)
        C = out.pair(i + 1, i + 2)
        dropped = 0
        for u in range(n0):
            row_bool = np.unpackbits(A[u].view(np.uint8), bitorder="little", count=n0).astype(bool)
            vs = np.nonzero(row_bool)[0]
            if not vs.size:
                continue
            tri = popcount_rows(C[vs] & B[u][None, :])
            bad = vs[tri < tau]
            if bad.size:
                row_bool[bad] = False
                A.view(np.uint8)[u, : (n0 + 7) // 8] = np.packbits(row_bool, bitorder="little")
                dropped += int(bad.size)
        removed[(i, i + 1)] = dropped
    return PruneResult(out, removed, tau)


def reference_check_gtilde_ii(
    chain: ChainPartition,
    epsilon: float,
    reference_p: float,
    sample_count: int,
    seed: int,
) -> dict[int, int]:
    """Per middle class, the number of vertices whose neighbourhoods into the
    two flanking classes miss the (1 +- eps) n0 p size window or fail the
    sampled lower-regularity test on the induced flank pair.

    Sampling makes the per-vertex verdicts one-sided: a counted exception is
    either a hard size violation or a "violated" verdict.  The flank
    sub-pairs of one middle class go through one
    ``reference_lower_regular_verdict`` call, so one ``reference_sampled_test``
    run, with a class per neighbourhood.
    """
    rng = rng_from(seed)
    n0 = chain.n0
    lo = (1 - epsilon) * n0 * reference_p
    hi = (1 + epsilon) * n0 * reference_p
    out: dict[int, int] = {}
    for i in range(chain.k - 2):
        middle = i + 1
        AT = _pair_T(chain, i, middle)  # rows: middle locals, bits over class i
        Bm = chain.pair(middle, i + 2)
        flank = unpack_packed_matrix(chain.pair(i, i + 2), n0)
        exceptions = 0
        sub_pairs = []
        for v in range(n0):
            left = np.nonzero(
                np.unpackbits(AT[v].view(np.uint8), bitorder="little", count=n0).astype(bool)
            )[0]
            right = np.nonzero(
                np.unpackbits(Bm[v].view(np.uint8), bitorder="little", count=n0).astype(bool)
            )[0]
            if not (lo <= left.size <= hi) or not (lo <= right.size <= hi):
                exceptions += 1
            else:
                sub_pairs.append((left.tolist(), right.tolist()))
        verdicts = reference_lower_regular_verdict(
            flank, sub_pairs, reference_p, epsilon, sample_count, rng
        )
        out[middle] = exceptions + verdicts.count("violated")
    return out


def reference_count_square_paths_between(
    chain: ChainPartition, e1: tuple[int, int], e2: tuple[int, int]
) -> int:
    """Exact number of squares of paths spanning the chain from e1 (first
    pair) to e2 (last pair), by meet-in-the-middle dynamic programming over
    edge states.  Classes are disjoint, so layered walks are automatically
    vertex-distinct and the count is exact.
    """
    k = chain.k
    c1, d1, a1, b1 = chain.locate_edge(*e1)
    c2, d2, a2, b2 = chain.locate_edge(*e2)
    if (c1, d1) != (0, 1):
        raise ValueError("e1 must lie in the first pair")
    if (c2, d2) != (k - 2, k - 1):
        raise ValueError("e2 must lie in the last pair")
    # forward t_f transitions to pair (t_f, t_f+1); backward the rest to the
    # adjacent pair; stitch across the shared class.
    t_f = (k - 2) // 2
    t_b = k - 3 - t_f  # backward transitions; stitch pairs (t_f, t_f+1), (t_f+1, t_f+2)

    fwd: dict[tuple[int, int], int] = {(a1, b1): 1}
    for i in range(t_f):
        B = chain.pair(i, i + 2)
        A2 = chain.pair(i + 1, i + 2)
        nxt: dict[tuple[int, int], int] = {}
        for (a, b), cnt in fwd.items():
            hits = packed_to_int(B[a]) & packed_to_int(A2[b])
            for c in bits(hits):
                key = (b, c)
                nxt[key] = nxt.get(key, 0) + cnt
        fwd = nxt
        if not fwd:
            return 0

    bwd: dict[tuple[int, int], int] = {(a2, b2): 1}
    for j in range(k - 2, t_f + 1, -1):
        # states (b, c) at pair (j, j+1) -> predecessors (a, b) at (j-1, j):
        # a adjacent to b (consecutive) and to c (distance 2)
        AT = _pair_T(chain, j - 1, j)
        BT = _pair_T(chain, j - 1, j + 1)
        nxt: dict[tuple[int, int], int] = {}
        for (b, c), cnt in bwd.items():
            hits = packed_to_int(AT[b]) & packed_to_int(BT[c])
            for a in bits(hits):
                key = (a, b)
                nxt[key] = nxt.get(key, 0) + cnt
        bwd = nxt
        if not bwd:
            return 0

    # stitch: fwd states (a, b) at pair (t_f, t_f+1), bwd states (b, c) at
    # pair (t_f+1, t_f+2); the distance-2 edge (a, c) must also be present.
    by_b: dict[int, list[tuple[int, int]]] = {}
    cmask: dict[int, int] = {}
    for (b, c), cnt in bwd.items():
        by_b.setdefault(b, []).append((c, cnt))
        cmask[b] = cmask.get(b, 0) | (1 << c)
    D = chain.pair(t_f, t_f + 2)
    total = 0
    for (a, b), cnt in fwd.items():
        if b not in by_b:
            continue
        ok = packed_to_int(D[a]) & cmask[b]
        if not ok:
            continue
        for c, cnt2 in by_b[b]:
            if (ok >> c) & 1:
                total += cnt * cnt2
    return total


def reference_square_path_counts_from(
    chain: ChainPartition, e1: tuple[int, int]
) -> dict[tuple[int, int], int]:
    """Forward-only DP: counts of spanning square paths from e1 to every
    last-pair edge (global ids).  Cross-checks the bidirectional counter."""
    k = chain.k
    c1, d1, a1, b1 = chain.locate_edge(*e1)
    if (c1, d1) != (0, 1):
        raise ValueError("e1 must lie in the first pair")
    fwd: dict[tuple[int, int], int] = {(a1, b1): 1}
    for i in range(k - 2):
        B = chain.pair(i, i + 2)
        A2 = chain.pair(i + 1, i + 2)
        nxt: dict[tuple[int, int], int] = {}
        for (a, b), cnt in fwd.items():
            hits = packed_to_int(B[a]) & packed_to_int(A2[b])
            for c in bits(hits):
                key = (b, c)
                nxt[key] = nxt.get(key, 0) + cnt
        fwd = nxt
        if not fwd:
            return {}
    return {
        (chain.to_global(k - 2, a), chain.to_global(k - 1, b)): cnt
        for (a, b), cnt in fwd.items()
    }


# ---------------------------------------------------------------------------
# the embedder's window route on chain views


_BLOCK_ENTRIES = 1 << 20


def _dense(chain: ChainPartition, i: int, j: int) -> np.ndarray:
    return unpack_packed_matrix(chain.pair(i, j), chain.n0)


def _dense32(chain: ChainPartition, i: int, j: int) -> np.ndarray:
    return _dense(chain, i, j).astype(np.float32)


def reference_expansion_fractions(
    chain: ChainPartition, sources: Sequence[tuple[int, int]]
) -> list[float]:
    """For each first-pair edge (a, b), in local ids, the fraction of
    last-pair edges it reaches by forward square-walk moves: the value
    ``oracle_expansion_fraction`` computes, for many sources at once.

    A multi-source traversal in dense linear algebra.  The states of a block
    of S sources at pair (i, i+1) are a 0/1 tensor R[s, v, u] (u in V_i,
    v in V_{i+1}), and one layer is

        R'[s, w, v] = A2[v, w] and (exists u: R[s, v, u] and B[u, w])

    with B = E(V_i, V_{i+2}) and A2 = E(V_{i+1}, V_{i+2}): one float32 GEMM
    (S n0 x n0) @ (n0 x n0), then clipped to 0/1 and masked with A2.  Every
    GEMM entry sums at most n0 < 2^24 products of 0/1 values, so it is exact.
    """
    n0, k = chain.n0, chain.k
    src = np.asarray(sources, dtype=np.int64).reshape(-1, 2)
    if src.size:
        in_range = (src >= 0).all() and (src < n0).all()
        first = _dense(chain, 0, 1)
        if not in_range or not first[src[:, 0], src[:, 1]].all():
            raise ValueError("sources must be surviving first-pair edges")
    total = chain.pair_edge_count(k - 2, k - 1)
    if not total:
        return [0.0] * len(src)
    layers = [
        (_dense32(chain, i, i + 2), _dense32(chain, i + 1, i + 2)) for i in range(k - 2)
    ]
    block = max(1, _BLOCK_ENTRIES // (n0 * n0))
    reached: list[int] = []
    for lo in range(0, len(src), block):
        part = src[lo : lo + block]
        s = len(part)
        state = np.zeros((s, n0, n0), dtype=np.float32)
        step = np.empty_like(state)
        state[np.arange(s), part[:, 1], part[:, 0]] = 1.0
        for B, A2 in layers:
            np.matmul(state.reshape(s * n0, n0), B, out=step.reshape(s * n0, n0))
            # entries are whole numbers >= 0 and A2 is 0/1: min clips and masks
            np.minimum(step, A2, out=step)
            # the next layer contracts over v, so it becomes the last axis
            state[...] = step.transpose(0, 2, 1)
            if not state.any():
                break
        reached.extend(np.count_nonzero(state, axis=(1, 2)).tolist())
    return [c / total for c in reached]


def reference_classify(window, threshold, sample_limit, rng) -> GoodEdgeReport:
    """Sample at most ``sample_limit`` first-pair edges in row-major order and
    classify them with one batched expansion call."""
    pairs = window.pair_edges_local(0, 1)
    if not pairs:
        return GoodEdgeReport((), 0)
    if len(pairs) > sample_limit:
        idx = rng.choice(len(pairs), size=sample_limit, replace=False)
        pairs = [pairs[int(i)] for i in sorted(idx)]
    fractions = reference_expansion_fractions(window, pairs)
    good = tuple(
        (window.to_global(0, a), window.to_global(1, b))
        for (a, b), frac in zip(pairs, fractions)
        if frac >= threshold
    )
    return GoodEdgeReport(good, len(pairs))


class ReferenceStateView:
    """A snapshot of an embed state in its earlier shape: the graph, the
    reserved vertices as sets, the unused vertices as a pool mask (not
    reserved) and a reserve mask, and the earlier ``available_mask``."""

    def __init__(self, st, g):
        self.g = g
        self.adj = st.adj
        self.r = st.r
        self.closing = st.closing
        self.reserved = [set(bits(m)) for m in st.reserved]
        self.pool_mask = [u & ~m for u, m in zip(st.unused, st.reserved)]
        self.reserve_mask = [u & m for u, m in zip(st.unused, st.reserved)]

    def pool_size(self, pos: int) -> int:
        return self.available_mask(pos).bit_count()

    def available_mask(self, pos: int) -> int:
        m = self.pool_mask[pos % self.r]
        if self.closing:
            m |= self.reserve_mask[pos % self.r]
        return m


def reference_window(st, start_pos: int, t: int, rng) -> Optional[ChainPartition]:
    """Equal-size chain view over the pools of classes start_pos..start_pos+t-1;
    pools are truncated to the smallest pool size by seeded subsampling.
    Rebuilt per window because pools shrink as the path consumes vertices."""
    sizes = [st.pool_size(start_pos + i) for i in range(t)]
    m = min(sizes)
    if m < 3:
        return None
    cols = []
    for i in range(t):
        avail = sorted(bits(st.available_mask(start_pos + i)))
        if len(avail) > m:
            picks = rng.choice(len(avail), size=m, replace=False)
            avail = [avail[int(j)] for j in sorted(picks)]
        cols.append(tuple(avail))
    return chain_view(st.g, cols)


def reference_pick_start_edge(st, params, rng, trace):
    """Start edge inside the reserved sets of the first two classes, chosen to
    expand backwards through the reserved chain when that window is buildable;
    falls back to any viable reserved edge (flagged) and then to pool edges."""
    adj = st.adj
    r = st.r
    k0 = params.k0
    res0 = sorted(st.reserved[0])
    res1 = sorted(st.reserved[1])
    candidates = [
        (u, v) for u in res0 for v in res1 if (adj[u] >> v) & 1
    ]
    rng.shuffle(candidates)
    viable = [(u, v) for u, v in candidates if adj[u] & adj[v] & st.pool_mask[2]]
    if not all(len(st.reserved[(1 - i) % r]) >= 3 for i in range(k0 + 2)):
        best_fallback = viable[0] if viable else None
    else:
        view = chain_view(st.g, [sorted(st.reserved[(1 - i) % r]) for i in range(k0 + 2)])
        # the backward chain starts at class 1, so (u, v) enters it as (v, u)
        sources = [(view.to_local(v)[1], view.to_local(u)[1]) for u, v in viable]
        fractions = reference_expansion_fractions(view, sources)
        for e, frac in zip(viable, fractions):
            if frac >= params.good_threshold:
                trace.start_certified = True
                return e
        best_fallback = next((e for e, frac in zip(viable, fractions) if frac > 0), None)
    if best_fallback is not None:
        trace.flags.append("start-uncertified")
        return best_fallback
    # no reserved edge at all: fall back to pool edges of classes 0, 1
    trace.flags.append("start-from-pool")
    pool0 = sorted(bits(st.pool_mask[0]))
    pool1 = sorted(bits(st.pool_mask[1]))
    pool_candidates = [
        (u, v) for u in pool0 for v in pool1 if (adj[u] >> v) & 1
    ]
    rng.shuffle(pool_candidates)
    for u, v in pool_candidates:
        if adj[u] & adj[v] & st.pool_mask[2]:
            return (u, v)
    return None


# ---------------------------------------------------------------------------
# hand-rolled edge-state searches


def reference_longest_square_path_pruned(g: Graph, node_budget: int | None = None) -> PathSearchResult:
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
    nodes = 0
    limit = node_budget if node_budget is not None and node_budget >= 0 else 1 << 62
    exhausted = False

    # reach[v] = vertices reachable from any state entering v, ignoring
    # revisits: the transitive closure of v -> (N(u) & N(v)) unions.  A
    # fixed-point over vertex bitsets is a sound over-approximation of the
    # per-state reach and much cheaper to compute.
    reach = _vertex_reach_closure(g)
    indep = _greedy_independent_set(g)
    outside = ~indep

    states = edge_states(g)
    # try denser start edges first: pruning works best when a long path is
    # found early, so order by decreasing successor count.
    states.sort(key=lambda s: -(adj[s.first] & adj[s.second]).bit_count())

    for u, v in states:
        stack = [(u, v, (1 << u) | (1 << v), [u, v])]
        push, pop = stack.append, stack.pop
        while stack:
            if nodes >= limit:
                exhausted = True
                break
            cu, cv, visited, seq = pop()
            nodes += 1
            depth = len(seq)
            if depth > best_len:
                best_len = depth
                best_seq = list(seq)
                if best_len == g.n:
                    break
            free = ~visited
            cand = adj[cu] & adj[cv] & free
            if not cand:
                continue
            avail = reach[cv] & free
            if depth + avail.bit_count() <= best_len:
                continue
            off = 0 if indep >> cv & 1 else 1 if indep >> cu & 1 else 2
            if depth + (3 * (avail & outside).bit_count() + off) // 2 <= best_len:
                continue
            if not cand & (cand - 1):
                w = cand.bit_length() - 1
                push((cv, w, visited | cand, seq + [w]))
                continue
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
            for _, w in order:
                push((cv, w, visited | (1 << w), seq + [w]))
        if exhausted or best_len == g.n:
            break

    return PathSearchResult(SquarePath.checked(g, best_seq), not exhausted, nodes)


def reference_has_square_hamilton_cycle(g: Graph, node_budget: int | None = None) -> CycleSearchResult:
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
    nodes = 0
    budget = node_budget if node_budget is not None else -1

    a_mask = 1 << anchor
    stack = []
    for b in bits(adj[anchor]):
        stack.append((anchor, b, a_mask | (1 << b), [anchor, b]))
    full = (1 << n) - 1
    while stack:
        if budget >= 0 and nodes >= budget:
            return CycleSearchResult("unknown", None, nodes)
        cu, cv, visited, seq = stack.pop()
        nodes += 1
        if len(seq) == n:
            # closure: last two vertices against the anchor and its successor
            if (
                (adj[cv] >> anchor) & 1
                and (adj[cu] >> anchor) & 1
                and (adj[cv] >> seq[1]) & 1
            ):
                cyc = SquareCycle.checked(g, seq)
                return CycleSearchResult("found", cyc, nodes)
            continue
        cand = adj[cu] & adj[cv] & ~visited
        if len(seq) == n - 1:
            cand &= adj[anchor]  # last vertex must close consecutively
        for w in bits(cand):
            stack.append((cv, w, visited | (1 << w), seq + [w]))
    return CycleSearchResult("none", None, nodes)


def reference_has_square_cycle_through(
    g: Graph, v: int, min_length: int = 5, node_budget: int | None = None
) -> CycleSearchResult:
    """Exact search for any square cycle (length >= min_length) through v.

    Used to certify wipe-style adversaries: after all edges inside N(v) are
    deleted, v lies in no triangle and this search must report "none".
    """
    g.check_vertex(v)
    if min_length < 5:
        raise ValueError("square cycles need length >= 5")
    adj = g.adjacency
    nodes = 0
    budget = node_budget if node_budget is not None else -1
    # search square paths b, v, c, ... that wrap around to b; anchoring at v
    # keeps the search restricted to cycles through v.
    for b in bits(adj[v]):
        for c in bits(adj[v] & adj[b]):
            stack = [(v, c, (1 << v) | (1 << b) | (1 << c), [b, v, c])]
            while stack:
                if budget >= 0 and nodes >= budget:
                    return CycleSearchResult("unknown", None, nodes)
                cu, cv, visited, seq = stack.pop()
                nodes += 1
                if (
                    len(seq) >= min_length
                    and (adj[cv] >> b) & 1
                    and (adj[cu] >> b) & 1
                    and (adj[cv] >> v) & 1
                ):
                    cyc = SquareCycle.checked(g, seq)
                    return CycleSearchResult("found", cyc, nodes)
                cand = adj[cu] & adj[cv] & ~visited
                for w in bits(cand):
                    stack.append((cv, w, visited | (1 << w), seq + [w]))
    return CycleSearchResult("none", None, nodes)


def reference_dfs_to_targets(st, u, v, c0, t, targets, budget):
    """Depth-first search through the pools of classes c0+2..c0+t-1 for a
    square-path extension of (u, v) ending at a target edge."""
    adj = st.adj
    depth_total = t - 2
    target_by_a: dict[int, int] = {}
    for a, b in targets:
        target_by_a[a] = target_by_a.get(a, 0) | (1 << b)

    nodes = 0
    stack: list[tuple[int, int, tuple[int, ...]]] = []

    def candidates(pu, pv, depth, chosen_mask):
        pool = st.available_mask(c0 + 2 + depth) & ~chosen_mask
        cand = adj[pu] & adj[pv] & pool
        if depth == depth_total - 2:
            cand &= mask_of(target_by_a)  # second-to-last must head a target
        out = []
        if depth == depth_total - 1:
            tb = target_by_a.get(pv, 0)
            cand &= tb
        nxt_pool = (
            st.available_mask(c0 + 3 + depth) if depth < depth_total - 1 else 0
        )
        for w in bits(cand):
            onward = (adj[pv] & adj[w] & nxt_pool).bit_count() if nxt_pool else 0
            out.append((onward, w))
        out.sort()
        return [w for _, w in out]  # stack pops last = highest onward degree

    first = candidates(u, v, 0, 0)
    for w in first:
        stack.append((0, w, (w,)))
    while stack:
        nodes += 1
        if nodes > budget:
            return None
        depth, w, chosen = stack.pop()
        if depth == depth_total - 1:
            return list(chosen)
        pu = chosen[-2] if len(chosen) >= 2 else v
        mask = 0
        for x in chosen:
            mask |= 1 << x
        for nw in candidates(pu, w, depth + 1, mask):
            stack.append((depth + 1, nw, chosen + (nw,)))
    return None

