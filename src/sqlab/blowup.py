"""Chain partitions: blow-ups of squared paths, the triangle-pruning process,
edge expansion through the chain, and exact square-path counting.

A chain is an ordered list of disjoint equal-size vertex classes V1..Vk in
which only pairs of classes at distance 1 or 2 carry edges (synthetic chains
are built that way; views into larger graphs mask everything else out).  Per
pair the adjacency is uint64 word rows (``bitops``), one row per vertex of
the older class.  :meth:`ChainPartition.from_matrix` slices every pair out
of a graph's boolean adjacency matrix and packs them at once, as
:func:`chain_view` and the embedder's windows do.

Pruning counts triangles with one float32 GEMM per step (in row blocks) and
the exact path counters advance integer state matrices by one product per
layer.  Good-edge classification advances many sources at once through
:meth:`ChainPartition.expansion_fractions`, on the word rows themselves: its
first two moves are closed form, and each further move ORs rows of byte
tables, so every reached count is an exact popcount.

Pruning owns a private copy of the pair matrices (a Graph under a view is
never mutated) and returns it with each step's removals and the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Optional, Sequence

import numpy as np

from .bitops import pack_bool_matrix, popcount_rows, unpack_packed_matrix
from .graph import Graph, to_matrix
from .regularity import _check_sampling, lower_regular_verdict
from .util import rng_from


def _id_array(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """The integer array of rows of vertex ids; ids go through
    ``operator.index``, so float ids raise TypeError, never truncated."""
    idx = np.asarray(rows)
    if idx.dtype.kind not in "iu":  # float ids, or Python ints mixed with uint64
        idx = np.array([[index(v) for v in row] for row in rows], dtype=np.int64)
    return idx


def _class_index(classes: tuple[tuple[int, ...], ...], n: Optional[int] = None) -> np.ndarray:
    """The (k, n0) id array of a chain's classes, after checking them: at
    least 2 classes, all of one size n0 >= 3, ids in [0, n) (only >= 0 when
    n is None), and no id in two classes."""
    if len(classes) < 2:
        raise ValueError("a chain needs at least 2 classes")
    if len({len(c) for c in classes}) != 1:
        raise ValueError("classes must have equal size")
    if len(classes[0]) < 3:
        raise ValueError("class size must be >= 3")
    idx = _id_array(classes)
    if n is None:
        n = int(idx.max()) + 1
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"class vertex out of range [0, {n})")
    seen = np.zeros(n, dtype=bool)
    seen[idx.ravel()] = True
    if np.count_nonzero(seen) != idx.size:
        raise ValueError("classes overlap")
    return idx


class ChainPartition:
    """Ordered disjoint equal-size classes, with ``ids`` their (k, n0) id
    array, and the adjacency of each chain pair (i, j), j = i + 1 or i + 2,
    as word rows: (n0, ceil(n0 / 64)) little-endian uint64, row u the
    neighbours in class j of the u-th vertex of class i.  Keys outside the
    chain and arrays of another shape or type are refused."""

    def __init__(
        self,
        classes: Sequence[Sequence[int]],
        reference_p: float,
        pairs: dict[tuple[int, int], np.ndarray],
    ):
        self._set(_class_index(tuple(tuple(c) for c in classes)), reference_p, pairs)
        shape = (self.n0, -(-self.n0 // 64))
        for (i, j), m in pairs.items():
            if not (0 <= i and j - i in (1, 2) and j < self.k):
                raise ValueError(f"({i}, {j}) is not a chain pair of {self.k} classes")
            if not (isinstance(m, np.ndarray) and m.dtype == "<u8" and m.shape == shape):
                raise ValueError(f"pair ({i}, {j}) is not {shape} little-endian uint64 word rows")

    def _set(self, ids: np.ndarray, reference_p: float, pairs) -> None:
        self.ids = ids
        # the ids as Python ints, whatever integer type they came in
        self.classes = tuple(map(tuple, ids.tolist()))
        self.n0 = ids.shape[1]
        self.reference_p = reference_p
        self._pairs = pairs

    @classmethod
    def from_matrix(cls, a: np.ndarray, classes: Sequence[Sequence[int]]) -> "ChainPartition":
        """The chain on ``classes`` (global ids) of the graph whose boolean
        adjacency matrix is ``a``: only distance-1/2 class pairs are read,
        and all of them are packed at once.  ``reference_p`` is their mean
        density.  Rejects fewer than 2 classes, unequal sizes, classes below
        3 vertices, ids out of range and overlap."""
        idx = _class_index(tuple(tuple(c) for c in classes), a.shape[0])
        k, n0 = idx.shape
        keys = [(i, j) for i in range(k - 1) for j in (i + 1, i + 2) if j < k]
        # a[rows][:, cols]: two plain gathers, much cheaper than np.ix_ here
        rows = [a[idx[i]] for i in range(k - 1)]
        words = pack_bool_matrix(np.array([rows[i][:, idx[j]] for i, j in keys]))
        density_sum = 0.0
        for edges in popcount_rows(words.reshape(len(keys), -1)).tolist():
            density_sum += edges / (n0 * n0)
        chain = cls.__new__(cls)
        chain._set(idx, density_sum / len(keys), dict(zip(keys, words)))
        return chain

    @property
    def k(self) -> int:
        return len(self.classes)

    def pair_indices(self) -> list[tuple[int, int]]:
        return sorted(self._pairs)

    def pair(self, i: int, j: int) -> np.ndarray:
        """Word rows of classes (i, j), i < j, rows indexed by class i."""
        if (i, j) not in self._pairs:
            raise ValueError(f"classes ({i}, {j}) are not a chain pair")
        return self._pairs[(i, j)]

    def pair_edge_count(self, i: int, j: int) -> int:
        return int(popcount_rows(self.pair(i, j)).sum())

    def pair_edges_local(self, i: int, j: int) -> list[tuple[int, int]]:
        m = unpack_packed_matrix(self.pair(i, j), self.n0)
        rows, cols = np.nonzero(m)
        return list(zip(rows.tolist(), cols.tolist()))

    def to_global(self, class_index: int, local: int) -> int:
        return self.classes[class_index][local]

    def to_local(self, v: int) -> tuple[int, int]:
        at = np.flatnonzero(self.ids == v)
        if not at.size:
            raise ValueError(f"vertex {v} is not in the chain")
        return divmod(int(at[0]), self.n0)

    def locate_edge(self, u: int, v: int) -> tuple[int, int, int, int]:
        """Resolve a global pair to (class_i, class_j, local_u, local_v) with
        i < j; raises if it is not a surviving chain edge."""
        ci, li = self.to_local(u)
        cj, lj = self.to_local(v)
        if cj < ci:
            ci, li, cj, lj = cj, lj, ci, li
        if (ci, cj) not in self._pairs:
            raise ValueError(f"({u}, {v}) does not lie in a chain pair")
        if not unpack_packed_matrix(self._pairs[(ci, cj)][li], self.n0)[lj]:
            raise ValueError(f"({u}, {v}) is not a surviving chain edge")
        return ci, cj, li, lj

    def copy(self) -> "ChainPartition":
        return ChainPartition(
            self.classes,
            self.reference_p,
            {k: v.copy() for k, v in self._pairs.items()},
        )

    def expansion_fractions(self, sources: Sequence[tuple[int, int]]) -> list[float]:
        """For each first-pair edge (a, b), in local integer ids (floats
        raise TypeError), the fraction of last-pair edges it reaches by forward
        square-walk moves: (u, v) in pair (i, i+1) steps to (v, w) in pair
        (i+1, i+2) with w a common neighbour.  Classes are disjoint, so every
        such walk is a square path.

        A multi-source traversal on word rows.  A source (a, b) has one
        state, so it reaches the states (b, w) for w in f = N(a) & N(b), and
        then (w, x) for x in N(b) & N(w): the first two moves are closed form
        (the multi-source frontier start of Then et al., "The More the
        Merrier", PVLDB 2014, carried one move further), and source s holds
        one word row R[s, x] = f_s & N(x) per x in N(b_s), rows by the newer
        class.  Each further move, with B = E(V_i, V_{i+2}) and
        A2 = E(V_{i+1}, V_{i+2}), is R'[s, v] = A2[v] & (OR of B[u] over u in
        R[s, v]), by the "four Russians" method (Arlazarov, Dinic, Kronrod and
        Faradzev, 1970): byte c of R[s, v] picks a row of the 256-entry table
        of ORs of B's rows 8c..8c+7.  R' has rows by the older class; a bit
        transpose per source turns it back, except after the last move, whose
        popcounts are the reached counts.
        """
        n0, k = self.n0, self.k
        src = _id_array(sources) if len(sources) else np.empty((0, 2), dtype=np.int64)
        if src.ndim != 2 or src.shape[1] != 2:
            raise ValueError("sources must be a sequence of (a, b) pairs")
        if src.size:
            in_range = (src >= 0).all() and (src < n0).all()
            first = unpack_packed_matrix(self.pair(0, 1), n0)
            if not in_range or not first[src[:, 0], src[:, 1]].all():
                raise ValueError("sources must be surviving first-pair edges")
        total = self.pair_edge_count(k - 2, k - 1)
        if not total:
            return [0.0] * len(src)
        if k == 2:  # each source is its own only last-pair edge
            return [1 / total] * len(src)
        nbytes = -(-n0 // 8)
        block = max(1, _BLOCK_ENTRIES // (n0 * n0))
        (B0, A0), *rest = [(self.pair(i, i + 2), self.pair(i + 1, i + 2)) for i in range(k - 2)]
        if rest:
            (B1, A1), *further = rest
            A1T = _transpose_words(A1)
            tables = [(_or_tables(B, nbytes), A2) for B, A2 in further]
        reached: list[int] = []
        for lo in range(0, len(src), block):
            part = src[lo : lo + block]
            f = B0[part[:, 0]] & A0[part[:, 1]]
            if not rest:  # k = 3: the states (b, w) are last-pair edges
                reached.extend(popcount_rows(f).tolist())
                continue
            hit = unpack_packed_matrix(B1[part[:, 1]], n0)
            state = np.where(hit[:, :, None], f[:, None, :] & A1T, 0)
            for j, (table, A2) in enumerate(tables):
                if not state.any():
                    break
                picks = state.view(np.uint8)[..., :nbytes]
                out = table[0].take(picks[..., 0], axis=0)  # ~10x faster than t[picks]
                for c in range(1, nbytes):
                    out |= table[c].take(picks[..., c], axis=0)
                out &= A2
                state = out if j == len(tables) - 1 else _transpose_words(out)
            reached.extend(popcount_rows(state).sum(axis=-1).tolist())
        return [c / total for c in reached]


def build_chain_random(k: int, n0: int, p0: float, seed: int) -> ChainPartition:
    """Synthetic chain on k*n0 vertices: every distance-1 and distance-2 class
    pair filled independently with edge probability p0, in fixed pair order
    (reproducible from the seed)."""
    if k < 3:
        raise ValueError("k must be >= 3")
    if n0 < 3:
        raise ValueError("n0 must be >= 3")
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"edge probability {p0} outside [0, 1]")
    rng = rng_from(seed)
    pairs: dict[tuple[int, int], np.ndarray] = {}
    for i in range(k):
        for j in (i + 1, i + 2):
            if j < k:
                m = rng.random((n0, n0)) < p0
                pairs[(i, j)] = pack_bool_matrix(m)
    classes = [tuple(range(i * n0, (i + 1) * n0)) for i in range(k)]
    return ChainPartition(classes, p0, pairs)


def chain_view(g: Graph, classes: Sequence[Sequence[int]]) -> ChainPartition:
    """View of g as a chain: only distance-1/2 pair edges are visible."""
    classes = [tuple(map(g.check_vertex, c)) for c in classes]
    return ChainPartition.from_matrix(to_matrix(g), classes)


@dataclass(frozen=True)
class PruneResult:
    chain: ChainPartition
    removed: dict[tuple[int, int], int]
    threshold: float


def _triangle_blocks(chain: ChainPartition, i: int):
    """Triangle counts of pair (i, i+1) against class i+2 in row blocks of
    at most _BLOCK_ENTRIES entries: yields (lo, tri) with tri[u - lo, v] the
    number of w in V_{i+2} adjacent to u in V_i and to v in V_{i+1}.  Each
    block is one float32 GEMM, exact because every entry sums at most
    n0 < 2^24 products of 0/1 values."""
    n0 = chain.n0
    B = chain.pair(i, i + 2)
    CT = _dense(chain, i + 1, i + 2).astype(np.float32).T
    rows = max(1, _BLOCK_ENTRIES // n0)
    for lo in range(0, n0, rows):
        yield lo, unpack_packed_matrix(B[lo : lo + rows], n0).astype(np.float32) @ CT


def prune_to_gtilde(chain: ChainPartition, epsilon: float) -> PruneResult:
    """Triangle pruning: for i from the last interior pair down to the first,
    drop every surviving edge of E(V_i, V_{i+1}) that closes fewer than
    (1 - epsilon) n0 p0^2 triangles with V_{i+2}, counted against surviving
    edges.  Counts at step i depend only on the pairs (i, i+2) and
    (i+1, i+2), so removal within a step is order-independent; steps run
    strictly from the top index down.  The final pair is never touched.
    ``epsilon`` must lie in (0, 1).

    The proof bounds step i's removals by 2 delta_i m_i edges, where
    delta_i = (eps_{i-1}/4)^4 / 2, eps_i = delta_i / 4, eps_0 = epsilon and
    m_i = ceil((1 - eps_i) n0^2 p0).  On the benchmark's (5, 1500, 0.35)
    chain at epsilon 0.2 that is 4.9, 1e-21 and 3e-108 edges, while about a
    thousand go per pair.  From the second step on the bound is below one
    edge for any epsilon in (0, 1) unless n0 > 6e7, so it would only say
    whether any edge went, and it is not computed.

    Returns a pruned copy; the input chain is unchanged.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    out = chain.copy()
    n0, p0 = out.n0, out.reference_p
    tau = (1 - epsilon) * n0 * p0 * p0
    removed: dict[tuple[int, int], int] = {}
    for i in range(out.k - 3, -1, -1):
        A = _dense(out, i, i + 1)
        before = int(np.count_nonzero(A))
        for lo, tri in _triangle_blocks(out, i):
            # a float64 scalar keeps the comparison in float64: against a
            # Python float, numpy would round tau to float32 first
            A[lo : lo + len(tri)] &= tri >= np.float64(tau)
        removed[(i, i + 1)] = before - int(np.count_nonzero(A))
        out._pairs[(i, i + 1)] = pack_bool_matrix(A)
    return PruneResult(out, removed, tau)


# ---------------------------------------------------------------------------
# property (ii): lower-regular neighbourhoods of middle vertices


def check_gtilde_ii(
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
    either a hard size violation or a "violated" verdict of
    ``lower_regular_verdict``, which carries no witness and cannot be
    replayed.  The flank sub-pairs of all of a middle class's vertices in
    the window share one ``lower_regular_verdict`` run, drawn from the one
    generator of the check.  Bad sampling arguments raise ValueError first.
    """
    _check_sampling(reference_p, epsilon, sample_count)
    rng = rng_from(seed)
    n0 = chain.n0
    lo = (1 - epsilon) * n0 * reference_p
    hi = (1 + epsilon) * n0 * reference_p
    out: dict[int, int] = {}
    for i in range(chain.k - 2):
        middle = i + 1
        left_of = _dense(chain, i, middle).T  # rows: middle locals
        right_of = _dense(chain, middle, i + 2)
        sizes = np.count_nonzero(left_of, axis=1), np.count_nonzero(right_of, axis=1)
        inside = np.flatnonzero(np.all([(lo <= x) & (x <= hi) for x in sizes], axis=0))
        sub_pairs = [(left_of[v].nonzero()[0], right_of[v].nonzero()[0]) for v in inside]
        flank = _dense(chain, i, i + 2)
        verdicts = lower_regular_verdict(flank, sub_pairs, reference_p, epsilon, sample_count, rng)
        out[middle] = n0 - inside.size + verdicts.count("violated")
    return out


# ---------------------------------------------------------------------------
# the good-edge kernel's helpers


# The chain kernels work in blocks of at most this many entries: expansion
# sources advance through the layers in blocks of this many state bits
# (n0 x n0 per source), whatever the number of sources, and triangle counts
# are computed this many float32 entries (4 MB) at a time.
_BLOCK_ENTRIES = 1 << 20


def _transpose_words(m: np.ndarray) -> np.ndarray:
    """The bit transpose of each square word-row matrix of ``m``, packed from
    a contiguous copy (``pack_bool_matrix`` is about 4x faster on one)."""
    dense = unpack_packed_matrix(m, m.shape[-2]).swapaxes(-1, -2)
    return pack_bool_matrix(np.ascontiguousarray(dense))


def _or_tables(rows: np.ndarray, nbytes: int) -> np.ndarray:
    """T[c, x] = OR of rows[8c + j] over the bits j of byte x, c < nbytes,
    built in 8 doubling steps."""
    padded = np.zeros((8 * nbytes, rows.shape[1]), dtype=rows.dtype)
    padded[: len(rows)] = rows
    table = np.zeros((nbytes, 256, rows.shape[1]), dtype=rows.dtype)
    for j in range(8):
        table[:, 1 << j : 2 << j] = table[:, : 1 << j] | padded[j::8, None]
    return table


def _dense(chain: ChainPartition, i: int, j: int) -> np.ndarray:
    return unpack_packed_matrix(chain.pair(i, j), chain.n0)


# ---------------------------------------------------------------------------
# exact square-path counting between end edges


_INT64_MAX = int(np.iinfo(np.int64).max)


def _exact_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for nonnegative integer (or boolean) matrices, exactly: in int64
    while no entry can pass INT64_MAX, in Python ints (dtype object) past
    that; never in floating point.  A zero column of x or zero row of y adds
    nothing to any sum, so the product runs over the other indices only (few,
    while a walk count spreads out from one state)."""
    inner = np.flatnonzero(x.any(axis=0) & y.any(axis=1))
    bound = int(x.max(initial=0)) * int(y.max(initial=0)) * inner.size
    dtype = np.int64 if bound <= _INT64_MAX else object
    return x[:, inner].astype(dtype) @ y[inner].astype(dtype)


def _forward_counts(chain: ChainPartition, a: int, b: int, steps: int) -> np.ndarray:
    """Square-walk counts from the local first-pair state (a, b) after
    ``steps`` forward moves: N[u, v] walks end in state (u, v) of pair
    (steps, steps+1).  One move is N' = (N^T @ B) * A2, with B = E(V_i,
    V_{i+2}) and A2 = E(V_{i+1}, V_{i+2})."""
    n = np.zeros((chain.n0, chain.n0), dtype=np.int64)
    n[a, b] = 1
    for i in range(steps):
        n = _exact_matmul(n.T, _dense(chain, i, i + 2)) * _dense(chain, i + 1, i + 2)
    return n


def count_square_paths_between(
    chain: ChainPartition, e1: tuple[int, int], e2: tuple[int, int]
) -> int:
    """Exact number of squares of paths spanning the chain from e1 (first
    pair) to e2 (last pair), meeting in the middle: forward counts from e1,
    backward counts from e2, stitched across the shared class.  Classes are
    disjoint, so layered walks are automatically vertex-distinct and the
    count is exact.
    """
    k = chain.k
    c1, d1, a1, b1 = chain.locate_edge(*e1)
    c2, d2, a2, b2 = chain.locate_edge(*e2)
    if (c1, d1) != (0, 1):
        raise ValueError("e1 must lie in the first pair")
    if (c2, d2) != (k - 2, k - 1):
        raise ValueError("e2 must lie in the last pair")
    if k == 2:  # the first pair is the last pair
        return int((a1, b1) == (a2, b2))
    # forward t_f moves to pair (t_f, t_f+1); backward the rest to pair
    # (t_f+1, t_f+2)
    t_f = (k - 2) // 2
    fwd = _forward_counts(chain, a1, b1, t_f)
    # M[b, c] counts walks from state (b, c) of pair (j, j+1) to e2; its
    # predecessors (a, b) have a adjacent to b and to c: M' = A * (B @ M^T)
    bwd = np.zeros((chain.n0, chain.n0), dtype=np.int64)
    bwd[a2, b2] = 1
    for j in range(k - 2, t_f + 1, -1):
        bwd = _dense(chain, j - 1, j) * _exact_matmul(_dense(chain, j - 1, j + 1), bwd.T)
    # stitch: the distance-2 edge (a, c) of pair (t_f, t_f+2) must be present,
    # so the total is sum(F * (D @ M^T)), taken as one exact dot product
    reach = _exact_matmul(_dense(chain, t_f, t_f + 2), bwd.T)
    return int(_exact_matmul(fwd.reshape(1, -1), reach.reshape(-1, 1))[0, 0])


def square_path_counts_from(
    chain: ChainPartition, e1: tuple[int, int]
) -> dict[tuple[int, int], int]:
    """Forward counts of spanning square paths from e1 to every last-pair
    edge (global ids).  Cross-checks the meet-in-the-middle counter."""
    k = chain.k
    c1, d1, a1, b1 = chain.locate_edge(*e1)
    if (c1, d1) != (0, 1):
        raise ValueError("e1 must lie in the first pair")
    counts = _forward_counts(chain, a1, b1, k - 2)
    rows, cols = np.nonzero(counts)
    ca, cb = chain.classes[k - 2], chain.classes[k - 1]
    ends = [(ca[a], cb[b]) for a, b in zip(rows.tolist(), cols.tolist())]
    return dict(zip(ends, counts[rows, cols].tolist()))
