"""Window-by-window greedy embedding of a long square cycle.

Pipeline: a regular partition yields a reduced graph; an exact search finds
a square Hamilton cycle of the reduced graph; classes are laid out along
that cycle and a square path is grown through them in strict cyclic class
order, one vertex per class per lap.  Growth is windowed: the path's end
edge is extended to a *good* edge of the next window (one whose expansion
through the window reaches at least ``good_threshold`` of the window's last
pair), via a concrete square path recovered by depth-first search over the
per-class pools of unused vertices.  Each window is a set of dense blocks
of one boolean adjacency matrix, made once per embed: a
:class:`sqlab.blowup.ChainLayers` sliced over those pools.  A seeded sample
of its first-pair edges is classified in one batched call to the good-edge
kernel, :meth:`sqlab.blowup.ChainLayers.expansion_fractions`.  Reserved
per-class sets are set aside before growth starts and spent only in the
closing phase, which winds the path through the leftover-plus-reserved
pools to the lap boundary and joins it back to the start edge.

The embedder never trusts itself: every window asserts square-path validity
of the whole grown prefix on the adjacency matrix, and the final cycle is
re-validated from scratch on the graph.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, ClassVar, Optional, Sequence

import numpy as np

from .bitops import bits, mask_of
from .blowup import ChainLayers
from .graph import Graph, to_matrix
from .regularity import EquitablePartition
from .squarewalk import (
    CycleSearchResult,
    SquareCycle,
    SquarePath,
    _closes,
    has_square_hamilton_cycle,
    search_square_paths,
)
from .util import rng_from

if TYPE_CHECKING:
    from .blowup import ChainPartition


@dataclass(frozen=True, kw_only=True)
class PipelineParams:
    """Configuration of the embedding pipeline: two settable values and a set
    of class constants.

    The settable values are the slacks the paper's statement depends on: the
    regularity ``epsilon`` and ``nu``, how far the minimum degree sits above
    ``mu`` n p.  ``epsilon`` must lie in (0, 1) and below ``nu``; it is also
    the share of each class held in reserve for the closing phase
    (``reserve_fraction``).  Arguments are keyword-only.

    Everything else is a class constant.  Window lengths stay in [k0, 2 k0],
    with k0 derived from ``gamma``: the dense surrogate regime treats gamma
    as fixed (larger gamma means shorter windows), since the asymptotic
    density relation p = n^(gamma-1)/2 is not meaningful at desk scale.  The
    partition has ``r_min`` = ``r_max`` = 3 k0 classes.  An experiment varies
    a constant by patching the class attribute (pytest's
    ``monkeypatch.setattr(PipelineParams, "window_node_budget", ...)``); k0,
    r_min and r_max are computed once, so patching gamma moves none of them.
    """

    gamma: ClassVar[float] = 3.0
    k0: ClassVar[int] = math.ceil(3.0 / gamma) + 4
    alpha: ClassVar[float] = 0.1
    mu: ClassVar[float] = 2.0 / 3.0
    r_min: ClassVar[int] = 3 * k0
    r_max: ClassVar[int] = r_min
    good_threshold: ClassVar[float] = 0.51
    good_sample_limit: ClassVar[int] = 64
    # a window's search needs at least k0 - 2 expansions to reach its target
    window_node_budget: ClassVar[int] = 4000
    backtrack_budget: ClassVar[int] = 60

    nu: float = 0.1
    epsilon: float = 0.075

    def __post_init__(self):
        if not 0 < self.epsilon < min(1.0, self.nu):
            raise ValueError(
                f"need 0 < epsilon < min(1, nu), got epsilon={self.epsilon}, nu={self.nu}"
            )

    @property
    def reserve_fraction(self) -> float:
        return self.epsilon

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "nu": self.nu,
            "alpha": self.alpha,
            "epsilon": self.epsilon,
            "mu": self.mu,
            "k0": self.k0,
            "r_min": self.r_min,
            "r_max": self.r_max,
            "good_threshold": self.good_threshold,
            "reserve_fraction": self.reserve_fraction,
        }


@dataclass
class WindowRecord:
    index: int
    start_class: int
    length: int
    good_fraction: float
    chosen_edge: tuple[int, int] | None
    path_length: int
    closing: bool


@dataclass
class EmbeddingTrace:
    windows: list[WindowRecord]
    closing_status: str  # "closed" | "open-path" | "failed"
    cycle: Optional[SquareCycle]
    path: Optional[SquarePath]
    start_edge: tuple[int, int] | None
    start_certified: bool
    flags: list[str] = field(default_factory=list)

    @property
    def final_length(self) -> int:
        if self.cycle is not None:
            return len(self.cycle)
        if self.path is not None:
            return len(self.path)
        return 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "closing_status": self.closing_status,
                "final_length": self.final_length,
                "start_edge": list(self.start_edge) if self.start_edge else None,
                "start_certified": self.start_certified,
                "flags": self.flags,
                "windows": [asdict(w) for w in self.windows],
                "vertices": list(
                    self.cycle.vertices
                    if self.cycle is not None
                    else (self.path.vertices if self.path is not None else ())
                ),
            }
        )


# ---------------------------------------------------------------------------
# reduced graph


def reduced_graph(
    partition: EquitablePartition, reduced_adjacency: dict[int, frozenset[int]]
) -> Graph:
    """Graph on the partition classes: edge ij iff the pair is dense-regular."""
    r = partition.r
    adj = [0] * r
    for i, nbrs in reduced_adjacency.items():
        for j in nbrs:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph(r, adj)


def square_cycle_in_reduced(r_graph: Graph) -> CycleSearchResult:
    """Square Hamilton cycle of the reduced graph by exact search: the
    embedder lays every class out along it, so no shorter cycle is sought."""
    return has_square_hamilton_cycle(r_graph)


# ---------------------------------------------------------------------------
# good edges


@dataclass(frozen=True)
class GoodEdgeReport:
    good: tuple[tuple[int, int], ...]
    fraction: float
    sampled: int


def classify_good_edges(
    window: ChainPartition,
    threshold: float,
    sample_limit: int = 200,
    seed: int = 0,
) -> GoodEdgeReport:
    """First-pair edges whose expansion through the window reaches at least
    a ``threshold`` fraction of the window's last pair.

    At most ``sample_limit`` first-pair edges are classified (seeded sample);
    the good fraction reported is over the sampled edges.
    """
    if sample_limit < 1:
        raise ValueError(f"sample_limit must be >= 1, got {sample_limit}")
    return _classify(ChainLayers.from_chain(window), threshold, sample_limit, rng_from(seed))


def _classify(window: ChainLayers, threshold, sample_limit, rng) -> GoodEdgeReport:
    """Sample at most ``sample_limit`` first-pair edges in row-major order and
    classify them with one batched expansion call."""
    pairs = window.first_edges()
    if not pairs:
        return GoodEdgeReport((), 0.0, 0)
    if len(pairs) > sample_limit:
        idx = rng.choice(len(pairs), size=sample_limit, replace=False)
        pairs = [pairs[int(i)] for i in sorted(idx)]
    fractions = window.expansion_fractions(pairs)
    good = tuple(
        (window.to_global(0, a), window.to_global(1, b))
        for (a, b), frac in zip(pairs, fractions)
        if frac >= threshold
    )
    return GoodEdgeReport(good, len(good) / len(pairs), len(pairs))


# ---------------------------------------------------------------------------
# the embedder


class _EmbedState:
    """Mutable growth state: the path, per class the unused vertices and the
    fixed reserve as bitsets, the boolean adjacency matrix that windows are
    sliced from."""

    def __init__(self, g, classes, reserve_count, rng):
        self.adj = g.adjacency
        self.a = to_matrix(g)
        self.r = len(classes)
        self.unused: list[int] = []  # per class, reserved or not
        self.reserved: list[int] = []  # per class, fixed at reserve_count vertices
        for cls in classes:
            members = list(cls)
            picks = rng.choice(len(members), size=reserve_count, replace=False)
            self.reserved.append(mask_of(members[int(i)] for i in picks))
            self.unused.append(mask_of(members))
        self.path: list[int] = []
        self.closing = False

    def pool_size(self, pos: int) -> int:
        return self.available_mask(pos).bit_count()

    def available_mask(self, pos: int) -> int:
        c = pos % self.r
        return self.unused[c] if self.closing else self.unused[c] & ~self.reserved[c]

    def consume(self, pos: int, v: int) -> None:
        c = pos % self.r
        if not (self.unused[c] >> v) & 1:
            raise AssertionError(f"vertex {v} not available in class {c}")
        self.unused[c] ^= 1 << v
        self.path.append(v)

    def restore(self, count: int) -> None:
        for _ in range(count):
            v = self.path.pop()
            self.unused[len(self.path) % self.r] |= 1 << v


def embed_square_cycle(
    g: Graph,
    partition: EquitablePartition,
    reduced_cycle: Optional[SquareCycle],
    params: PipelineParams,
    seed: int,
) -> EmbeddingTrace:
    """Grow a long square cycle through the partition classes in reduced-cycle
    order.  See the module docstring for the phase structure.  Closing failure
    returns the longest grown path flagged "open-path"; it is not an error.
    A missing reduced cycle (the reduced graph has no square Hamilton cycle,
    e.g. because too many pairs were flagged) raises ValueError.
    """
    if reduced_cycle is None:
        raise ValueError(
            "no square Hamilton cycle in the reduced graph "
            f"(r = {partition.r}, class size {partition.class_size()})"
        )
    r = len(reduced_cycle.vertices)
    k0 = params.k0
    if r < 3 * k0:
        raise ValueError(f"reduced cycle length {r} below 3 k0 = {3 * k0}")
    classes = [partition.classes[i] for i in reduced_cycle.vertices]
    ntilde = len(classes[0])
    reserve_count = max(1, math.ceil(params.reserve_fraction * ntilde))
    stop_floor = max(3, math.ceil(params.epsilon * ntilde))
    rng = rng_from(seed)
    st = _EmbedState(g, classes, reserve_count, rng)
    adj = g.adjacency
    trace = EmbeddingTrace([], "failed", None, None, None, False)

    start = _pick_start_edge(st, params, rng, trace)
    if start is None:
        trace.flags.append("no-start-edge")
        return trace
    x1, x2 = start
    st.consume(0, x1)
    st.consume(1, x2)
    trace.start_edge = (x1, x2)

    backtracks = 0
    # stack of (vertices_consumed_in_window, banned target edges) for undo
    history: list[tuple[int, set[tuple[int, int]]]] = []

    def min_pool_ahead() -> int:
        return min(st.pool_size(c) for c in range(r))

    def lap_remaining() -> int:
        return (r - 1 - ((len(st.path) - 1) % r)) % r

    def advance(banned: set[tuple[int, int]]) -> bool:
        """Grow one window of the shortest length in [k0, 2 k0] that reaches a
        good target edge outside ``banned``."""
        for t in range(k0, 2 * k0 + 1):
            rec = _advance_window(st, t, params, banned, rng, len(trace.windows))
            if rec is not None:
                trace.windows.append(rec)
                history.append((t - 2, banned))
                assert _is_square_path_dense(st.a, st.path), "window broke square-path validity"
                return True
        return False

    def joined() -> bool:
        """Close the cycle across the rest of the lap, when that is short
        enough for one join."""
        lap = lap_remaining()
        if lap == 0:
            return _closes(adj, (x1, x2), st.path[-2], st.path[-1])
        return lap <= 2 * k0 - 2 and _attempt_join(st, x1, x2, lap, params)

    def backtrack_and_retry() -> bool:
        """Undo the last window, ban its target, re-advance differently."""
        nonlocal backtracks
        if not history or backtracks >= params.backtrack_budget:
            return False
        consumed, prev_banned = history.pop()
        prev_banned.add((st.path[-2], st.path[-1]))
        st.restore(consumed)
        backtracks += 1
        return advance(prev_banned) or bool(history)  # deeper unwinding may still help

    while True:
        if not st.closing and min_pool_ahead() < stop_floor:
            st.closing = True

        # join only when further winding would thin the pools below window
        # viability; while pools are healthy, keep consuming laps
        if st.closing and lap_remaining() <= 2 * k0 - 2 and not _can_wind_generously(st):
            if joined():
                trace.closing_status = "closed"
                break
            # the boundary join failed: re-route the last window so the next
            # attempt starts from a different end edge
            if backtrack_and_retry():
                continue

        if advance(set()) or backtrack_and_retry():
            continue
        if not st.closing:
            st.closing = True
            continue
        # no way forward: one last join attempt from where we stand
        if joined():
            trace.closing_status = "closed"
            break
        trace.closing_status = "open-path"
        trace.flags.append("stuck-while-closing")
        break

    if trace.closing_status == "closed":
        cyc = SquareCycle.checked(g, st.path)
        _assert_class_alignment(st.path, classes, r)
        trace.cycle = cyc
    else:
        trace.path = SquarePath.checked(g, st.path)
    return trace


def _pick_start_edge(st, params, rng, trace):
    """Start edge inside the reserved sets of the first two classes, chosen to
    expand backwards through the reserved chain when that window is buildable;
    falls back to any viable reserved edge (flagged) and then to pool edges."""
    adj = st.adj
    pool2 = st.unused[2] & ~st.reserved[2]

    def shuffled_viable(m0, m1):
        """Edges between the sets m0, m1 in shuffled order, kept when their
        ends have a common neighbour in the pool of class 2."""
        edges = [(u, v) for u in bits(m0) for v in bits(m1) if (adj[u] >> v) & 1]
        rng.shuffle(edges)
        return [(u, v) for u, v in edges if adj[u] & adj[v] & pool2]

    viable = shuffled_viable(st.reserved[0], st.reserved[1])
    if st.reserved[0].bit_count() < 3:  # every class holds reserve_count
        best_fallback = viable[0] if viable else None
    else:
        cols = [list(bits(st.reserved[(1 - i) % st.r])) for i in range(params.k0 + 2)]
        view = ChainLayers.from_matrix(st.a, cols)
        # the backward chain starts at class 1 (cols[0]) and goes on to
        # class 0 (cols[1]), so (u, v) enters it as (v, u), in local ids
        at1, at0 = ({w: i for i, w in enumerate(col)} for col in cols[:2])
        fractions = view.expansion_fractions([(at1[v], at0[u]) for u, v in viable])
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
    viable = shuffled_viable(st.unused[0] & ~st.reserved[0], st.unused[1] & ~st.reserved[1])
    return viable[0] if viable else None


def _window(st, start_pos: int, t: int, rng) -> Optional[ChainLayers]:
    """Equal-size chain over the pools of classes start_pos..start_pos+t-1,
    sliced from the embed's adjacency matrix; pools are truncated to the
    smallest pool size by seeded subsampling.  Rebuilt per window because
    pools shrink as the path consumes vertices."""
    pools = [list(bits(st.available_mask(start_pos + i))) for i in range(t)]
    m = min(map(len, pools))
    if m < 3:
        return None
    cols = []
    for avail in pools:
        if len(avail) > m:
            picks = rng.choice(len(avail), size=m, replace=False)
            avail = [avail[int(j)] for j in sorted(picks)]
        cols.append(tuple(avail))
    return ChainLayers.from_matrix(st.a, cols)


def _advance_window(st, t, params, banned, rng, window_index) -> WindowRecord | None:
    """One window advance: classify good edges of the next window, then DFS
    from the current end edge to a good (and not banned) target edge."""
    r = st.r
    end_pos = len(st.path) - 1
    c0 = end_pos - 1  # class position of path[-2]
    u, v = st.path[-2], st.path[-1]

    # the next window starts where this one ends; good edges live in its
    # first pair, which is this window's last pair
    next_start = c0 + t - 2
    win = _window(st, next_start, t, rng)
    if win is None:
        return None
    report = _classify(win, params.good_threshold, params.good_sample_limit, rng)
    targets = {e for e in report.good if e not in banned}
    if not targets:
        return None

    new_vertices = _dfs_to_targets(st, u, v, c0, t, targets, params.window_node_budget)
    if new_vertices is None:
        return None
    for off, w in enumerate(new_vertices):
        st.consume(end_pos + 1 + off, w)
    return WindowRecord(
        window_index,
        c0 % r,
        t,
        report.fraction,
        (new_vertices[-2], new_vertices[-1]),
        len(st.path),
        st.closing,
    )


def _dfs_to_targets(st, u, v, c0, t, targets, budget):
    """Depth-first search through the pools of classes c0+2..c0+t-1 for a
    square-path extension of (u, v) ending at a target edge."""
    adj = st.adj
    depth_total = t - 2
    target_by_a: dict[int, int] = {}
    for a, b in targets:
        target_by_a[a] = target_by_a.get(a, 0) | (1 << b)
    heads = mask_of(target_by_a)
    found = None

    def expand(pu, pv, chosen_mask, chosen):
        nonlocal found
        depth = len(chosen)
        if depth == depth_total:
            found = chosen
            return None
        cand = adj[pu] & adj[pv] & st.available_mask(c0 + 2 + depth) & ~chosen_mask
        if depth == depth_total - 2:
            cand &= heads  # second-to-last must head a target
        if depth == depth_total - 1:
            return cand & target_by_a.get(pv, 0)
        near = adj[pv] & st.available_mask(c0 + 3 + depth)
        # stack pops last = highest onward degree, largest id among ties
        return sorted(bits(cand), key=lambda w: (near & adj[w]).bit_count())

    roots = [(v, w, 1 << w, [w]) for w in expand(u, v, 0, [])]
    search_square_paths(reversed(roots), expand, budget)
    return found


def _is_square_path_dense(a: np.ndarray, seq: Sequence[int]) -> bool:
    """:func:`sqlab.squarewalk.is_square_path` on the boolean adjacency
    matrix ``a``, from scratch: ids in range and distinct, and every pair at
    distance 1 or 2 along ``seq`` adjacent."""
    p = np.asarray(seq, dtype=np.int64)
    n = a.shape[0]
    if not p.size or p.min() < 0 or p.max() >= n:
        return False
    seen = np.zeros(n, dtype=bool)
    seen[p] = True
    if np.count_nonzero(seen) != p.size:
        return False
    return bool(a[p[:-1], p[1:]].all() and a[p[:-2], p[2:]].all())


def _attempt_join(st, x1, x2, lap_remaining, params):
    """Close the cycle: extend through the rest of the lap so the last two
    vertices also satisfy the seam adjacencies against the start edge."""
    adj = st.adj
    u, v = st.path[-2], st.path[-1]
    end_pos = len(st.path) - 1
    c0 = end_pos - 1
    depth_total = lap_remaining
    found = None

    def expand(y, z, chosen_mask, chosen):
        nonlocal found
        depth = len(chosen)
        if depth == depth_total:
            if _closes(adj, (x1, x2), y, z):
                found = chosen
                return None
            return 0
        cand = adj[y] & adj[z] & st.available_mask(c0 + 2 + depth) & ~chosen_mask
        if depth == depth_total - 1:
            cand &= adj[x1] & adj[x2]  # z constraints
        if depth == depth_total - 2:
            cand &= adj[x1]  # y constraint
        return cand

    roots = [(v, w, 1 << w, [w]) for w in bits(expand(u, v, 0, []))]
    search_square_paths(reversed(roots), expand, params.window_node_budget)
    if found is None:
        return False
    for off, nv in enumerate(found):
        st.consume(end_pos + 1 + off, nv)
    return True


def _can_wind_generously(st) -> bool:
    """True while another full lap would leave every pool window-viable."""
    return all(st.pool_size(c) >= 4 for c in range(st.r))


def _assert_class_alignment(path, classes, r):
    lookup = {}
    for idx, cls in enumerate(classes):
        for v in cls:
            lookup[v] = idx
    for j, v in enumerate(path):
        if lookup[v] != j % r:
            raise AssertionError("cycle does not follow reduced-cycle class order")
    if len(path) % r != 0:
        raise AssertionError("closed cycle length must be a multiple of r")
