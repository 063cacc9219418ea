"""Window-by-window greedy embedding of a long square cycle.

Pipeline: a regular partition yields a reduced graph; an exact search finds
a square Hamilton cycle of the reduced graph; classes are laid out along
that cycle and a square path is grown through them in strict cyclic class
order, one vertex per class per lap.  Growth is windowed: the path's end
edge is extended to a *good* edge of the next window (one whose expansion
through the window reaches at least ``good_threshold`` of the window's last
pair), via a concrete square path recovered by depth-first search over the
per-class pools of unused vertices: :func:`_extend`, which also closes the
cycle.  Each window is a :class:`sqlab.blowup.ChainPartition` sliced over
those pools out of one boolean adjacency matrix, made once per embed, with
:meth:`~sqlab.blowup.ChainPartition.from_matrix`.  A seeded sample of its
first-pair edges is classified in one batched call to the good-edge kernel,
:meth:`sqlab.blowup.ChainPartition.expansion_fractions`.  The path
only grows: no window is undone, so the trace's window records replay to
exactly the final path, and every successful window uses at least k0 - 2
vertices, which bounds the number of windows without a budget.  Reserved
per-class sets are set aside before growth starts and spent only in the
closing phase, which goes on winding windows through the
leftover-plus-reserved pools.  Once some pool holds fewer than 4 vertices,
or no window advances, the same search joins the path to the start edge
across whatever remains of the lap (up to r - 1 classes; none when the
path ends on the lap boundary): its last two vertices y, z must satisfy the
seam, y in N(x1) and z in N(x1) & N(x2) for the start edge (x1, x2).

The embedder never trusts itself: every window asserts that its end edge
and new vertices form a square path, which with the unchanged prefix and the
per-class used-vertex check proves the whole path, and the final cycle is
re-validated from scratch on the graph.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import ClassVar, Optional

import numpy as np

from .bitops import bits, mask_of, unpack_packed_matrix
from .blowup import ChainPartition
from .graph import Graph, to_matrix
from .regularity import EquitablePartition
from .squarewalk import (
    CycleSearchResult,
    SquareCycle,
    SquarePath,
    has_square_hamilton_cycle,
    is_square_path,
    search_square_paths,
)
from .util import rng_from


@dataclass(frozen=True, kw_only=True)
class PipelineParams:
    """Configuration of the embedding pipeline: two settable values and a set
    of class constants.

    The settable values are the slacks the paper's statement depends on: the
    regularity ``epsilon`` and ``nu``, how far the minimum degree sits above
    ``mu`` n p.  ``epsilon`` must lie in (0, 1) and below ``nu``; it is also
    the share of each class held in reserve for the closing phase (reported
    as ``reserve_fraction``).  Arguments are keyword-only.

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

    nu: float = 0.1
    epsilon: float = 0.075

    def __post_init__(self):
        if not 0 < self.epsilon < min(1.0, self.nu):
            raise ValueError(
                f"need 0 < epsilon < min(1, nu), got epsilon={self.epsilon}, nu={self.nu}"
            )

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
            "reserve_fraction": self.epsilon,
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
    cycle: Optional[SquareCycle]
    path: Optional[SquarePath]
    start_edge: tuple[int, int] | None
    start_certified: bool
    flags: list[str] = field(default_factory=list)

    @property
    def closing_status(self) -> str:
        """"closed" with a cycle, "open-path" with a path, else "failed"."""
        if self.cycle is not None:
            return "closed"
        return "failed" if self.path is None else "open-path"

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
    sampled: int

    @property
    def fraction(self) -> float:
        """The good share of the sampled edges, 0.0 when none was sampled."""
        return len(self.good) / self.sampled if self.sampled else 0.0


def classify_good_edges(
    window: ChainPartition,
    threshold: float,
    sample_limit: int = 200,
    seed: int = 0,
) -> GoodEdgeReport:
    """First-pair edges whose expansion through the window reaches at least
    a ``threshold`` fraction of the window's last pair.

    At most ``sample_limit`` first-pair edges are classified (seeded sample);
    the good fraction reported is over the sampled edges.  ``threshold``
    must lie in [0, 1].
    """
    if not 0.0 <= threshold <= 1.0:  # also refuses NaN
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    if sample_limit < 1:
        raise ValueError(f"sample_limit must be >= 1, got {sample_limit}")
    return _classify(window, threshold, sample_limit, rng_from(seed))


def _classify(window: ChainPartition, threshold, sample_limit, rng) -> GoodEdgeReport:
    """Sample at most ``sample_limit`` first-pair edges in row-major order and
    classify them with one batched expansion call."""
    pairs = np.argwhere(unpack_packed_matrix(window.pair(0, 1), window.n0))
    if not pairs.size:
        return GoodEdgeReport((), 0)
    if len(pairs) > sample_limit:
        pairs = pairs[np.sort(rng.choice(len(pairs), size=sample_limit, replace=False))]
    good = pairs[np.array(window.expansion_fractions(pairs)) >= threshold]
    # the global ids of the good edges' ends, class 0 and class 1, in one gather
    return GoodEdgeReport(tuple(map(tuple, window.ids[[0, 1], good].tolist())), len(pairs))


# ---------------------------------------------------------------------------
# the embedder


class _EmbedState:
    """Mutable growth state: the path, which only grows, per class the unused
    vertices and the fixed reserve as bitsets, and the boolean adjacency
    matrix that windows are sliced from."""

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

    def smallest_pool(self) -> int:
        return min(self.available_mask(c).bit_count() for c in range(self.r))

    def available_mask(self, pos: int) -> int:
        """The unused vertices of the class of path position ``pos``, outside
        its reserve until the embed is closing."""
        c = pos % self.r
        return self.unused[c] if self.closing else self.unused[c] & ~self.reserved[c]

    def consume(self, v: int) -> None:
        """Append ``v`` at the next path position; it must be an unused
        vertex of that position's class."""
        c = len(self.path) % self.r
        if not (self.unused[c] >> v) & 1:
            raise AssertionError(f"vertex {v} not available in class {c}")
        self.unused[c] ^= 1 << v
        self.path.append(v)


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
    reserve_count = max(1, math.ceil(params.epsilon * ntilde))
    stop_floor = max(3, math.ceil(params.epsilon * ntilde))
    rng = rng_from(seed)
    st = _EmbedState(g, classes, reserve_count, rng)
    adj = g.adjacency
    trace = EmbeddingTrace([], None, None, None, False)

    start = _pick_start_edge(st, params, rng, trace)
    if start is None:
        trace.flags.append("no-start-edge")
        return trace
    x1, x2 = start
    st.consume(x1)
    st.consume(x2)
    trace.start_edge = (x1, x2)

    def lap_remaining() -> int:
        return (r - 1 - ((len(st.path) - 1) % r)) % r

    def advance() -> bool:
        """Grow one window of the shortest length in [k0, 2 k0] that reaches a
        good target edge."""
        for t in range(k0, 2 * k0 + 1):
            rec = _advance_window(st, t, params, rng, len(trace.windows))
            if rec is not None:
                trace.windows.append(rec)
                assert is_square_path(g, st.path[-t:]), "window broke square-path validity"
                return True
        return False

    # the seam: a path ending y, z closes onto (x1, x2) when y sees x1 and z
    # sees both
    seam = dict.fromkeys(bits(adj[x1]), adj[x1] & adj[x2])

    def joined() -> bool:
        """Close the cycle across the rest of the lap (the path's own end
        pair when the lap is complete)."""
        found = _extend(st, lap_remaining(), seam, params.window_node_budget)
        if found is None:
            return False
        for w in found:
            st.consume(w)
        return True

    # every advance consumes at least k0 - 2 unused vertices, so the loop ends
    while True:
        if not st.closing and st.smallest_pool() < stop_floor:
            st.closing = True

        # join only when further winding would thin the pools below window
        # viability; while pools are healthy, keep consuming laps
        if st.closing and st.smallest_pool() < 4 and joined():
            closed = True
            break

        if advance():
            continue
        if not st.closing:
            st.closing = True
            continue
        # no way forward: one last join attempt from where we stand
        closed = joined()
        if not closed:
            trace.flags.append("stuck-while-closing")
        break

    if closed:
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
    pool2 = st.available_mask(2)

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
        view = ChainPartition.from_matrix(st.a, cols)
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
    viable = shuffled_viable(st.available_mask(0), st.available_mask(1))
    return viable[0] if viable else None


def _window(st, start_pos: int, t: int, rng) -> Optional[tuple[tuple[int, ...], ...]]:
    """The classes of an equal-size chain over the pools of classes
    start_pos..start_pos+t-1: pools are truncated to the smallest pool size
    by seeded subsampling.  Drawn per window because pools shrink as the
    path consumes vertices."""
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
    return tuple(cols)


def _advance_window(st, t, params, rng, window_index) -> WindowRecord | None:
    """One window advance: classify good edges of the next window, then DFS
    from the current end edge to a good target edge."""
    r = st.r
    c0 = len(st.path) - 2  # class position of path[-2]

    # the next window starts where this one ends; good edges live in its
    # first pair, which is this window's last pair
    next_start = c0 + t - 2
    cols = _window(st, next_start, t, rng)
    if cols is None:
        return None
    win = ChainPartition.from_matrix(st.a, cols)
    report = _classify(win, params.good_threshold, params.good_sample_limit, rng)
    if not report.good:
        return None

    targets: dict[int, int] = {}
    for a, b in report.good:
        targets[a] = targets.get(a, 0) | (1 << b)
    new_vertices = _extend(st, t - 2, targets, params.window_node_budget)
    if new_vertices is None:
        return None
    for w in new_vertices:
        st.consume(w)
    return WindowRecord(
        window_index,
        c0 % r,
        t,
        report.fraction,
        (new_vertices[-2], new_vertices[-1]),
        len(st.path),
        st.closing,
    )


def _extend(st, depth, targets, budget):
    """Depth-first search through the pools of the next ``depth`` classes for
    a square-path extension of the path whose last two vertices (y, z) form
    a target pair: z in ``targets[y]``, a bitset per head y.  Returns the new
    vertices, or None.  At depth 0 or 1 the end pair lies partly or wholly on
    the path itself."""
    adj = st.adj
    start = len(st.path)
    heads = mask_of(targets)
    found = None

    def expand(y, z, chosen_mask, chosen):
        nonlocal found
        i = len(chosen)
        if i == depth:
            if (targets.get(y, 0) >> z) & 1:
                found = chosen
                return None
            return 0
        cand = adj[y] & adj[z] & st.available_mask(start + i) & ~chosen_mask
        if i == depth - 1:
            return cand & targets.get(z, 0)
        if i == depth - 2:
            cand &= heads  # the next-to-last vertex must head a target
        near = adj[z] & st.available_mask(start + i + 1)
        # stack pops last = highest onward degree, largest id among ties
        return sorted(bits(cand), key=lambda w: (near & adj[w]).bit_count())

    # the root is the path's own end edge, not a new vertex, so it is not
    # charged to the budget
    search_square_paths([(st.path[-2], st.path[-1], 0, [])], expand, budget + 1)
    return found


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
