"""Edge-deletion strategies: the budgeted per-vertex adversary and the three
lower-bound constructions (triangle wipe around a vertex, independent-set
blocker, extremal tripartite template).

All operations are pure: they take a Graph and return a new Graph, so
concurrent trials can share inputs freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph as graphmod
from .bitops import mask_of
from .graph import Graph
from .util import rng_from

# each deletion kind and the one parameter field it takes; the tripartite
# template is a construction, not a deletion, so it has no spec
_KIND_FIELD = {
    "per-vertex-fraction": "r",
    "neighborhood-wipe": "target",
    "independent-blocker": "c",
}
ADVERSARY_KINDS = tuple(_KIND_FIELD)


@dataclass(frozen=True)
class AdversarySpec:
    """One configured deletion: ``kind`` with its own field set (``r``,
    ``target`` or ``c``) and the other two left None."""

    kind: str
    r: float | None = None
    c: float | None = None
    target: int | None = None
    seed: int = 0

    def __post_init__(self):
        own = _KIND_FIELD.get(self.kind)
        if own is None:
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        for field in _KIND_FIELD.values():
            if (getattr(self, field) is None) == (field == own):
                verb = "requires" if field == own else "takes no"
                raise ValueError(f"adversary kind {self.kind!r} {verb} {field!r}")

    @classmethod
    def from_json(cls, obj: dict) -> "AdversarySpec":
        extra = set(obj) - {"kind", "seed", *_KIND_FIELD.values()}
        if extra:
            raise ValueError(f"unknown adversary config keys: {sorted(extra)}")
        return cls(**obj)


# per_vertex_deletion walks the permuted edges this many at a time, dropping
# edges with a spent endpoint in one numpy pass before each chunk's loop
_CHUNK_EDGES = 8192


def per_vertex_deletion(g: Graph, r: float, seed: int) -> Graph:
    """Delete at most an r-fraction of the edges at every vertex.

    Candidate edges are visited in seeded random order; a deletion is skipped
    whenever it would overdraw either endpoint's budget floor(r * deg).  The
    result therefore always satisfies the per-vertex budget exactly.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"deletion fraction {r} outside [0, 1]")
    a = graphmod.to_matrix(g)
    budget = (r * a.sum(axis=1)).astype(np.int64).tolist()
    # np.nonzero walks the upper triangle row-major: the order of g.edges()
    us, vs = np.nonzero(np.triu(a, 1))
    order = rng_from(seed).permutation(us.size)
    us, vs = us[order], vs[order]
    removed_u, removed_v = [], []
    for lo in range(0, us.size, _CHUNK_EDGES):
        cu, cv = us[lo : lo + _CHUNK_EDGES], vs[lo : lo + _CHUNK_EDGES]
        # budgets only fall, so an edge with a spent endpoint at the start of
        # its chunk would be skipped at its turn anyway
        left = np.array(budget)
        live = (left[cu] > 0) & (left[cv] > 0)
        for u, v in zip(cu[live].tolist(), cv[live].tolist()):
            if budget[u] > 0 and budget[v] > 0:
                budget[u] -= 1
                budget[v] -= 1
                removed_u.append(u)
                removed_v.append(v)
    a[removed_u, removed_v] = False
    a[removed_v, removed_u] = False
    return graphmod.from_matrix(a)


def _clear_inside(g: Graph, inside: int) -> Graph:
    """``g`` without the edges inside the vertex set ``inside``: each of its
    rows loses ``inside`` with one ``&``, every other row is kept."""
    rows = [row & ~inside if inside >> u & 1 else row for u, row in enumerate(g.adjacency)]
    return Graph(g.n, rows)


def neighborhood_wipe(g: Graph, v: int) -> Graph:
    """Remove every edge with both endpoints in N(v).

    Afterwards v lies in no triangle, hence in no square of a cycle.
    """
    return _clear_inside(g, g.adjacency[g.check_vertex(v)])


def independent_blocker(g: Graph, c: float, seed: int) -> tuple[Graph, tuple[int, ...]]:
    """Blank out a seeded vertex set U of size floor((1-c) n).

    All edges inside U are removed, making U independent.  Any square path
    then has at most ceil(len/3) vertices in U (each three consecutive
    square-path vertices form a triangle), so a square path on m vertices has
    m - ceil(m/3) <= n - |U| vertices outside U.  That caps square paths at
    floor((3 (n - |U|) + 2) / 2) vertices: 16 at n = 20, |U| = 10.
    """
    if not 0.0 < c < 1.0:
        raise ValueError(f"blocker fraction {c} outside (0, 1)")
    rng = rng_from(seed)
    size = int((1.0 - c) * g.n)
    blocked = tuple(sorted(rng.choice(g.n, size=size, replace=False).tolist()))
    return _clear_inside(g, mask_of(blocked)), blocked


def tripartite_template(m: int) -> Graph:
    """Complete tripartite graph with parts m, m, m+1 (n = 3m + 1).

    Minimum degree is 2m = 2(n-1)/3 yet no square of a Hamilton cycle exists:
    the largest part exceeds the floor(n/3) independence number of the square
    of an n-cycle.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return graphmod.complete_multipartite([m, m, m + 1])


def apply_adversary(g: Graph, spec: AdversarySpec):
    """Dispatch a spec; returns (graph, info-dict)."""
    before = g.min_degree()
    if spec.kind == "per-vertex-fraction":
        out, info = per_vertex_deletion(g, spec.r, spec.seed), {}
    elif spec.kind == "neighborhood-wipe":
        out, info = neighborhood_wipe(g, spec.target), {"target": spec.target}
    else:
        out, blocked = independent_blocker(g, spec.c, spec.seed)
        info = {"blocked": list(blocked)}
    return out, {
        **info,
        "kind": spec.kind,
        "min_degree_before": before,
        "min_degree_after": out.min_degree(),
        "edges_removed": g.edge_count - out.edge_count,
    }
