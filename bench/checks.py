"""Independent re-checks of what the ``sqlab`` calls return.

Each function returns a list of problems; an empty list means the output
passed.  The chain checks recompute their answers with dense numpy algebra
instead of the package's bitset walks, so a bug in one does not hide in the
other.
"""

from __future__ import annotations

import math

import numpy as np

from sqlab import squarewalk
from sqlab.bitops import unpack_packed_matrix


def class_order_problems(seq, classes, closed: bool) -> list[str]:
    """The j-th vertex must lie in class j mod r of the reduced cycle's order."""
    r = len(classes)
    lookup = {v: idx for idx, cls in enumerate(classes) for v in cls}
    for j, v in enumerate(seq):
        if lookup.get(v) != j % r:
            return [f"vertex {v} at position {j} is not in class {j % r} of the reduced cycle"]
    if closed and len(seq) % r:
        return [f"closed cycle length {len(seq)} is not a multiple of r={r}"]
    return []


def cycle_problems(g, seq) -> list[str]:
    return [] if squarewalk.is_square_cycle(g, seq) else [f"not a square cycle ({len(seq)} vertices)"]


def path_problems(g, seq) -> list[str]:
    return [] if squarewalk.is_square_path(g, seq) else [f"not a square path ({len(seq)} vertices)"]


def deletion_problems(g, h, r: float) -> list[str]:
    """h must be a spanning subgraph of g that removed at most floor(r deg) edges
    at each vertex."""
    for v in range(g.n):
        if h.adjacency[v] & ~g.adjacency[v]:
            return [f"adversary added an edge at vertex {v}"]
        lost = g.adjacency[v].bit_count() - h.adjacency[v].bit_count()
        if lost > int(r * g.adjacency[v].bit_count()):
            return [f"adversary removed {lost} edges at vertex {v}, over its budget"]
    return []


def _dense(chain, i: int, j: int) -> np.ndarray:
    return unpack_packed_matrix(chain.pair(i, j), chain.n0)


def prune_problems(before, result, epsilon: float) -> list[str]:
    """Recompute triangle pruning: a pair (i, i+1) edge must survive exactly when
    it closes at least (1 - eps) n0 p0^2 triangles with the surviving class-i+2
    edges.  Every other pair must be unchanged."""
    after = result.chain
    n0, k = before.n0, before.k
    tau = (1 - epsilon) * n0 * before.reference_p**2
    if not math.isclose(tau, result.threshold):
        return [f"threshold {result.threshold} differs from recomputed {tau}"]
    for (i, j) in before.pair_indices():
        if j == i + 1 and i <= k - 3:
            continue
        if not np.array_equal(before.pair(i, j), after.pair(i, j)):
            return [f"pair ({i}, {j}) changed although pruning never touches it"]
    for i in range(k - 3, -1, -1):
        a_in, a_out = _dense(before, i, i + 1), _dense(after, i, i + 1)
        if (a_out & ~a_in).any():
            return [f"pruning added edges to pair ({i}, {i + 1})"]
        dropped = int(a_in.sum() - a_out.sum())
        if dropped != result.removed[(i, i + 1)]:
            return [f"pair ({i}, {i + 1}) reports {result.removed[(i, i + 1)]} removed, {dropped} were"]
        b = _dense(after, i, i + 2).astype(np.float32)
        c = _dense(after, i + 1, i + 2).astype(np.float32)
        tri = b @ c.T  # exact: counts stay far below 2**24
        if (tri[a_out] < tau).any():
            return [f"pair ({i}, {i + 1}) keeps an edge below the triangle threshold"]
        if (tri[a_in & ~a_out] >= tau).any():
            return [f"pair ({i}, {i + 1}) removed an edge at or above the triangle threshold"]
    return []


def _walk(chain, e, dtype):
    """Forward square-walk layers from first-pair edge e; returns the last-pair
    state matrix (reachability for bool, path counts for int64)."""
    ci, cj, a, b = chain.locate_edge(*e)
    if (ci, cj) != (0, 1):
        raise ValueError(f"{e} is not a first-pair edge")
    n0 = chain.n0
    state = np.zeros((n0, n0), dtype=np.int64)
    state[a, b] = 1
    for i in range(chain.k - 2):
        step = state.T @ _dense(chain, i, i + 2).astype(np.int64)
        state = step * _dense(chain, i + 1, i + 2)
        if dtype is bool:
            state = (state > 0).astype(np.int64)
    return state


def expansion_fraction(chain, e) -> float:
    """Share of last-pair edges reachable from e by forward square-walk moves."""
    reached = _walk(chain, e, bool).sum()
    total = _dense(chain, chain.k - 2, chain.k - 1).sum()
    return float(reached / total) if total else 0.0


def square_path_counts(chain, e) -> dict[tuple[int, int], int]:
    """Number of spanning square paths from e to each last-pair edge (global ids)."""
    counts = _walk(chain, e, int)
    k = chain.k
    return {
        (chain.to_global(k - 2, int(v)), chain.to_global(k - 1, int(w))): int(counts[v, w])
        for v, w in zip(*np.nonzero(counts))
    }


def size_window_exceptions(chain, epsilon: float, reference_p: float) -> dict[int, int]:
    """Per middle class, vertices whose degree into either flanking class is
    outside (1 +- eps) n0 p: a lower bound on check_gtilde_ii's exceptions."""
    n0 = chain.n0
    lo, hi = (1 - epsilon) * n0 * reference_p, (1 + epsilon) * n0 * reference_p
    out = {}
    for i in range(chain.k - 2):
        left = _dense(chain, i, i + 1).sum(axis=0)
        right = _dense(chain, i + 1, i + 2).sum(axis=1)
        bad = (left < lo) | (left > hi) | (right < lo) | (right > hi)
        out[i + 1] = int(bad.sum())
    return out
