"""Density and sampled regularity testing for bipartite pairs.

Exact epsilon-regularity quantifies over all large subset pairs and is out
of computational reach, so the tests here are randomised: "violated" is a
proof, "no-violation-found" statistical evidence only.  The two-sided
``test_regular`` returns a report whose "violated" carries a witness subset
pair that ``replay_witness`` recomputes exactly; the one-sided
``lower_regular_verdict`` returns verdict strings alone, with no witness.

Each test draws seeded subset pairs of the exact floor sizes.  Two proposal
families alternate: plain uniform subsets, and pivot proposals that sample
the left subset inside the neighbourhood of a random right vertex (and
symmetrically).  Pivot proposals are what catch block-structured irregular
pairs that uniform subsets almost never hit; on genuinely random pairs they
are unbiased, because the subset's internal edges are independent of the
pivot's own adjacencies.  Verdicts are flagged only when the deviation
clears the threshold with a 1.4 calibration slack, which leaves every
flagged witness strictly above the definitional bound.

The slack does not make false violations rare at every size.  The subset
floors are ceil(eps * side), so a sample of a small pair covers few vertex
pairs (9 at class size 40 and eps = 0.075, 225 at 200) and its density
fluctuates by more than the flag threshold.  At the default eps = 0.075 and
sample_count = 200, true random pairs of density 0.7 are flagged in 20 of
20 tests at class sizes 40 and 100, 18 to 19 of 20 at 200 and 0 of 20 at
400.  The false-violation rate falls below the percent level only once
classes hold several hundred vertices.

One sampling loop tests any number of pairs of vertex classes at once, in a
few array operations per sample index and none per pair.  At each index it
draws one uniform key per class position (one ``rng.random((r, width))``
array).  A class's uniform subset is the positions of its k smallest keys,
with k = ceil(eps * its size), so each class's subsets have its own size; a
class's pivot is the position of its largest key.  A pair's pivot proposal
takes the k smallest keys of the other class inside the pivot's
neighbourhood and the k smallest of the pivot's class, which leave the pivot
out unless the class has at most k vertices: a uniform pivot and a uniform
subset of the rest.  Each pair's samples keep the distribution of a test of
that pair alone; only pairs that share a class are correlated, through that
class's keys and pivot.  ``test_regular`` tests the one pair of a dense
boolean matrix's full ranges, ``lower_regular_verdict`` any number of its
(row ids, column ids) sub-pairs.  ``partition_heuristic`` tests all its
dense pairs in one run from the packed adjacency rows of the class vertices
(n^2 / 8 bytes): every pair's density comes from them, and the samples of
all pairs at one index are counted with one ``np.bitwise_count``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .bitops import mask_of
from .graph import Graph, to_matrix, to_words
from .util import rng_from

FLAG_SLACK = 1.4


@dataclass(frozen=True)
class BipartitePairView:
    """Two disjoint vertex sets of a graph, the unit of regularity testing."""

    graph: Graph
    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "left", tuple(map(self.graph.check_vertex, self.left)))
        object.__setattr__(self, "right", tuple(map(self.graph.check_vertex, self.right)))
        ls, rs = set(self.left), set(self.right)
        if len(ls) != len(self.left) or len(rs) != len(self.right):
            raise ValueError("duplicate vertices in pair side")
        if ls & rs:
            raise ValueError("pair sides overlap")


def density(g: Graph, a: Iterable[int], b: Iterable[int]) -> Fraction:
    """Edge density e(A, B) / (|A| |B|) of two disjoint nonempty sets."""
    pair = BipartitePairView(g, a, b)
    if not pair.left or not pair.right:
        raise ValueError("density needs nonempty sets")
    mask_b = mask_of(pair.right)
    e = sum((g.adjacency[u] & mask_b).bit_count() for u in pair.left)
    return Fraction(e, len(pair.left) * len(pair.right))


@dataclass(frozen=True)
class Witness:
    left: tuple[int, ...]
    right: tuple[int, ...]
    observed: Fraction
    pivot: Optional[int] = None
    sample_index: int = -1


@dataclass(frozen=True)
class RegularityReport:
    density: Fraction
    reference_p: float
    epsilon: float
    witness: Optional[Witness]
    samples: int

    @property
    def verdict(self) -> str:
        """"violated" exactly when a witness is attached, else
        "no-violation-found"."""
        return "no-violation-found" if self.witness is None else "violated"

    def to_json_dict(self) -> dict:
        doc = {
            "density": [self.density.numerator, self.density.denominator],
            "density_float": float(self.density),
            "reference_p": self.reference_p,
            "epsilon": self.epsilon,
            "verdict": self.verdict,
            "samples": self.samples,
        }
        if self.witness is not None:
            doc["witness"] = {
                "left": list(self.witness.left),
                "right": list(self.witness.right),
                "observed": [
                    self.witness.observed.numerator,
                    self.witness.observed.denominator,
                ],
                "deviation": abs(float(self.witness.observed) - float(self.density)),
                "pivot": self.witness.pivot,
                "sample_index": self.witness.sample_index,
            }
        return doc


def replay_witness(g: Graph, report: RegularityReport) -> bool:
    """Recompute the witness deviation; True iff it still proves the verdict."""
    w = report.witness
    if w is None:
        return False
    dev = abs(float(density(g, w.left, w.right) - report.density))
    return dev > report.epsilon * report.reference_p


# ---------------------------------------------------------------------------
# the shared sampling core
#
# An edge counter abstracts the adjacency source so the same tester runs on
# one dense pair matrix (a Graph pair or a sub-pair of a chain pair matrix)
# and on all the pairs of an equitable partition at once.


class _MatrixCounter:
    """Counter over classes of one dense boolean matrix: an even class is an
    array of row ids, an odd one of column ids, and a pair is an (even, odd)
    pair of classes; a single pair is the classes of the full ranges.  With
    one pair left the scalar forms below are two to four times as fast."""

    def __init__(self, m: np.ndarray, classes: Sequence[Sequence[int]]):
        nl, nr = m.shape
        # an all-zero row and column past the matrix, which the positions
        # past a class's size read, and position ``width`` too
        self.m = np.zeros((nl + 1, nr + 1), dtype=bool)
        self.m[:nl, :nr] = m
        width = max(map(len, classes), default=0)
        self.ids = np.empty((len(classes), width + 1), dtype=np.int64)
        self.ids[0::2], self.ids[1::2] = nl, nr
        for row, c in zip(self.ids, classes):
            row[: len(c)] = c

    def neighbourhoods(self, pivot, pc, oc) -> np.ndarray:
        """Adjacency of the pivot of class ``pc[i]`` to the positions of class
        ``oc[i]``, one row per pair; a pivot of an odd class is a column."""
        if pc.size == 1:
            (c,), (o,) = pc.tolist(), oc.tolist()
            at = self.ids[c, pivot[c]]
            return (self.m[:, at] if c % 2 else self.m[at]).take(self.ids[o, :-1])[None]
        at = self.ids.take(pc * self.ids.shape[1] + pivot.take(pc))[:, None]
        other, n = self.ids.take(oc, axis=0)[:, :-1], self.m.shape[1]
        return self.m.ravel().take(other * n + at if pc[0] % 2 else at * n + other)

    def counts(self, a, b, left, right) -> np.ndarray:
        """Edges between the positions ``left[i]`` of class ``a[i]`` and
        ``right[i]`` of class ``b[i]``, per pair."""
        if a.size == 1:  # two takes, of whole rows and then of columns
            (x,), (y,) = a.tolist(), b.tolist()
            rows, cols = self.ids[x].take(left[0]), self.ids[y].take(right[0])
            return np.array([np.count_nonzero(self.m.take(rows, axis=0).take(cols, axis=1))])
        stride = self.ids.shape[1]
        rows = self.ids.take(left + (a * stride)[:, None]) * self.m.shape[1]
        cols = self.ids.take(right + (b * stride)[:, None])
        block = self.m.ravel().take(rows[:, :, None] + cols[:, None, :])
        return np.add.reduce(block, axis=(1, 2), dtype=np.int64)


class _GraphCounter:
    """Counter over the equal-size classes of a Graph, read from the word
    rows of their vertices (``to_words``, n^2 / 8 bytes, never a dense
    matrix)."""

    def __init__(self, g: Graph, classes: Sequence[Sequence[int]]):
        self.ids = np.array(classes, dtype=np.int64)
        self.size = self.ids.shape[1]
        self.rows = to_words(g, self.ids.ravel().tolist())

    def _masks(self, subsets: np.ndarray) -> np.ndarray:
        """Packed vertex masks, one per row of a (masks, k) array of ids."""
        sel = np.zeros((subsets.shape[0], 64 * self.rows.shape[1]), dtype=bool)
        sel[np.arange(subsets.shape[0])[:, None], subsets] = True
        return np.packbits(sel, axis=1, bitorder="little").view(np.uint64)

    def edge_counts(self) -> np.ndarray:
        """r x r matrix of the edge counts between classes."""
        r, s = self.ids.shape
        masks = self._masks(self.ids)
        out = np.empty((r, r), dtype=np.int64)
        for a in range(r):
            block = self.rows[a * s : (a + 1) * s, None, :] & masks[None, :, :]
            out[a] = np.bitwise_count(block).sum(axis=(0, 2), dtype=np.int64)
        return out

    def neighbourhoods(self, pivot, pc, oc) -> np.ndarray:
        """Adjacency of the pivot of class ``pc[i]`` to the positions of class
        ``oc[i]``, one row per pair."""
        r, s = self.ids.shape
        rows = self.rows.take(np.arange(r) * s + pivot, axis=0)
        bits = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little")
        # every pivot's adjacency to every class, then each pair's block
        hoods = bits.take(self.ids, axis=1).reshape(r * r, s)
        return hoods.take(pc * r + oc, axis=0).view(bool)

    def counts(self, a, b, left, right) -> np.ndarray:
        """Edges between the positions ``left[i]`` of class ``a[i]`` and
        ``right[i]`` of class ``b[i]``, per pair."""
        masks = self._masks(self.ids.take(right + (b * self.size)[:, None]))
        block = self.rows.take(left + (a * self.size)[:, None], axis=0) & masks[:, None, :]
        return np.bitwise_count(block).sum(axis=(1, 2), dtype=np.int64)


def _check_sampling(reference_p: float, epsilon: float, sample_count: int) -> None:
    """Refuse arguments under which a sampled verdict proves nothing: no
    sample, a flag window of width zero or less, or a negative density.
    Each public entry point runs it before any other work."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if not reference_p >= 0:
        raise ValueError(f"reference_p must be >= 0, got {reference_p}")


def _sampled_test(
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
    """Test every pair (a, b) of nonempty classes of the given sizes, a its
    left and b its right side, in one run; returns (hit-or-None,
    samples-run) per pair.  Class c's subsets hold
    k_c = min(size, ceil(eps * size)) positions, so each pair has its own
    denominator.

    A sample violates when  |observed - d| > FLAG_SLACK * eps * reference_p
    (two-sided, d the pair's density) or  observed < (1 - FLAG_SLACK*eps) * p
    (one-sided, which reads no density).  A pair stops at its first
    violating sample, so reports are order-deterministic.

    Sample idx is drawn for all pairs still running from one
    ``rng.random((r, width))`` key array, with the shared draws of the module
    docstring; one ``argpartition`` reads every subset off it.  Pivot
    proposals sit at idx % 3 == 1 (pivots in the right classes) and 2 (in
    the left).  A class's pivot is the position of its largest key: it is
    uniform, and the k smallest keys of its class are a uniform k-subset of
    the other positions, so the pivot's own side never holds it unless the
    class has at most k vertices.  The other side takes the k smallest keys
    inside the pivot's neighbourhood, or, when the pivot has fewer than k
    neighbours there, the pair takes both classes' k smallest keys, as at
    a uniform sample.
    """
    out = [(None, sample_count)] * len(pairs)
    if not pairs:
        return out
    k = [min(n, max(1, math.ceil(epsilon * n))) for n in sizes]
    r, width = len(sizes), max(sizes)
    # a row's k-th smallest key in place puts its k smallest before it
    kth = sorted({c - 1 for c in k})
    # keys past a class's size count as 0 when the pivots are read, never
    # the largest, and as inf after, never among the k smallest
    valid = pad = None
    if min(sizes) < width:
        valid = np.arange(width) < np.asarray(sizes)[:, None]
        pad = np.where(valid, 0.0, np.inf)
    lower = (1 - FLAG_SLACK * epsilon) * reference_p
    spread = FLAG_SLACK * epsilon * reference_p

    live = np.arange(len(pairs))
    a, b = np.array(pairs).T
    dens = np.asarray(densities, dtype=np.float64)
    ks = [k[x] for x, _ in pairs], [k[y] for _, y in pairs]
    (wl, wr), (kl, kr), short = map(max, ks), map(np.array, ks), None
    denom = kl * kr
    # subsets are read off the first wl (left) or wr (right) positions of
    # the ordered rows, those past a pair's own k set to ``width``
    if min(ks[0]) < wl or min(ks[1]) < wr:
        short = np.arange(wl) >= kl[:, None], np.arange(wr) >= kr[:, None]

    for idx in range(sample_count):
        if not live.size:
            break
        kind = idx % 3
        keys = rng.random((r, width))
        # a pivot's own side never holds it: its all-ones (or all-zeros)
        # column against a neighbourhood sample would bias the observed
        # density on perfectly regular pairs
        pivot = (keys if valid is None else keys * valid).argmax(axis=1) if kind else None
        if pad is not None:
            keys += pad
        if kind:
            # the pivots' side of every pair, and the other side
            pc, oc, ko = (b, a, kl) if kind == 1 else (a, b, kr)
            hood = counter.neighbourhoods(pivot, pc, oc)
            near = np.add.reduce(hood, axis=1) >= ko
            # every class row is ordered, then one row per pair: the other
            # class's keys in the pivot's neighbourhood, or all of them if the
            # pivot falls back
            plain = keys.take(oc, axis=0)
            other = np.where(hood, plain, np.inf)
            if np.count_nonzero(near) < near.size:
                other[~near] = plain[~near]
            keys = np.concatenate([keys, other])
            rows = r + np.arange(pc.size)
            rl, rr = (rows, pc) if kind == 1 else (pc, rows)
        else:
            rl, rr = a, b
        order = keys.argpartition(kth, axis=1)
        # take is about three times as fast as fancy indexing on these sizes
        left = order.take(rl, axis=0)[:, :wl]
        right = order.take(rr, axis=0)[:, :wr]
        if short is not None:
            np.copyto(left, width, where=short[0])
            np.copyto(right, width, where=short[1])
        counts = counter.counts(a, b, left, right)
        # int / int rounds correctly, so this equals float(Fraction(e, denom))
        observed = counts / denom
        if one_sided:
            bad = observed < lower
        else:
            bad = np.abs(observed - dens) > spread
        if np.count_nonzero(bad):
            for j in np.flatnonzero(bad):
                where = None
                if kind and near[j]:
                    where = ("right" if kind == 1 else "left", int(pivot[pc[j]]))
                observed_j = Fraction(int(counts[j]), int(denom[j]))
                hit = left[j, : kl[j]], right[j, : kr[j]], observed_j, where, idx
                out[live[j]] = (hit, idx + 1)
            keep = ~bad
            live, a, b, dens, denom, kl, kr = (x[keep] for x in (live, a, b, dens, denom, kl, kr))
            short = short and (short[0][keep], short[1][keep])
    return out


def _pair_report(
    left: Sequence[int],
    right: Sequence[int],
    pair_density: Fraction,
    reference_p: float,
    epsilon: float,
    result,
) -> RegularityReport:
    """Two-sided report of one pair from its ``_sampled_test`` result; the
    witness names graph vertex ids."""
    hit, samples = result
    witness = None
    if hit is not None:
        li, ri, observed, pivot, idx = hit
        pivot_id = None
        if pivot is not None:
            side, pos = pivot
            pivot_id = right[pos] if side == "right" else left[pos]
        witness = Witness(
            tuple(sorted(left[i] for i in li)),
            tuple(sorted(right[j] for j in ri)),
            observed,
            pivot_id,
            idx,
        )
    return RegularityReport(pair_density, reference_p, epsilon, witness, samples)


def test_regular(
    g: Graph,
    pair: BipartitePairView,
    reference_p: float,
    epsilon: float,
    sample_count: int = 200,
    seed: int = 0,
) -> RegularityReport:
    """Sampled two-sided regularity test at subset floor ceil(eps * side).
    ``pair`` must be a pair of ``g``: the test reads ``g``'s edges."""
    _check_sampling(reference_p, epsilon, sample_count)
    if pair.graph is not g and pair.graph != g:
        raise ValueError("pair is a view of another graph than g")
    if not pair.left or not pair.right:
        raise ValueError("test_regular needs nonempty pair sides")
    m = to_matrix(g, pair.left)[:, np.asarray(pair.right, dtype=np.int64)]
    d = Fraction(int(np.count_nonzero(m)), m.size)
    result = _sampled_test(
        _MatrixCounter(m, [np.arange(m.shape[0]), np.arange(m.shape[1])]),
        m.shape,
        [(0, 1)],
        [float(d)],
        reference_p,
        epsilon,
        sample_count,
        rng_from(seed),
        one_sided=False,
    )
    return _pair_report(pair.left, pair.right, d, reference_p, epsilon, result[0])


def lower_regular_verdict(
    m: np.ndarray,
    sub_pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
    reference_p: float,
    epsilon: float,
    sample_count: int,
    rng,
) -> list[str]:
    """Lower-regularity verdict of each (row ids, column ids) sub-pair of a
    dense boolean matrix, from one sampling run: the one-sided test's only
    entry point.  The whole matrix is the sub-pair of its full ranges; an
    empty sub-pair is "violated" when reference_p > 0.  A verdict carries no
    witness, so it cannot be replayed."""
    _check_sampling(reference_p, epsilon, sample_count)
    tested = [j for j, (rows, cols) in enumerate(sub_pairs) if len(rows) and len(cols)]
    classes = [ids for j in tested for ids in sub_pairs[j]]
    results = _sampled_test(
        _MatrixCounter(m, classes),
        [len(ids) for ids in classes],
        [(i, i + 1) for i in range(0, len(classes), 2)],
        [0.0] * len(tested),
        reference_p,
        epsilon,
        sample_count,
        rng,
        one_sided=True,
    )
    verdicts = ["violated" if reference_p > 0 else "no-violation-found"] * len(sub_pairs)
    for j, (hit, _) in zip(tested, results):
        verdicts[j] = "violated" if hit is not None else "no-violation-found"
    return verdicts


# ---------------------------------------------------------------------------
# equitable partitions and the heuristic partitioner


@dataclass(frozen=True)
class EquitablePartition:
    exceptional: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        sizes = {len(c) for c in self.classes}
        if len(sizes) > 1:
            raise ValueError("classes must be equal-size")
        seen: set[int] = set(self.exceptional)
        if len(seen) != len(self.exceptional):
            raise ValueError("duplicate exceptional vertices")
        for c in self.classes:
            for v in c:
                if v in seen:
                    raise ValueError("partition classes overlap")
                seen.add(v)

    @property
    def r(self) -> int:
        return len(self.classes)

    def class_size(self) -> int:
        return len(self.classes[0]) if self.classes else 0


@dataclass(frozen=True)
class PartitionResult:
    partition: EquitablePartition
    reduced_adjacency: dict[int, frozenset[int]]
    min_degree_ok: bool
    rounds_used: int
    pair_reports: dict[tuple[int, int], RegularityReport]

    @property
    def reduced_degrees(self) -> dict[int, int]:
        """Each class's degree in the reduced graph, in class order."""
        return {i: len(s) for i, s in self.reduced_adjacency.items()}


def partition_heuristic(
    g: Graph,
    reference_p: float,
    epsilon: float,
    mu: float,
    nu: float,
    r_min: int,
    r_max: int,
    seed: int,
    alpha: float = 0.1,
    sample_count: int = 200,
    refine_rounds: int = 0,
) -> PartitionResult:
    """Seeded random equitable partition plus pairwise density/regularity
    testing; realises the reduced-structure contract of the regular-partition
    step heuristically (no refinement guarantee is claimed).

    The partition always has ``r_min`` classes; ``r_max`` is checked to be
    at least ``r_min`` and is otherwise unused.

    A pair enters the reduced adjacency when its density is at least
    alpha * reference_p and the sampled test finds no violation.  All pairs
    that dense are tested in one run, from the generator that shuffled the
    vertices, with the shared per-class draws of the module docstring: each
    pair's verdict has the distribution of its own test, while verdicts of
    pairs sharing a class are correlated.  With
    ``refine_rounds`` > 0, violated pairs contribute their pivot
    neighbourhoods as splitters and the partition is rebuilt from the
    refined atoms (at most 5 rounds), which recovers block structure on
    blow-up style inputs; for genuinely random inputs the first random
    partition is already the fixed point in practice.
    """
    _check_sampling(reference_p, epsilon, sample_count)
    if r_min < 1:
        raise ValueError(f"r_min must be >= 1, got {r_min}")
    if r_min > r_max:
        raise ValueError("r_min exceeds r_max")
    if not 0 <= refine_rounds <= 5:
        raise ValueError(f"refine_rounds must lie in [0, 5], got {refine_rounds}")
    n = g.n
    r = r_min
    ntilde = n // r
    if ntilde < 1:
        raise ValueError("more classes than vertices")
    min_deg_needed = (mu + nu) * n * reference_p
    min_degree_ok = g.min_degree() >= min_deg_needed
    if not min_degree_ok:
        warnings.warn(
            f"minimum degree {g.min_degree()} below (mu+nu) n p = {min_deg_needed:.1f}",
            stacklevel=2,
        )

    rng = rng_from(seed)
    order = rng.permutation(n).tolist()
    atoms: list[list[int]] = [order]

    rounds = 0
    while True:
        flat = [v for atom in atoms for v in atom]
        classes = tuple(
            tuple(flat[i * ntilde : (i + 1) * ntilde]) for i in range(r)
        )
        exceptional = tuple(flat[r * ntilde :])
        partition = EquitablePartition(exceptional, classes)

        counter = _GraphCounter(g, classes)
        edges = counter.edge_counts()
        density_of = {
            (i, j): Fraction(int(edges[i, j]), ntilde * ntilde)
            for i in range(r)
            for j in range(i + 1, r)
        }
        dense = [ij for ij, d in density_of.items() if float(d) >= alpha * reference_p]
        results = _sampled_test(
            counter,
            [ntilde] * r,
            dense,
            [float(density_of[ij]) for ij in dense],
            reference_p,
            epsilon,
            sample_count,
            rng,
            one_sided=False,
        )
        reduced: dict[int, set[int]] = {i: set() for i in range(r)}
        reports: dict[tuple[int, int], RegularityReport] = {}
        pivots: list[int] = []  # of violated pairs, whose neighbourhoods split
        for (i, j), result in zip(dense, results):
            rep = _pair_report(
                classes[i], classes[j], density_of[i, j], reference_p, epsilon, result
            )
            reports[(i, j)] = rep
            if rep.verdict == "no-violation-found":
                reduced[i].add(j)
                reduced[j].add(i)
            elif rep.witness.pivot is not None:
                pivots.append(rep.witness.pivot)
        rounds += 1
        if not pivots or rounds > refine_rounds:
            return PartitionResult(
                partition,
                {i: frozenset(s) for i, s in reduced.items()},
                min_degree_ok,
                rounds,
                reports,
            )
        for pivot in pivots:
            s = set(g.neighbors(pivot))
            new_atoms: list[list[int]] = []
            for atom in atoms:
                inside = [v for v in atom if v in s]
                outside = [v for v in atom if v not in s]
                if inside:
                    new_atoms.append(inside)
                if outside:
                    new_atoms.append(outside)
            atoms = new_atoms
        atoms.sort(key=lambda a: min(a))
