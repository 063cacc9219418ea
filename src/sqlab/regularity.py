"""Density and sampled regularity testing for bipartite pairs.

Exact epsilon-regularity quantifies over all large subset pairs and is out
of computational reach, so the tests here are randomised: "violated" is a
proof, "no-violation-found" statistical evidence only.  The two-sided
``test_regular`` returns a report whose "violated" carries a witness subset
pair that ``replay_witness`` recomputes exactly; the one-sided
``lower_regular_verdict`` returns the verdict string alone, with no witness.

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

One sampling loop tests any number of pairs of vertex classes at once.  At
each sample index the uniform subsets are drawn once per class, and a pivot
proposal draws one pivot per class; each pair then draws its own subset of
its pivot's neighbourhood, and each pivot class one uniform subset that
excludes the pivot.  Each pair's samples keep the distribution of a test of
that pair alone; only pairs that share a class are correlated, through that
class's subsets and pivot.  A single pair, as ``test_regular`` and
``lower_regular_verdict`` test it, is read from its dense |L| x |R| boolean
matrix and gets exactly the rng calls of a test of that pair alone.
``partition_heuristic`` tests all its dense pairs in one run from the packed
adjacency rows of the class vertices (n^2 / 8 bytes): every pair's density
comes from them, and the samples of all pairs at one index are counted with
one ``np.bitwise_count``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .bitops import mask_of
from .graph import Graph, to_matrix, to_packed
from .util import rng_from

FLAG_SLACK = 1.4


@dataclass(frozen=True)
class BipartitePairView:
    """Two disjoint vertex sets of a graph, the unit of regularity testing."""

    graph: Graph
    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        ls, rs = set(self.left), set(self.right)
        if len(ls) != len(self.left) or len(rs) != len(self.right):
            raise ValueError("duplicate vertices in pair side")
        if ls & rs:
            raise ValueError("pair sides overlap")
        for v in self.left + self.right:
            self.graph.check_vertex(v)


def density(g: Graph, a: Iterable[int], b: Iterable[int]) -> Fraction:
    """Edge density e(A, B) / (|A| |B|) of two disjoint nonempty sets."""
    a, b = tuple(a), tuple(b)
    if not a or not b:
        raise ValueError("density needs nonempty sets")
    if set(a) & set(b):
        raise ValueError("density sets must be disjoint")
    for v in a + b:
        g.check_vertex(v)
    mask_b = mask_of(b)
    e = sum((g.adjacency[u] & mask_b).bit_count() for u in a)
    return Fraction(e, len(a) * len(b))


@dataclass(frozen=True)
class Witness:
    left: tuple[int, ...]
    right: tuple[int, ...]
    observed: Fraction
    deviation: float
    pivot: Optional[int] = None
    sample_index: int = -1


@dataclass(frozen=True)
class RegularityReport:
    pair_left: tuple[int, ...]
    pair_right: tuple[int, ...]
    density: Fraction
    reference_p: float
    epsilon: float
    verdict: str  # "violated" | "no-violation-found"
    witness: Optional[Witness]
    samples: int

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
                "deviation": self.witness.deviation,
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
    """Counter over a dense boolean pair matrix: class 0 is its rows, class 1
    its columns, and (0, 1) the one pair."""

    def __init__(self, m: np.ndarray):
        # a column-sliced matrix comes out in Fortran order, where take on
        # rows is many times slower
        self.m = np.ascontiguousarray(m)

    def neighbourhood(self, c: int, pos: int):
        """Adjacency of position ``pos`` of class ``c``, indexed by class."""
        return (self.m[:, pos], None) if c else (None, self.m[pos])

    def counts(self, pairs, subsets) -> list[int]:
        # two takes are about twice as fast as one broadcast fancy index
        return [
            int(np.count_nonzero(self.m.take(li, axis=0).take(ri, axis=1)))
            for li, ri in subsets
        ]


class _GraphCounter:
    """Counter over the equal-size classes of a Graph, read from the packed
    adjacency rows of their vertices (n^2 / 8 bytes, never a dense matrix)."""

    def __init__(self, g: Graph, classes: Sequence[Sequence[int]]):
        self.ids = np.array(classes, dtype=np.int64)
        self.size = self.ids.shape[1]
        # rows padded to 64-bit words: AND and popcount over words take about
        # two thirds of the time they take over bytes
        words = (g.n + 63) // 64
        packed = to_packed(g, self.ids.ravel().tolist())
        rows = np.zeros((packed.shape[0], 8 * words), dtype=np.uint8)
        rows[:, : packed.shape[1]] = packed
        self.rows = rows.view(np.uint64)

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

    def neighbourhood(self, c: int, pos: int) -> np.ndarray:
        """Adjacency of position ``pos`` of class ``c``, one row per class."""
        row = self.rows[c * self.size + pos].view(np.uint8)
        return np.unpackbits(row, bitorder="little")[self.ids]

    def counts(self, pairs, subsets) -> list[int]:
        a, b = np.array(pairs, dtype=np.int64).T
        left = np.array([li for li, _ in subsets]) + (a * self.size)[:, None]
        right = self.ids[b[:, None], np.array([ri for _, ri in subsets])]
        block = self.rows[left] & self._masks(right)[:, None, :]
        return np.bitwise_count(block).sum(axis=(1, 2), dtype=np.int64).tolist()


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
    """Test every pair (a, b) of classes of the given sizes, a its left and
    b its right side, in one run; returns (hit-or-None, samples-run) per pair.

    A sample violates when  |observed - d| > FLAG_SLACK * eps * reference_p
    (two-sided, d the pair's density) or  observed < (1 - FLAG_SLACK*eps) * p
    (one-sided).  A pair stops at its first violating sample, so reports are
    order-deterministic.

    Sample idx is drawn for all pairs still running, with the shared
    per-class draws of the module docstring; pivot proposals sit at
    idx % 3 == 1 (pivots in the right classes) and 2 (in the left).  Each
    per-class draw is made when the first pair in order needs it, so a
    single pair makes the rng calls of a test of that pair alone, in the
    same order.
    """
    k = [min(n, max(1, int(np.ceil(epsilon * n)))) for n in sizes]
    lower = (1 - FLAG_SLACK * epsilon) * reference_p
    spread = FLAG_SLACK * epsilon * reference_p

    def uniform(c, exclude=None):
        # the pivot must not land in the opposite subset: its all-ones (or
        # all-zeros) column against a neighbourhood sample would bias the
        # observed density on perfectly regular pairs
        if exclude is None or sizes[c] <= k[c]:
            return rng.choice(sizes[c], size=k[c], replace=False)
        pick = rng.choice(sizes[c] - 1, size=k[c], replace=False)
        return pick + (pick >= exclude)

    out = [(None, sample_count)] * len(pairs)
    live = list(range(len(pairs)))
    for idx in range(sample_count):
        if not live:
            break
        kind = idx % 3
        end = 2 - kind  # for a pivot proposal, the pivots' side of every pair
        # each class's pivot, its adjacency, the uniform subset excluding it,
        # and the plain uniform subset; each drawn once, when a pair needs it
        pivot, hood, rest, drawn = {}, {}, {}, {}
        subsets, via = [], []
        for i in live:
            pair = pairs[i]
            where = None
            if kind:
                c, o = pair[end], pair[1 - end]
                if c not in pivot:
                    pivot[c] = int(rng.integers(sizes[c]))
                    hood[c] = counter.neighbourhood(c, pivot[c])
                cand = hood[c][o].nonzero()[0]
                if cand.size >= k[o]:
                    near = cand[rng.choice(cand.size, size=k[o], replace=False)]
                    if c not in rest:
                        rest[c] = uniform(c, exclude=pivot[c])
                    subsets.append((near, rest[c]) if end else (rest[c], near))
                    where = (("left", "right")[end], pivot[c])
            if where is None:
                for c in pair:
                    if c not in drawn:
                        drawn[c] = uniform(c)
                subsets.append((drawn[pair[0]], drawn[pair[1]]))
            via.append(where)
        counts = counter.counts([pairs[i] for i in live], subsets)
        flagged = False
        for i, (li, ri), where, e in zip(live, subsets, via, counts):
            denom = li.size * ri.size
            # int / int rounds correctly, so this equals float(Fraction(e, denom))
            observed = e / denom
            if one_sided:
                bad = observed < lower
            else:
                bad = abs(observed - densities[i]) > spread
            if bad:
                out[i] = ((li, ri, Fraction(e, denom), where, idx), idx + 1)
                flagged = True
        if flagged:
            live = [i for i in live if out[i][0] is None]
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
            abs(float(observed) - float(pair_density)),
            pivot_id,
            idx,
        )
    return RegularityReport(
        tuple(left),
        tuple(right),
        pair_density,
        reference_p,
        epsilon,
        "violated" if witness is not None else "no-violation-found",
        witness,
        samples,
    )


def test_regular(
    g: Graph,
    pair: BipartitePairView,
    reference_p: float,
    epsilon: float,
    sample_count: int = 200,
    seed: int = 0,
) -> RegularityReport:
    """Sampled two-sided regularity test at subset floor ceil(eps * side)."""
    _check_sampling(reference_p, epsilon, sample_count)
    if not pair.left or not pair.right:
        raise ValueError("test_regular needs nonempty pair sides")
    m = to_matrix(g, pair.left)[:, np.asarray(pair.right, dtype=np.int64)]
    d = Fraction(int(np.count_nonzero(m)), m.size)
    result = _sampled_test(
        _MatrixCounter(m),
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
    reference_p: float,
    epsilon: float,
    sample_count: int,
    rng,
) -> str:
    """Lower-regularity verdict for a dense boolean pair matrix, such as the
    sub-pair of a chain pair induced by two neighbourhoods: the one-sided
    test's only entry point.  Returns the verdict string alone; it carries
    no witness, so it cannot be replayed."""
    _check_sampling(reference_p, epsilon, sample_count)
    if not m.size:
        return "violated" if reference_p > 0 else "no-violation-found"
    [(hit, _)] = _sampled_test(
        _MatrixCounter(m),
        m.shape,
        [(0, 1)],
        [int(np.count_nonzero(m)) / m.size],
        reference_p,
        epsilon,
        sample_count,
        rng,
        one_sided=True,
    )
    return "violated" if hit is not None else "no-violation-found"


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
    reduced_degrees: dict[int, int]
    min_degree_ok: bool
    rounds_used: int
    pair_reports: dict[tuple[int, int], RegularityReport]


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
    order = [int(x) for x in rng.permutation(n)]
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
        splitters: list[set[int]] = []
        for (i, j), result in zip(dense, results):
            rep = _pair_report(
                classes[i], classes[j], density_of[i, j], reference_p, epsilon, result
            )
            reports[(i, j)] = rep
            if rep.verdict == "no-violation-found":
                reduced[i].add(j)
                reduced[j].add(i)
            elif rep.witness.pivot is not None:
                splitters.append(set(g.neighbors(rep.witness.pivot)))
        rounds += 1
        if not splitters or rounds > refine_rounds:
            degrees = {i: len(reduced[i]) for i in range(r)}
            return PartitionResult(
                partition,
                {i: frozenset(s) for i, s in reduced.items()},
                degrees,
                min_degree_ok,
                rounds,
                reports,
            )
        for s in splitters:
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
