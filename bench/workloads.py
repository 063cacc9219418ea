"""The four benchmark workloads.

A workload builds its inputs once from the workload seed (``setup``) and then
exposes a fixed list of ops.  One pass runs every op in order; an op calls
into ``sqlab`` through the tracer, re-checks what came back and returns an
:class:`Outcome`.  Nothing here depends on the wall clock, so a pass repeats
its outputs and counters exactly for a given seed.

Each workload is named after the module that does most of its work:

* ``resilience`` -- the paper's statement end to end (``embedder``)
* ``regularity`` -- the sampled pair tester and the partitioner alone
* ``chain`` -- ``blowup`` kernels on synthetic chains
* ``lower-bound`` -- ``squarewalk`` exhaustive searches on the constructions
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

import checks
from sqlab import adversary, blowup, embedder, graph, regularity, squarewalk
from sqlab.graph import Graph


def derive(seed: int, *tags) -> int:
    """Input seed for one use, derived from the workload seed by a fixed hash."""
    text = ":".join(str(x) for x in (seed,) + tags)
    return int.from_bytes(hashlib.sha256(text.encode("ascii")).digest()[:8], "big") >> 1


PAIR_DENSITY = 0.7  # of the regularity workload's pairs


@dataclass
class Outcome:
    """What one op produced.

    ``problems`` lists failed independent checks: a wrong output, which makes
    the run incorrect.  ``shortfall`` marks a correctly reported but unwanted
    result -- the pipeline raised or did not close, or a tester's verdict
    disagrees with what the input's construction proves.  ``output`` and
    ``counters`` are deterministic and go into the pass digest.
    """

    output: object = None
    problems: list[str] = field(default_factory=list)
    shortfall: bool = False
    counters: dict[str, float] = field(default_factory=dict)


def _from_matrix(m: np.ndarray) -> Graph:
    """Graph from a symmetric boolean adjacency matrix with an empty diagonal."""
    packed = np.packbits(m, axis=1, bitorder="little")
    return Graph(m.shape[0], [int.from_bytes(row.tobytes(), "little") for row in packed])


def _relabel(g: Graph, perm) -> Graph:
    """Copy of g with vertex v renamed perm[v]."""
    adj = [0] * g.n
    for v in range(g.n):
        for u in g.neighbors(v):
            adj[perm[v]] |= 1 << int(perm[u])
    return Graph(g.n, adj)


def _replay_counters(t, g, reports) -> tuple[dict, list[str]]:
    """Replay every violated report's witness from scratch."""
    violated = [rep for rep in reports if rep.verdict == "violated"]
    with t.span("check", "replay_witness"):
        ok = sum(regularity.replay_witness(g, rep) for rep in violated)
    problems = [] if ok == len(violated) else [f"{len(violated) - ok} witnesses do not replay"]
    return {"regularity.witness_replays_ok": ok}, problems


def _partition_counters(pr) -> dict:
    reports = pr.pair_reports.values()
    return {
        "regularity.pairs_tested": len(pr.pair_reports),
        "regularity.samples_run": sum(rep.samples for rep in reports),
        "regularity.violated_pairs": sum(rep.verdict == "violated" for rep in reports),
        "regularity.refine_rounds": pr.rounds_used,
        "regularity.reduced_min_degree": min(pr.reduced_degrees.values()),
    }


def _reduced_adjacency(pr) -> list:
    return sorted([i, sorted(nb)] for i, nb in pr.reduced_adjacency.items())


# ---------------------------------------------------------------------------
# resilience


class Resilience:
    """G(n, p), per-vertex deletion, partition, reduced square cycle, embed.

    Two pipeline ops at the tuned ``PipelineParams(epsilon=0.2, nu=0.3)`` on
    graph seeds 2s+1 and 2s+2, so seed 0 gives the graph seeds 1 and 2, and one
    op at the default ``PipelineParams()`` on the graph of seed 2s+1.
    """

    name = "resilience"

    def __init__(self, n: int = 1200, p: float = 0.6, r: float = 0.1):
        self.n, self.p, self.r = n, p, r

    def setup(self, seed: int, t) -> None:
        self.seed = seed

    def ops(self):
        tuned = embedder.PipelineParams(epsilon=0.2, nu=0.3)
        s = 2 * self.seed
        return [
            (f"pipeline-{s + 1}", partial(self.pipeline, seed=s + 1, params=tuned)),
            (f"pipeline-{s + 2}", partial(self.pipeline, seed=s + 2, params=tuned)),
            (f"defaults-{s + 1}", partial(self.pipeline, seed=s + 1, params=embedder.PipelineParams())),
        ]

    def pipeline(self, t, seed: int, params) -> Outcome:
        st = {}
        raised = None
        try:
            st["g"] = t.call("graph", graph.gnp, self.n, self.p, seed)
            st["h"] = t.call("adversary", adversary.per_vertex_deletion, st["g"], self.r, seed)
            st["pr"] = t.call(
                "regularity", regularity.partition_heuristic, st["h"], self.p,
                params.epsilon, params.mu, params.nu, params.r_min, params.r_max,
                seed, alpha=params.alpha,
            )
            part = st["pr"].partition
            st["rg"] = t.call("embedder", embedder.reduced_graph, part, st["pr"].reduced_adjacency)
            st["cyc"] = t.call("squarewalk", embedder.square_cycle_in_reduced, st["rg"])
            st["trace"] = t.call(
                "embedder", embedder.embed_square_cycle, st["h"], part, st["cyc"].cycle, params, seed
            )
        except Exception as exc:  # the pipeline's failure is a measured outcome
            raised = type(exc).__name__
        out = Outcome(output={"seed": seed, "raised": raised})
        c = out.counters
        if "h" in st:
            g, h = st["g"], st["h"]
            c["adversary.edges_removed"] = g.edge_count - h.edge_count
            out.output["edges_removed"] = c["adversary.edges_removed"]
            with t.span("check", "deletion_budget"):
                out.problems += checks.deletion_problems(g, h, self.r)
        if "pr" in st:
            pr = st["pr"]
            c.update(_partition_counters(pr))
            replays, problems = _replay_counters(t, st["h"], pr.pair_reports.values())
            c.update(replays)
            out.problems += problems
            out.output["reduced"] = _reduced_adjacency(pr)
        if "cyc" in st:
            cyc = st["cyc"]
            c["squarewalk.reduced_nodes"] = cyc.nodes
            out.output["reduced_cycle"] = [cyc.status, cyc.nodes]
            if cyc.cycle is not None:
                out.output["reduced_cycle"].append(list(cyc.cycle.vertices))
                with t.span("check", "reduced_cycle"):
                    out.problems += checks.cycle_problems(st["rg"], cyc.cycle.vertices)
        coverage = 0.0
        if "trace" in st:
            tr = st["trace"]
            out.problems += self._trace_problems(t, st, tr)
            c.update(_trace_counters(tr))
            coverage = tr.final_length / self.n
            obj = tr.cycle if tr.cycle is not None else tr.path
            out.output.update(
                status=tr.closing_status,
                final_length=tr.final_length,
                windows=len(tr.windows),
                vertices=list(obj.vertices) if obj is not None else [],
            )
        out.shortfall = raised is not None or out.output.get("status") != "closed"
        c["quality.pipeline_ops"] = 1
        c["quality.coverage_sum"] = coverage
        return out

    def _trace_problems(self, t, st, tr) -> list[str]:
        cyc = st["cyc"].cycle
        classes = [st["pr"].partition.classes[i] for i in cyc.vertices]
        problems = []
        with t.span("check", "embedded_cycle"):
            if tr.closing_status == "closed":
                if tr.cycle is None:
                    return ["closed trace carries no cycle"]
                seq = tr.cycle.vertices
                problems += checks.cycle_problems(st["h"], seq)
            elif tr.path is not None:
                seq = tr.path.vertices
                problems += checks.path_problems(st["h"], seq)
            else:
                return []
            problems += checks.class_order_problems(seq, classes, tr.closing_status == "closed")
            if tr.final_length != len(seq):
                problems.append(f"final_length {tr.final_length} != {len(seq)} vertices")
        return problems


def _trace_counters(tr) -> dict:
    recs = tr.windows
    regrown = sum(b.path_length <= a.path_length for a, b in zip(recs, recs[1:]))
    return {
        "embedder.windows": len(recs),
        "embedder.closing_windows": sum(w.closing for w in recs),
        "embedder.regrown_windows": regrown,
        "embedder.start_certified": int(tr.start_certified),
        "embedder.useful_num": max(tr.final_length - 2, 0),
        "embedder.useful_den": sum(w.length - 2 for w in recs),
        "embedder.good_fraction_sum": sum(w.good_fraction for w in recs),
    }


# ---------------------------------------------------------------------------
# regularity


class Regularity:
    """Sampled pair tests on true random pairs of density 0.7 and on planted
    two-block pairs, the squared-cycle blow-up that refinement must recover, and
    ``partition_heuristic`` at its defaults on a G(n, p) larger than
    ``resilience``'s."""

    name = "regularity"
    epsilon = 0.075  # the package default

    def __init__(
        self,
        true_sizes=(40, 100, 200, 400),
        true_per_size: int = 20,
        planted_sizes=(100, 200, 400),
        planted_per_size: int = 10,
        blowup_r: int = 9,
        blowup_n0: int = 20,
        partition_n: int = 1800,
    ):
        self.true_sizes, self.true_per_size = true_sizes, true_per_size
        self.planted_sizes, self.planted_per_size = planted_sizes, planted_per_size
        self.blowup_r, self.blowup_n0 = blowup_r, blowup_n0
        self.partition_n = partition_n

    def setup(self, seed: int, t) -> None:
        self.seed = seed
        self.pairs = []  # (label, graph, pair view, planted)
        for planted, sizes, count in (
            (False, self.true_sizes, self.true_per_size),
            (True, self.planted_sizes, self.planted_per_size),
        ):
            kind = "planted" if planted else "true"
            for s in sizes:
                for i in range(count):
                    g = _random_pair(s, np.random.default_rng(derive(seed, kind, s, i)), planted)
                    self.pairs.append((f"{kind}-{s}-{i}", g, _halves(g, s), planted))
        r, n0 = self.blowup_r, self.blowup_n0
        perm = np.random.default_rng(derive(seed, "blowup")).permutation(r * n0)
        self.blowup = _relabel(_squared_cycle_blowup(r, n0), perm)
        self.blowup_class = {int(perm[v]): v // n0 for v in range(r * n0)}
        self.big = t.call("graph", graph.gnp, self.partition_n, 0.6, derive(seed, "partition"))

    def ops(self):
        ops = [
            (label, partial(self.pair_test, g=g, pair=pair, planted=planted, label=label))
            for label, g, pair, planted in self.pairs
        ]
        ops.append(("blowup-refine", self.blowup_refine))
        ops.append(("partition-defaults", self.partition_defaults))
        return ops

    def pair_test(self, t, g, pair, planted: bool, label: str) -> Outcome:
        seed = derive(self.seed, "test", label)
        rep = t.call("regularity", regularity.test_regular, g, pair, PAIR_DENSITY, self.epsilon, 200, seed)
        replays, problems = _replay_counters(t, g, [rep])
        flagged = rep.verdict == "violated"
        c = {"regularity.tests": 1, "regularity.samples_run": rep.samples, **replays}
        if planted:
            c.update({"quality.planted_pairs": 1, "quality.planted_missed": int(not flagged)})
        else:
            c.update({"quality.true_pairs": 1, "quality.true_flagged": int(flagged)})
        witness = [list(rep.witness.left), list(rep.witness.right)] if flagged else None
        return Outcome(
            output={"verdict": rep.verdict, "samples": rep.samples, "witness": witness},
            problems=problems,
            shortfall=flagged != planted,
            counters=c,
        )

    def blowup_refine(self, t) -> Outcome:
        r = self.blowup_r
        pr = t.call(
            "regularity", regularity.partition_heuristic, self.blowup, 0.45, 0.25, 0.4, 0.05,
            r, r, derive(self.seed, "refine"), sample_count=60, refine_rounds=4,
        )
        c = _partition_counters(pr)
        replays, problems = _replay_counters(t, self.blowup, pr.pair_reports.values())
        c.update(replays)
        with t.span("check", "blowup_recovered"):
            recovered = self._recovered(pr)
        return Outcome(
            output={"reduced": _reduced_adjacency(pr), "rounds": pr.rounds_used},
            problems=problems,
            shortfall=not recovered,
            counters=c,
        )

    def _recovered(self, pr) -> bool:
        """Every class is one original class, and the reduced graph is the
        square of the r-cycle on the originals."""
        r = self.blowup_r
        origin = []
        for cls in pr.partition.classes:
            sources = {self.blowup_class[v] for v in cls}
            if len(sources) != 1:
                return False
            origin.append(sources.pop())
        for i in range(r):
            for j in range(i + 1, r):
                gap = (origin[i] - origin[j]) % r
                if (j in pr.reduced_adjacency[i]) != (gap in (1, 2, r - 1, r - 2)):
                    return False
        return True

    def partition_defaults(self, t) -> Outcome:
        params = embedder.PipelineParams()
        pr = t.call(
            "regularity", regularity.partition_heuristic, self.big, 0.6, params.epsilon,
            params.mu, params.nu, params.r_min, params.r_max, derive(self.seed, "partition-test"),
            alpha=params.alpha,
        )
        c = _partition_counters(pr)
        replays, problems = _replay_counters(t, self.big, pr.pair_reports.values())
        c.update(replays)
        c["quality.true_pairs"] = c["regularity.pairs_tested"]
        c["quality.true_flagged"] = c["regularity.violated_pairs"]
        return Outcome(
            output={"reduced": _reduced_adjacency(pr), "violated": c["regularity.violated_pairs"]},
            problems=problems,
            shortfall=c["regularity.violated_pairs"] > 0,
            counters=c,
        )


def _halves(g: Graph, s: int):
    return regularity.BipartitePairView(g, tuple(range(s)), tuple(range(s, 2 * s)))


def _random_pair(s: int, rng, planted: bool) -> Graph:
    """Bipartite pair on s + s vertices with independent edges.

    A true pair has probability PAIR_DENSITY everywhere.  A planted pair splits
    both sides in halves and plants two blocks: probability 1.0 between
    matching halves and 0.4 across, PAIR_DENSITY overall but far from regular.
    """
    probs = np.full((s, s), PAIR_DENSITY)
    if planted:
        h = s // 2
        probs[:] = 0.4
        probs[:h, :h] = 1.0
        probs[h:, h:] = 1.0
    m = rng.random((s, s)) < probs
    full = np.zeros((2 * s, 2 * s), dtype=bool)
    full[:s, s:] = m
    full[s:, :s] = m.T
    return _from_matrix(full)


def _squared_cycle_blowup(r: int, n0: int) -> Graph:
    """Complete bipartite pairs between classes at cyclic distance 1 and 2."""
    m = np.zeros((r * n0, r * n0), dtype=bool)
    for i in range(r):
        for d in (1, 2):
            j = (i + d) % r
            m[i * n0 : (i + 1) * n0, j * n0 : (j + 1) * n0] = True
            m[j * n0 : (j + 1) * n0, i * n0 : (i + 1) * n0] = True
    return _from_matrix(m)


# ---------------------------------------------------------------------------
# chain


class Chain:
    """Pruning, good-edge expansion, exact counting and the property-(ii)
    neighbourhood check on synthetic random chains."""

    name = "chain"
    prune_epsilon = 0.2
    good_threshold = 0.51

    def __init__(self, prune_shape=(5, 1500, 0.35), window_shape=(6, 100, 0.6),
                 sample_limit: int = 64, count_starts: int = 3, count_targets: int = 5):
        self.prune_shape, self.window_shape = prune_shape, window_shape
        self.sample_limit = sample_limit
        self.count_starts, self.count_targets = count_starts, count_targets

    def setup(self, seed: int, t) -> None:
        self.seed = seed
        self.big = t.call("blowup", blowup.build_chain_random, *self.prune_shape, derive(seed, "prune"))
        self.window = t.call("blowup", blowup.build_chain_random, *self.window_shape, derive(seed, "window"))
        first = self.window.pair_edges_local(0, 1)
        rng = np.random.default_rng(derive(seed, "starts"))
        picks = sorted(rng.choice(len(first), size=self.count_starts, replace=False))
        self.starts = [
            (self.window.to_global(0, first[i][0]), self.window.to_global(1, first[i][1])) for i in picks
        ]

    def ops(self):
        ops = [("prune", self.prune), ("expansion", self.expansion)]
        ops += [(f"count-{i}", partial(self.count, i=i)) for i in range(self.count_starts)]
        ops.append(("gtilde-ii", self.gtilde_ii))
        return ops

    def prune(self, t) -> Outcome:
        res = t.call("blowup", blowup.prune_to_gtilde, self.big, self.prune_epsilon)
        with t.span("check", "prune"):
            problems = checks.prune_problems(self.big, res, self.prune_epsilon)
        removed = sorted([list(k), v] for k, v in res.removed.items())
        return Outcome(
            output={"removed": removed},
            problems=problems,
            counters={"blowup.edges_pruned": sum(res.removed.values())},
        )

    def expansion(self, t) -> Outcome:
        rep = t.call(
            "blowup", embedder.classify_good_edges, self.window, self.good_threshold,
            sample_limit=self.sample_limit, seed=derive(self.seed, "classify"),
        )
        problems = []
        with t.span("check", "good_edges"):
            if rep.sampled and not math.isclose(rep.fraction, len(rep.good) / rep.sampled):
                problems.append("good fraction does not match the good edges reported")
            for e in rep.good:
                if checks.expansion_fraction(self.window, e) < self.good_threshold:
                    problems.append(f"edge {e} reported good but expands below the threshold")
                    break
        return Outcome(
            output={"good": [list(e) for e in rep.good], "sampled": rep.sampled},
            problems=problems,
            counters={
                "blowup.expansion_edges": rep.sampled,
                "blowup.good_sum": len(rep.good),
            },
        )

    def count(self, t, i: int) -> Outcome:
        e1 = self.starts[i]
        counts = t.call("blowup", blowup.square_path_counts_from, self.window, e1)
        rng = np.random.default_rng(derive(self.seed, "targets", i))
        keys = sorted(counts)
        picks = sorted(rng.choice(len(keys), size=min(self.count_targets, len(keys)), replace=False))
        targets = [keys[j] for j in picks]
        between = [
            t.call("blowup", blowup.count_square_paths_between, self.window, e1, e2) for e2 in targets
        ]
        problems = []
        with t.span("check", "counts"):
            if counts != checks.square_path_counts(self.window, e1):
                problems.append(f"forward counts from {e1} differ from the dense recount")
            for e2, got in zip(targets, between):
                if got != counts[e2]:
                    problems.append(f"count {e1}->{e2}: between {got} != forward {counts[e2]}")
        return Outcome(
            output={"start": list(e1), "total": sum(counts.values()), "between": between},
            problems=problems,
            counters={"blowup.count_states": len(counts)},
        )

    def gtilde_ii(self, t) -> Outcome:
        ch = self.window
        res = t.call("blowup", blowup.check_gtilde_ii, ch, self.prune_epsilon, ch.reference_p, 50,
                     derive(self.seed, "gtilde"))
        problems = []
        with t.span("check", "gtilde_ii"):
            floor = checks.size_window_exceptions(ch, self.prune_epsilon, ch.reference_p)
            if sorted(res) != sorted(floor):
                problems.append("check_gtilde_ii reports the wrong middle classes")
            elif any(not floor[m] <= res[m] <= ch.n0 for m in floor):
                problems.append("check_gtilde_ii misses a vertex outside the degree window")
        return Outcome(
            output={"exceptions": sorted([m, x] for m, x in res.items())},
            problems=problems,
            counters={"blowup.gtilde_ii_exceptions": sum(res.values())},
        )


# ---------------------------------------------------------------------------
# lower-bound


class LowerBound:
    """Exhaustive and budgeted square-path searches on the constructions that
    show why 2/3 and "almost" are needed, plus the greedy heuristic on a large
    G(n, p)."""

    name = "lower-bound"

    def __init__(self, template_m: int = 4, blocker_n: int = 20, node_budget: int = 1_000_000,
                 wipe_n: int = 60, greedy_n: int = 2000):
        self.template_m, self.blocker_n, self.node_budget = template_m, blocker_n, node_budget
        self.wipe_n, self.greedy_n = wipe_n, greedy_n

    def setup(self, seed: int, t) -> None:
        self.seed = seed
        self.perm = np.random.default_rng(derive(seed, "template")).permutation(3 * self.template_m + 1)
        self.blocker_base = t.call("graph", graph.gnp, self.blocker_n, 0.7, derive(seed, "blocker"))
        self.wipe_base = t.call("graph", graph.gnp, self.wipe_n, 0.5, derive(seed, "wipe"))
        self.wipe_vertex = int(derive(seed, "wipe-vertex") % self.wipe_n)
        self.greedy_graph = t.call("graph", graph.gnp, self.greedy_n, 0.5, derive(seed, "greedy"))

    def ops(self):
        return [
            ("template", self.template),
            ("blocker", self.blocker),
            ("wipe", self.wipe),
            ("greedy", self.greedy),
        ]

    def template(self, t) -> Outcome:
        g = _relabel(t.call("adversary", adversary.tripartite_template, self.template_m), self.perm)
        res = t.call("squarewalk", squarewalk.has_square_hamilton_cycle, g)
        return _verdict_outcome(res, "none", "tripartite template has a square Hamilton cycle")

    def blocker(self, t) -> Outcome:
        g, blocked = t.call("adversary", adversary.independent_blocker, self.blocker_base, 0.5,
                            derive(self.seed, "blocked"))
        res = t.call("squarewalk", squarewalk.longest_square_path_exact, g, self.node_budget)
        seq = res.path.vertices
        with t.span("check", "blocker_path"):
            problems = checks.path_problems(g, seq)
            inside = len(set(seq) & set(blocked))
            if inside > math.ceil(len(seq) / 3):
                problems.append(f"{inside} of {len(seq)} path vertices in the independent set")
            if res.nodes > self.node_budget:
                problems.append(f"search ran {res.nodes} nodes over its budget")
        return Outcome(
            output={"path": list(seq), "optimal": res.optimal, "nodes": res.nodes},
            problems=problems,
            counters={"squarewalk.exact_nodes": res.nodes},
        )

    def wipe(self, t) -> Outcome:
        v = self.wipe_vertex
        g = t.call("adversary", adversary.neighborhood_wipe, self.wipe_base, v)
        res = t.call("squarewalk", squarewalk.has_square_cycle_through, g, v)
        return _verdict_outcome(res, "none", f"square cycle through wiped vertex {v}")

    def greedy(self, t) -> Outcome:
        path = t.call("squarewalk", squarewalk.greedy_square_path, self.greedy_graph, derive(self.seed, "greedy-start"))
        with t.span("check", "greedy_path"):
            problems = checks.path_problems(self.greedy_graph, path.vertices)
        return Outcome(
            output={"path": list(path.vertices)},
            problems=problems,
            counters={"squarewalk.greedy_length": len(path)},
        )


def _verdict_outcome(res, expected: str, what: str) -> Outcome:
    problems = [] if res.status == expected else [f"{what}: status {res.status}"]
    return Outcome(
        output={"status": res.status, "nodes": res.nodes},
        problems=problems,
        counters={"squarewalk.exact_nodes": res.nodes},
    )


WORKLOADS = {w.name: w for w in (Resilience, Regularity, Chain, LowerBound)}
