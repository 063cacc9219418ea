"""Run one sqlab benchmark workload and print its metrics.

    python3 bench/run.py --workload resilience --seed 0 --seconds 22 --trace 0

Run it from the repository root.  Setup builds the workload's inputs from the
seed; the run then repeats passes over the workload's ops for about
``--seconds`` seconds (always at least two passes).  Every op's output is
re-checked independently and the pass's outputs and counters are hashed into
a digest that must repeat exactly, both between the passes of a run and
between runs of the same code and seed.

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``.
With ``--trace 1`` the run alternates untraced and traced passes, reports the
per-layer metrics and writes the spans to ``.bench_out/``.  The second-to-last
line of standard output is the full result record; the last line has exactly
the metrics ``BENCHMARK.json`` lists for the mode.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
MIN_PASSES = 2
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cap_threads() -> None:
    """Cap BLAS/OpenMP pools at the CPUs this process may use (before numpy loads)."""
    for var in THREAD_VARS:
        try:
            have = int(os.environ.get(var, NPROC))
        except ValueError:
            have = NPROC
        os.environ[var] = str(max(1, min(have, NPROC)))


if not (ROOT / "src" / "sqlab" / "__init__.py").is_file():
    sys.exit(f"error: {ROOT / 'src' / 'sqlab'} not found; run from a full sqlab checkout")
_cap_threads()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

IMPORT_S = time.perf_counter() - T0

# per-layer time metric -> the span names whose durations it sums
SPAN_METRICS = {
    "embedder.embed_s": ("embedder.embed_square_cycle",),
    "regularity.partition_s": ("regularity.partition_heuristic",),
    "regularity.test_s": ("regularity.test_regular",),
    "blowup.prune_s": ("blowup.prune_to_gtilde",),
    "blowup.expansion_s": ("blowup.classify_good_edges",),
    "blowup.count_s": ("blowup.square_path_counts_from", "blowup.count_square_paths_between"),
    "blowup.gtilde_ii_s": ("blowup.check_gtilde_ii",),
    "squarewalk.exact_s": (
        "squarewalk.has_square_hamilton_cycle",
        "squarewalk.longest_square_path_exact",
        "squarewalk.has_square_cycle_through",
    ),
    "squarewalk.greedy_s": ("squarewalk.greedy_square_path",),
    "squarewalk.reduced_search_s": ("squarewalk.square_cycle_in_reduced",),
    "adversary.delete_s": ("adversary.per_vertex_deletion",),
    "adversary.construct_s": (
        "adversary.tripartite_template",
        "adversary.independent_blocker",
        "adversary.neighborhood_wipe",
    ),
    "graph.gnp_s": ("graph.gnp",),
}
MIN_COUNTERS = {"regularity.reduced_min_degree"}


class Pass:
    """One run over every op of a workload."""

    def __init__(self, wall_s, names, outcomes, op_walls, spans_):
        self.wall_s = wall_s
        self.op_walls = op_walls
        self.names = names
        self.outcomes = outcomes
        self.spans = spans_
        self.counters = _sum_counters(outcomes)
        material = [[n, o.output, o.counters] for n, o in zip(names, outcomes)]
        self.digest = hashlib.sha256(json.dumps(material, sort_keys=True).encode()).hexdigest()


def _sum_counters(outcomes) -> dict:
    total: dict = {}
    for o in outcomes:
        for k, v in o.counters.items():
            if k in MIN_COUNTERS:
                total[k] = min(total.get(k, v), v)
            else:
                total[k] = total.get(k, 0) + v
    return total


def run_pass(workload, tracer, index: int) -> Pass:
    names, outcomes, op_walls = [], [], []
    first_span = len(getattr(tracer, "spans", ()))
    start = time.perf_counter()
    for name, op in workload.ops():
        tracer.begin_op(f"{index}/{name}")
        op_start = time.perf_counter()
        with tracer.span("bench", name):
            try:
                outcome = op(tracer)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                outcome = Outcome(output={"raised": type(exc).__name__},
                                  problems=[f"raised {type(exc).__name__}: {exc}"])
        op_walls.append(time.perf_counter() - op_start)
        names.append(name)
        outcomes.append(outcome)
    wall = time.perf_counter() - start
    return Pass(wall, names, outcomes, op_walls, getattr(tracer, "spans", [])[first_span:])


def measure(workload, tracers: list, budget_s: float) -> list[Pass]:
    """Passes, cycling through ``tracers``, until another round would overrun
    the budget; at least MIN_PASSES passes, so that every run can check that a
    pass repeats."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        for tracer in tracers:
            passes.append(run_pass(workload, tracer, len(passes)))
        typical = statistics.median(p.wall_s for p in passes) * len(tracers)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + typical > budget_s:
            return passes


def quality_metrics(outcomes: list[Outcome], counters: dict) -> dict:
    def share(num, den):
        return counters.get(num, 0) / counters[den] if counters.get(den) else 0.0

    return {
        "failed_frac": sum(bool(o.problems) or o.shortfall for o in outcomes) / len(outcomes),
        "coverage": share("quality.coverage_sum", "quality.pipeline_ops"),
        "false_violation_frac": share("quality.true_flagged", "quality.true_pairs"),
        "missed_violation_frac": share("quality.planted_missed", "quality.planted_pairs"),
    }


def layer_metrics(setup_spans: list[dict], traced: list[Pass], untraced: list[Pass]) -> dict:
    """Per-layer metrics: one setup's spans plus each metric's median over the
    traced passes; counters from one pass."""

    def timings(span_list):
        by_name = spans.time_by_name(span_list)
        out = spans.layer_times(span_list)
        for metric, names in SPAN_METRICS.items():
            out[metric] = sum(by_name.get(n, 0.0) for n in names)
        return out

    base = timings(setup_spans)
    per_pass = [timings(p.spans) for p in traced]
    metrics = {k: base[k] + statistics.median(t[k] for t in per_pass) for k in base}
    c = traced[0].counters
    for name in (
        "embedder.windows", "embedder.closing_windows", "embedder.regrown_windows",
        "embedder.start_certified", "regularity.pairs_tested", "regularity.samples_run",
        "regularity.violated_pairs", "regularity.reduced_min_degree", "regularity.tests",
        "regularity.witness_replays_ok", "regularity.refine_rounds", "blowup.edges_pruned",
        "blowup.expansion_edges", "blowup.count_states", "blowup.gtilde_ii_exceptions",
        "squarewalk.exact_nodes", "squarewalk.greedy_length", "squarewalk.reduced_nodes",
        "adversary.edges_removed",
    ):
        metrics[name] = c.get(name, 0)
    windows = c.get("embedder.windows", 0)
    metrics["embedder.useful_vertex_frac"] = (
        c["embedder.useful_num"] / c["embedder.useful_den"] if c.get("embedder.useful_den") else 0.0
    )
    metrics["embedder.good_fraction_mean"] = (
        c["embedder.good_fraction_sum"] / windows if windows else 0.0
    )
    metrics["blowup.good_frac"] = (
        c["blowup.good_sum"] / c["blowup.expansion_edges"] if c.get("blowup.expansion_edges") else 0.0
    )
    exact_s = metrics["squarewalk.exact_s"]
    metrics["squarewalk.nodes_per_s"] = metrics["squarewalk.exact_nodes"] / exact_s if exact_s else 0.0
    metrics["check.validate_s"] = metrics["check.busy_s"]
    fastest_traced = min(p.wall_s for p in traced)
    metrics["trace.overhead_frac"] = fastest_traced / min(p.wall_s for p in untraced) - 1
    metrics.update(quality_metrics(traced[0].outcomes, c))
    return metrics


def fresh_import_s() -> float:
    """Import time of the modules this script imports, in a new interpreter."""
    code = (
        "import sys, time; t = time.perf_counter(); "
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]; "
        "import numpy, spans, workloads; print(time.perf_counter() - t)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout)


def code_fingerprint() -> str:
    h = hashlib.sha256()
    bench = [p for p in BENCH.glob("*.py") if not p.name.startswith("test_")]
    for path in sorted((ROOT / "src" / "sqlab").glob("*.py")) + sorted(bench):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def previous_digest_check(out: Path, key: str, digest: str):
    """Compare with the digest stored for the same workload, seed and code, then
    store this one.  Returns None when there is nothing to compare with."""
    out.mkdir(parents=True, exist_ok=True)
    path = out / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    before = known.get(key)
    known[key] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None if before is None else before == digest


def provenance() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": NPROC,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, workload=None, out: Path = OUT) -> dict:
    """One benchmark run; returns the full result record."""
    wl = workload or WORKLOADS[workload_name]()
    config = json.dumps(vars(wl), sort_keys=True)  # the sizes, before setup adds inputs
    null = spans.NullTracer()
    import_times = [IMPORT_S]
    setup_times = []
    setup_spans: list[dict] = []
    if trace:
        tracer = spans.Tracer()
        start = time.perf_counter()
        wl.setup(seed, tracer)
        setup_times.append(time.perf_counter() - start)
        setup_spans = list(tracer.spans)
        # alternate so that warm-up and drift fall on both sides alike
        passes = measure(wl, [null, tracer], seconds)
        untraced, traced = passes[0::2], passes[1::2]
    else:
        import_times = [IMPORT_S] + [fresh_import_s() for _ in range(SETUP_REPEATS - 1)]
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup(seed, null)
            setup_times.append(time.perf_counter() - start)
        passes = untraced = measure(wl, [null], seconds)

    problems = []
    for p in passes:
        for name, o in zip(p.names, p.outcomes):
            problems += [f"{name}: {msg}" for msg in o.problems]
    digest = passes[0].digest
    repeats = all(p.digest == digest for p in passes)
    if not repeats:
        problems.append("outputs or counters differ between passes of one run")
    key = hashlib.sha256(f"{wl.name}:{seed}:{config}:{code_fingerprint()}".encode()).hexdigest()
    matches_previous = previous_digest_check(out, key, digest)
    if matches_previous is False:
        problems.append("digest differs from an earlier run of the same code and seed")

    walls = [p.wall_s for p in passes]
    metrics = {
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
        # the fastest pass: on a shared host, interference only adds time
        "wall_s": min(p.wall_s for p in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        metrics.update(layer_metrics(setup_spans, traced, untraced))
        (out / f"spans-{wl.name}-seed{seed}.json").write_text(json.dumps(tracer.spans))
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(bool(o.problems) for p in passes for o in p.outcomes)
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(),
        "passes": len(passes),
        "pass_wall_s": walls,
        "op_wall_s": {n: [p.op_walls[i] for p in passes] for i, n in enumerate(passes[0].names)},
        "import_s": import_times,
        "setup_build_s": setup_times,
        "digest": digest,
        "digest_repeats": repeats,
        "digest_matches_previous": matches_previous,
        "counters": passes[0].counters,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "correct": not problems,
        "metrics": metrics,
    }


def summary(record: dict, spec: dict) -> dict:
    """The last output line: exactly the metrics BENCHMARK.json lists for this mode."""
    wanted = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]} for m in wanted
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    warnings.simplefilter("ignore", UserWarning)  # sqlab's low-min-degree notice
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for msg in record["problems"]:
        print(f"problem: {msg}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(summary(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
