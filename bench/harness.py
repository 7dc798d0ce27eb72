"""Workloads, timed runs and metrics of the benchmark; `run.py` is the entry point.

One run = one workload at one seed in one process:

1. a child process writes the seeded input graph as a text edge list;
2. one untimed set-up call warms the file cache and the allocator;
3. iterations run in-process until the time budget is spent. An untraced
   iteration times set-up as direct library calls (`load_edge_list` +
   `apply_weight_model(wc)`), then the workload's commands through
   `hopspread.cli.main`: `select`, then `evaluate` on select's output.
   Every time metric is thus a median over samples spread across the
   whole run, so all of them see the same slow and fast spells of the
   machine. Traced runs
   alternate untraced and traced iterations, so the traced ones give the
   per-layer numbers and the pair gives the tracing overhead;
4. every command's output is checked (`check.py`) after the timed part.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import check
import spans
from hopspread import cli
from hopspread.bounds import upper_bounds
from hopspread.graph import Graph, WeightModel, apply_weight_model, load_edge_list

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
DIRECT_REPEATS = 3  # direct timings of one call in traced runs
TAIL_LADDER = (99.99, 99.9, 99, 90, 50)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    edges: int
    diffusion: str
    algo: str
    k: int
    n_sims: int
    why: str

    @property
    def hops(self):
        return 1 if self.algo == "onehop" else 2

    def select_argv(self, graph, out):
        return ["select", "--graph", str(graph), "--model", "wc", "--diffusion", self.diffusion,
                "--algo", self.algo, "--k", str(self.k), "--out", str(out)]

    def evaluate_argv(self, graph, seeds_file, out, rng_seed):
        return ["evaluate", "--graph", str(graph), "--model", "wc", "--diffusion", self.diffusion,
                "--seeds-file", str(seeds_file), "--n-sims", str(self.n_sims),
                "--rng-seed", str(rng_seed), "--workers", "1", "--out", str(out)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("twohop-ic", 50_000, 500_000, "ic", "twohop", 100, 200,
                 "few costly hub eval_gain calls dominate select; evaluate runs ~20k-node IC cascades"),
        Workload("lt-twohop", 20_000, 200_000, "lt", "twohop", 10, 20,
                 "LT takes a full first pass: ~2e4 cheap evals, so per-call and heap overhead dominate; "
                 "LT cascades nearly saturate the graph"),
    )
}

# name: (unit, better). BENCHMARK.json lists the same names and units.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "select_s": ("s", "lower"),
    "evaluate_s": ("s", "lower"),
    "evaluations": ("count", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}
PER_LAYER = {
    "graph.load_s": ("s", "lower"),
    "graph.parse_s": ("s", "lower"),
    "graph.csr_build_s": ("s", "lower"),
    "graph.edges_per_s": ("1/s", "higher"),
    "graph.weight_s": ("s", "lower"),
    "bounds.upper_bounds_s": ("s", "lower"),
    "hop.init_state_s": ("s", "lower"),
    "hop.eval.calls": ("count", "lower"),
    "hop.eval.total_s": ("s", "lower"),
    "hop.eval.p50_ms": ("ms", "lower"),
    "hop.eval.tail_ms": ("ms", "lower"),
    "hop.eval.max_ms": ("ms", "lower"),
    "hop.eval.touched_mean": ("count", "lower"),
    "hop.eval.ns_per_touched": ("ns", "lower"),
    "hop.commit.calls": ("count", "lower"),
    "hop.commit.total_s": ("s", "lower"),
    "hop.commit.max_ms": ("ms", "lower"),
    "hop.spread_abs_err": ("nodes", "lower"),
    "selection.greedy_celf_s": ("s", "lower"),
    "selection.self_s": ("s", "lower"),
    "selection.stale_evals": ("count", "lower"),
    "selection.useful_ratio": ("ratio", "higher"),
    "oracle.estimate_spread_s": ("s", "lower"),
    "oracle.ms_per_sim": ("ms", "lower"),
    "oracle.mean_activated": ("nodes", "higher"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


@dataclass
class Command:
    kind: str
    rc: int
    seconds: float
    output: dict | None


def run_info():
    """Environment of the run: reported alongside the metrics, not as metrics."""
    loc = {p.name: p.read_bytes().count(b"\n") for p in sorted((ROOT / "src" / "hopspread").glob("*.py"))}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loc_src_hopspread": {"files": loc, "total": sum(loc.values())},
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def make_input(w, seed, path):
    subprocess.run([sys.executable, str(HERE / "inputs.py"), "--nodes", str(w.nodes), "--edges", str(w.edges),
                    "--seed", str(seed), "--out", str(path)], check=True)


def time_setup(path):
    t0 = time.perf_counter()
    apply_weight_model(load_edge_list(path), WeightModel("wc"))
    return time.perf_counter() - t0


def run_command(kind, argv, tracer=None):
    gc.collect()
    t0 = time.perf_counter()
    try:
        rc = tracer.call(f"cli.{kind}", cli.main, argv) if tracer else cli.main(argv)
    except Exception:
        traceback.print_exc()
        rc = -1
    seconds = time.perf_counter() - t0
    output = None
    if rc == 0:
        try:
            with open(argv[argv.index("--out") + 1]) as fh:
                output = json.load(fh)
        except (OSError, ValueError):
            traceback.print_exc()
    return Command(kind, rc, seconds, output)


def run_iteration(w, seed, graph, work, tracer=None):
    sel, ev = work / "select.json", work / "evaluate.json"
    for p in (sel, ev):
        p.unlink(missing_ok=True)
    s = run_command("select", w.select_argv(graph, sel), tracer)
    e = run_command("evaluate", w.evaluate_argv(graph, sel, ev, seed), tracer)
    return s, e


def check_commands(w, seed, edges, iterations):
    """(attempted, failed, |spread - closed form| of the first select)."""
    golden = check.load_golden()
    cache = {}
    attempted = failed = 0
    first_sel = first_ev = None
    spread_err = None
    for i, (s, e) in enumerate(iterations):
        for cmd in (s, e):
            attempted += 1
            out = cmd.output
            if out is None:
                problems = [f"exit code {cmd.rc}, no output"]
            else:
                key = tuple(s.output["seeds"]) if s.output and "seeds" in s.output else ()
                if key not in cache:
                    cache[key] = check.closed_form_spread(edges, list(key), w.diffusion, w.hops)
                expected = cache[key]
                if cmd.kind == "select":
                    problems = check.select_problems(out, w.k, edges, expected)
                    problems += check.golden_problems(golden, w.name, seed, out, None)
                    first_sel = first_sel or out
                    if any(out.get(f) != first_sel.get(f) for f in ("seeds", "marginal_gains", "spread", "evaluations")):
                        problems.append("output differs from the first iteration's")
                    if spread_err is None and isinstance(out.get("spread"), float):
                        spread_err = abs(out["spread"] - expected)
                else:
                    problems = check.evaluate_problems(out, s.output or {}, w.n_sims, expected)
                    problems += check.golden_problems(golden, w.name, seed, None, out)
                    first_ev = first_ev or out
                    if out.get("mean") != first_ev.get("mean"):
                        problems.append("MC mean differs from the first iteration's")
            if problems:
                failed += 1
                for p in problems:
                    print(f"bench: {w.name} seed {seed} iteration {i} {cmd.kind}: {p}", file=sys.stderr)
    return attempted, failed, spread_err


def _median(xs):
    return float(statistics.median(xs))


def _first_output_value(iterations, field):
    for s, _ in iterations:
        if s.output and field in s.output:
            return float(s.output[field])
    return 0.0


def end_to_end_metrics(setup_times, iterations):
    return {
        "setup_s": _median(setup_times),
        "select_s": _median([s.seconds for s, _ in iterations]),
        "evaluate_s": _median([e.seconds for _, e in iterations]),
        "evaluations": _first_output_value(iterations, "evaluations"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def tail_percentile(n):
    """Highest percentile of TAIL_LADDER with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return TAIL_LADDER[-1]


def csr_build_times(edges):
    src = np.searchsorted(edges.ids, edges.src)
    dst = np.searchsorted(edges.ids, edges.dst)
    prob = np.zeros(len(src))
    times = []
    for _ in range(DIRECT_REPEATS):
        t0 = time.perf_counter()
        Graph(len(edges.ids), src, dst, prob, original_ids=edges.ids)
        times.append(time.perf_counter() - t0)
    return times


def direct_bounds_times(graph, hops):
    """`upper_bounds` timed on its own, for workloads whose select skips it."""
    base = load_edge_list(graph)
    times = []
    for _ in range(DIRECT_REPEATS):
        g = apply_weight_model(base, WeightModel("wc"))  # a fresh Graph: the per-graph cache is empty
        t0 = time.perf_counter()
        upper_bounds(g, hops)
        times.append(time.perf_counter() - t0)
    return times


def layer_metrics(w, tracer, ranges, traced, untraced, edges, graph, spread_err):
    """Per-layer metrics from the spans of the traced iterations.

    `ranges[i]` is the slice of `tracer.spans` recorded by traced iteration
    i. Times of single calls are medians over all calls; per-iteration
    totals are medians over iterations; eval and commit latencies are
    pooled over iterations.
    """
    sp = tracer.spans
    selfs = spans.self_times(sp)
    worst = min(selfs)
    if worst < -1e-9:
        raise RuntimeError(f"negative self time {worst!r} s: spans are not nested")
    iters = len(ranges)
    by_name = defaultdict(list)  # name -> [(iteration, duration, self time, note)]
    for it, (lo, hi) in enumerate(ranges):
        for idx in range(lo, hi):
            name, t0, t1, _, note = sp[idx]
            by_name[name].append((it, t1 - t0, selfs[idx], note))

    def durations(name):
        return [d for _, d, _, _ in by_name[name]]

    def per_iteration(name, field=1):
        sums = [0.0] * iters
        for rec in by_name[name]:
            sums[rec[0]] += rec[field]
        return sums

    evals = by_name["hop.eval"]
    eval_ms = np.array([d * 1e3 for _, d, _, _ in evals])
    touched = np.array([note[0] for _, _, _, note in evals], dtype=np.float64)
    stale = []
    for it in range(iters):
        candidates = [note[1] for i, _, _, note in evals if i == it]
        stale.append(len(candidates) - len(set(candidates)))
    tail = tail_percentile(len(eval_ms))
    calls = len(evals) / iters

    load_s = _median(durations("graph.load"))
    csr_s = _median(csr_build_times(edges))
    bounds = durations("bounds.upper_bounds") or direct_bounds_times(graph, w.hops)
    sim_s = _median(durations("oracle.estimate_spread"))
    select_traced = _median([s.seconds for s, _ in traced])
    select_untraced = _median([s.seconds for s, _ in untraced])
    metrics = {
        "graph.load_s": load_s,
        "graph.parse_s": load_s - csr_s,
        "graph.csr_build_s": csr_s,
        "graph.edges_per_s": len(edges.src) / load_s,
        "graph.weight_s": _median(durations("graph.weight")),
        "bounds.upper_bounds_s": _median(bounds),
        "hop.init_state_s": _median(durations("hop.init_state")),
        "hop.eval.calls": calls,
        "hop.eval.total_s": _median(per_iteration("hop.eval")),
        "hop.eval.p50_ms": float(np.percentile(eval_ms, 50)),
        "hop.eval.tail_ms": float(np.percentile(eval_ms, tail)),
        "hop.eval.max_ms": float(eval_ms.max()),
        "hop.eval.touched_mean": float(touched.mean()),
        "hop.eval.ns_per_touched": float(eval_ms.sum() * 1e6 / touched.sum()),
        "hop.commit.calls": len(by_name["hop.commit"]) / iters,
        "hop.commit.total_s": _median(per_iteration("hop.commit")),
        "hop.commit.max_ms": max(durations("hop.commit")) * 1e3,
        "hop.spread_abs_err": float("nan") if spread_err is None else spread_err,
        "selection.greedy_celf_s": _median(durations("selection.greedy_celf")),
        "selection.self_s": _median([st for _, _, st, _ in by_name["selection.greedy_celf"]]),
        "selection.stale_evals": _median(stale),
        "selection.useful_ratio": w.k / calls,
        "oracle.estimate_spread_s": sim_s,
        "oracle.ms_per_sim": sim_s * 1e3 / w.n_sims,
        "oracle.mean_activated": _median([e.output["mean"] for _, e in traced if e.output]),
        "cli.self_s": _median([a + b for a, b in zip(per_iteration("cli.select", 2), per_iteration("cli.evaluate", 2))]),
        "trace.overhead_frac": select_traced / select_untraced - 1.0,
    }
    info = {
        "traced_iterations": iters,
        "untraced_iterations": len(untraced),
        "hop.eval.tail_percentile": tail,
        "hop.eval.samples": len(eval_ms),
        "selection.useful_ratio_base": {"k": w.k, "evaluations": calls},
        "bounds.upper_bounds_source": "select" if by_name["bounds.upper_bounds"] else "direct call",
        "min_self_time_s": worst,
    }
    return metrics, info


def run(w, seed, seconds, traced):
    """One benchmark run; returns (result dict for the last output line, info).

    Iterations start while the next one is expected to end within
    `seconds` (judged by the median iteration so far); untraced runs do at
    least one iteration, traced runs at least one untraced and one traced.
    """
    work = WORK / f"{w.name}-seed{seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        graph = work / "graph.txt"
        make_input(w, seed, graph)
        time_setup(graph)  # warm-up, not a sample
        tracer = spans.Tracer()
        modes = (False, True) if traced else (False,)
        setup_times, plain, with_spans, ranges, lengths = [], [], [], [], []
        start = time.perf_counter()
        while len(lengths) < len(modes) or time.perf_counter() - start + _median(lengths) <= seconds:
            t0 = time.perf_counter()
            if modes[len(lengths) % len(modes)]:
                lo = len(tracer.spans)
                with tracer.installed():
                    with_spans.append(run_iteration(w, seed, graph, work, tracer))
                ranges.append((lo, len(tracer.spans)))
            else:
                if not traced:
                    setup_times.append(time_setup(graph))
                plain.append(run_iteration(w, seed, graph, work))
            lengths.append(time.perf_counter() - t0)
        # Read before the checks allocate: peak RSS is the program's.
        e2e = None if traced else end_to_end_metrics(setup_times, plain)
        edges = check.EdgeList(graph)
        attempted, failed, spread_err = check_commands(w, seed, edges, plain + with_spans)
        info = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": int(traced),
                "iterations": len(plain) + len(with_spans)}
        if traced:
            metrics, extra = layer_metrics(w, tracer, ranges, with_spans, plain, edges, graph, spread_err)
            info.update(extra)
            trace_path = WORK / f"trace-{w.name}-seed{seed}.json"
            tracer.write(trace_path)
            info["trace_file"] = str(trace_path.relative_to(ROOT))
            units = PER_LAYER
        else:
            metrics = e2e
            info["samples"] = {"setup_s": setup_times, "select_s": [s.seconds for s, _ in plain],
                               "evaluate_s": [e.seconds for _, e in plain]}
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }
    return result, info
