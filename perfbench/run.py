"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload analytics_rmat --seed 1 --seconds 10 --trace 0

A run builds the workload's inputs from ``--seed`` several times (the
median build time plus one warm-up pass is ``setup_s``), repeats passes
for ``--seconds`` of wall time, then checks the last pass's answers
against independent oracles; every pass must match the warm-up pass.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends the
first half of the time untraced and the second half with every layer
wrapped by :mod:`tracing`, and reports the per-layer metrics.  The last line of standard output is one JSON
object; every metric is also printed above it with its unit and clock.
Any failed correctness check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: set-up repetitions; setup_s uses their median
SETUP_REPS = 3
#: where the traced run writes its Chrome trace-event file
TRACE_DIR = HERE / "out"

#: end-to-end metrics: name -> (unit, clock); PROVENANCE.md defines them
END_TO_END = {
    "setup_s": ("s", "host"),
    "host_s": ("s", "host"),
    "host_teps": ("edges/s", "host"),
    "host_qps": ("queries/s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "device_s": ("s", "device"),
}

_LAYER_SECONDS = {
    "graph.expand_frontier_s": "graph.expand_frontier",
    "graph.permute_s": "graph.permute",
    "serve.store_apply_edges_s": "serve.store_apply_edges",
    "core.kernel_stats_s": "core.kernel_stats",
    "core.decompose_frontier_s": "core.decompose_frontier",
    "core.pipeline_run_s": "core.pipeline_run",
    "core.reorder_round_s": "core.reorder_round",
    "gpusim.segmented_distinct_sectors_s": "gpusim.segmented_distinct_sectors",
    "gpusim.run_kernel_s": "gpusim.run_kernel",
    "apps.process_level_s": "apps.process_level",
    "apps.setup_s": "apps.setup",
    "reorder.gorder_s": "reorder.gorder",
    "reorder.llp_s": "reorder.llp",
    "reorder.rcm_s": "reorder.rcm",
    "multigpu.run_s": "multigpu.run",
    "serve.execute_s": "serve.execute",
    "serve.cache_get_s": "serve.cache_get",
    "serve.cache_put_s": "serve.cache_put",
    "serve.cache_apply_delta_s": "serve.cache_apply_delta",
    "serve.loop_self_s": "serve.loop",
}

#: per-layer metrics: name -> (unit, clock); "s" on the host clock is
#: self time per traced pass
PER_LAYER = {name: ("s", "host") for name in _LAYER_SECONDS}
PER_LAYER.update({
    "core.decomp_memo_hit_ratio": ("ratio", "-"),
    "core.edge_memo_hit_ratio": ("ratio", "-"),
    "core.reorder_commits": ("count", "-"),
    "core.tiles": ("count", "-"),
    "core.tiles_stolen_resident": ("count", "-"),
    "gpusim.kernels": ("count", "-"),
    "gpusim.memory_bound_cycles": ("cycles", "device"),
    "gpusim.compute_bound_cycles": ("cycles", "device"),
    "gpusim.overhead_cycles": ("cycles", "device"),
    "gpusim.launch_cycles": ("cycles", "device"),
    "gpusim.non_kernel_s": ("s", "device"),
    "gpusim.dram_bytes": ("B", "device"),
    "gpusim.lane_efficiency": ("ratio", "device"),
    "apps.edges_traversed": ("count", "-"),
    "apps.iterations": ("count", "-"),
    "serve.cache_rekeyed": ("count", "-"),
    "serve.cache_invalidations": ("count", "-"),
    "serve.graph_updates": ("count", "-"),
    "serve.batches": ("count", "-"),
    "serve.batch_occupancy_mean": ("queries", "-"),
    "serve.cache_hit_ratio": ("ratio", "-"),
    "serve.replica_occupancy_mean": ("ratio", "virtual"),
    "serve.shed": ("count", "-"),
    "serve.throttled": ("count", "-"),
    "serve.latency_p50_s": ("s", "virtual"),
    "serve.latency_p99_s": ("s", "virtual"),
    "serve.latency_samples": ("count", "-"),
    "serve.slo_rate_qps": ("queries/s", "virtual"),
    "serve.generator_lateness_s": ("s", "virtual"),
    "error_rate": ("ratio", "-"),
    "trace.overhead_s": ("s", "host"),
})


def _serve_rates() -> tuple[int, ...]:
    from workloads import ServeSkewed

    return ServeSkewed.RATES


def _per_rate_names() -> dict[str, tuple[str, str]]:
    names = {}
    for rate in _serve_rates():
        names[f"serve.latency_p99_s.{rate}"] = ("s", "virtual")
        names[f"serve.error_rate.{rate}"] = ("ratio", "-")
    return names


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _timed_passes(workload, budget: float, warm, registry_factory=None,
                  tracer=None) -> tuple[list, int]:
    """Passes until ``budget`` seconds have elapsed (at least one).

    Returns the passes and how many of them disagreed with the warm-up
    pass (answers, device clock or virtual clock).  Only the last pass
    keeps its answers, for the oracle check after the timed region.
    """
    passes = []
    mismatches = 0
    start = time.perf_counter()
    while True:
        registry = registry_factory() if registry_factory else None
        span = contextlib.nullcontext()
        if tracer is not None:
            # Keep the spans of the first traced pass only.
            tracer.record_spans = not passes
            span = tracer.span("bench.pass", {"index": len(passes)})
        with span:
            t0 = time.perf_counter()
            result = workload.run_pass(registry)
            result.host_s = time.perf_counter() - t0
        if result.digest != warm.digest:
            mismatches += 1
        passes.append(result)
        if time.perf_counter() - start >= budget:
            return passes, mismatches
        result.answers = None


def _layer_metrics(tracer, traced: list, untraced: list, ladder: dict,
                   slo_rate: float, error_rate: float) -> dict[str, float]:
    n = len(traced)
    counters: dict[str, float] = {}
    for result in traced:
        for key, value in result.counters.items():
            counters[key] = counters.get(key, 0.0) + value / n

    def c(name: str) -> float:
        # Multi-GPU runners (every serve batch) file scheduler counters
        # under a per-device ``gpu<i>.`` prefix.
        return float(sum(value for key, value in counters.items()
                         if key == name or (key.startswith("gpu")
                                            and key.split(".", 1)[1] == name)))

    kernel_stats_calls = tracer.calls.get("core.kernel_stats", 0) / n
    totals = tracer.kernels.totals()
    kernels = tracer.kernels
    virtual = traced[0].virtual
    out = {name: tracer.self_s.get(span, 0.0) / n
           for name, span in _LAYER_SECONDS.items()}
    out.update({
        "core.decomp_memo_hit_ratio": (
            c("sage.decomp_cache_hits") / kernel_stats_calls
            if kernel_stats_calls else 0.0),
        "core.edge_memo_hit_ratio": (
            c("sage.edge_accounting_cache_hits") / kernel_stats_calls
            if kernel_stats_calls else 0.0),
        "core.reorder_commits": c("pipeline.reorder_commits"),
        "core.tiles": c("sage.tiles"),
        "core.tiles_stolen_resident": c("sage.tiles_stolen_resident"),
        "gpusim.kernels": kernels.kernels / n,
        "gpusim.memory_bound_cycles": totals["memory_bound_cycles"] / n,
        "gpusim.compute_bound_cycles": totals["compute_bound_cycles"] / n,
        "gpusim.overhead_cycles": totals["overhead_cycles"] / n,
        "gpusim.launch_cycles": totals["launch_cycles"] / n,
        "gpusim.non_kernel_s": totals["non_kernel_s"] / n,
        "gpusim.dram_bytes": totals["dram_bytes"] / n,
        "gpusim.lane_efficiency": (
            kernels.active_edges / kernels.issued_lane_cycles
            if kernels.issued_lane_cycles else 0.0),
        "apps.edges_traversed": float(traced[0].edges),
        "apps.iterations": c("pipeline.iterations") + c("multigpu.iterations"),
        "serve.cache_rekeyed": c("delta.cache_entries_kept"),
        "serve.cache_invalidations": c("cluster.cache_invalidations"),
        "serve.graph_updates": c("report.graph_updates"),
        "serve.batches": c("report.batches"),
        "serve.batch_occupancy_mean": c("report.batch_occupancy_mean"),
        "serve.cache_hit_ratio": c("report.cache_hit_ratio"),
        "serve.replica_occupancy_mean": c("report.replica_occupancy_mean"),
        "serve.shed": c("report.shed"),
        "serve.throttled": c("report.throttled"),
        "serve.latency_p50_s": virtual.get("latency_p50_s", 0.0),
        "serve.latency_p99_s": virtual.get("latency_p99_s", 0.0),
        "serve.latency_samples": virtual.get("latency_samples", 0.0),
        "serve.slo_rate_qps": slo_rate,
        # Arrivals are replayed in virtual time: never late by construction.
        "serve.generator_lateness_s": 0.0,
        "error_rate": error_rate,
        "trace.overhead_s": (
            statistics.median(r.host_s for r in traced)
            - statistics.median(r.host_s for r in untraced)),
    })
    for rate in _serve_rates():
        result = ladder.get(rate)
        out[f"serve.latency_p99_s.{rate}"] = (
            result.virtual["latency_p99_s"] if result else 0.0)
        out[f"serve.error_rate.{rate}"] = (
            result.virtual["error_rate"] if result else 0.0)
    return out


def _slo_rate(workload, ladder: dict) -> float:
    """Highest ladder rate meeting the p99 limit with <= 1% errors."""
    best = 0.0
    for rate, result in sorted(ladder.items()):
        v = result.virtual
        if (v["latency_p99_s"] <= workload.SLO_P99_S
                and v["error_rate"] <= workload.SLO_ERROR_RATE):
            best = float(rate)
    return best


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    from repro.obs import MetricsRegistry

    workload = WORKLOADS[args.workload](args.seed)
    problems: list[str] = []

    # -- set-up: build inputs several times, then one warm-up pass -------
    builds = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workload.build()
        builds.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    # The warm-up pass also counts work (edges) through a registry.
    warm = workload.run_pass(MetricsRegistry())
    setup_s = statistics.median(builds) + (time.perf_counter() - t0)
    warm.answers = None

    # -- timed region ------------------------------------------------------
    tracer = None
    if args.trace:
        # Untraced passes get a registry too, so trace.overhead_s is the
        # cost of the wrappers alone.
        untraced, bad = _timed_passes(workload, args.seconds / 2, warm,
                                      MetricsRegistry)
        untraced[-1].answers = None
        from tracing import Tracer, install_layer_wrappers

        tracer = Tracer()
        tracer.request_ids = {id(r): i for i, r in enumerate(workload.requests)}
        install_layer_wrappers(tracer)
        try:
            passes, bad_traced = _timed_passes(
                workload, args.seconds / 2, warm, MetricsRegistry, tracer
            )
        finally:
            tracer.uninstall()
        bad += bad_traced
        problems += tracer.kernels.check(sum(r.device_s for r in passes))
    else:
        passes, bad = _timed_passes(workload, args.seconds, warm)
        untraced = passes
    # Read before any oracle runs: the oracles' memory is the benchmark's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The last pass has the warm-up pass's digest, or counts in ``bad``;
    # its answers stand for every pass.
    checks, found = workload.check(passes[-1])
    problems += found
    passes[-1].answers = None
    if bad:
        problems.append(f"{bad} passes disagree with the warm-up pass")

    # -- after timing: the serving rate ladder (traced run only) -----------
    ladder = workload.ladder() if args.trace else {}
    for rate, result in ladder.items():
        if rate == workload.REFERENCE_RATE and result.digest != warm.digest:
            problems.append(f"ladder rate {rate} disagrees with the timed passes")
        n_checked, found = workload.check(result, rate)
        checks += n_checked
        problems += found
        result.answers = None

    timed = untraced + passes if args.trace else passes
    attempted = sum(r.queries for r in timed) + checks
    failed = sum(r.errors for r in timed) + len(problems)

    if args.trace:
        metrics = _layer_metrics(tracer, passes, untraced, ladder,
                                 _slo_rate(workload, ladder), failed / attempted)
        units = {**PER_LAYER, **_per_rate_names()}
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_chrome_trace(trace_path)
        print(f"trace: {len(tracer.spans)} spans of the first traced pass "
              f"-> {os.path.relpath(trace_path)}")
    else:
        metrics = {
            "setup_s": setup_s,
            "host_s": statistics.median(r.host_s for r in passes),
            "host_teps": statistics.median(warm.edges / r.host_s for r in passes),
            "host_qps": statistics.median(r.queries / r.host_s for r in passes),
            "peak_rss_mb": peak_rss_mb,
            "device_s": warm.device_s,
        }
        units = END_TO_END

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced"
          + (f" + {len(passes)} traced" if args.trace else "")
          + f" passes, {checks} answer checks, {len(problems)} problems")
    print("  pass host_s: " + " ".join(f"{r.host_s:.4f}" for r in untraced)
          + (" | traced: " + " ".join(f"{r.host_s:.4f}" for r in passes)
             if args.trace else ""))
    for problem in problems[:20]:
        print(f"  FAILED: {problem}")
    for name, value in metrics.items():
        unit, clock = units[name]
        print(f"  {name:40s} {value:>16.6g} {unit:10s} {clock}")
    print(json.dumps({
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
