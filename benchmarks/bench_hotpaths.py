#!/usr/bin/env python
"""Microbenchmarks for the vectorized per-iteration hot paths.

Times each rewritten accounting kernel, per-iteration traversal path
(the segment plan, contraction, the SAGE kernel accounting, a PageRank
full-frontier iteration) and reorder-layer path (Gorder, the SAGE
round, the COO sort) against its retained reference
implementation (the pre-optimization formulation kept for the
equivalence property tests), on inputs shaped like the scale-up tier's
workloads.  Wall times here are informational — the correctness story is
``tests/test_hotpath_equivalence.py``, which asserts the rewrites are
bit-for-bit identical to the references.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py [--quick]

Not a pytest module: it is a human-facing report generator.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.apps import PageRankApp
from repro.apps.base import contract
from repro.core import SageScheduler
from repro.core.reorder import SamplingReorderer
from repro.core.sampling import TileAccessSampler
from repro.core.tiling import decompose_frontier, decompose_frontier_reference, segment_plan
from repro.gpusim.memory import (
    LRUCacheModel,
    ReferenceLRUCache,
    segmented_distinct_sectors,
    segmented_distinct_sectors_reference,
)
from repro.graph import datasets
from repro.graph.coo import COOGraph
from repro.graph.generators import rmat
from repro.reorder.gorder import gorder_order, gorder_order_reference

SECTOR_WIDTH = 8


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _row(name: str, size: int, new_s: float, ref_s: float | None) -> None:
    if ref_s is None:
        print(f"  {name:34s} n={size:>9,}  new={new_s * 1e3:9.3f} ms")
        return
    print(
        f"  {name:34s} n={size:>9,}  new={new_s * 1e3:9.3f} ms  "
        f"ref={ref_s * 1e3:9.3f} ms  speedup={ref_s / new_s:6.2f}x"
    )


def bench_segmented(rng, repeats: int, n_edges: int) -> None:
    # Tile-sized segments over scattered destinations, both the engine's
    # per-segment-sorted shape and Gunrock's unsorted warp chunks.
    starts = np.unique(np.concatenate([[0], rng.integers(0, n_edges, size=n_edges // 48)]))
    addresses = rng.integers(0, n_edges, size=n_edges)
    sorted_addresses = addresses.copy()
    bounds = np.append(starts, n_edges)
    for i in range(starts.size):
        sorted_addresses[bounds[i] : bounds[i + 1]].sort()
    for label, addr, presorted in (
        ("segmented_distinct (presorted)", sorted_addresses, True),
        ("segmented_distinct (unsorted)", addresses, False),
    ):
        new_s = _best_of(
            lambda: segmented_distinct_sectors(addr, starts, SECTOR_WIDTH, presorted=presorted),
            repeats,
        )
        ref_s = _best_of(
            lambda: segmented_distinct_sectors_reference(
                addr, starts, SECTOR_WIDTH, presorted=presorted
            ),
            repeats,
        )
        _row(label, n_edges, new_s, ref_s)


def bench_lru(rng, repeats: int, n_accesses: int) -> None:
    capacity = 512
    # Scattered trace: the power-law destination stream cache replay
    # feeds the model.  The adversarial walk row is kept on purpose —
    # high-locality traces leave many stack distances genuinely
    # ambiguous, the vectorized path's known weak spot.
    scattered = rng.zipf(1.4, size=n_accesses) % 16384
    steps = rng.integers(-6, 7, size=n_accesses)
    walk = np.abs(np.cumsum(steps)) % 4096
    for label, trace in (
        ("LRUCacheModel (scattered)", scattered),
        ("LRUCacheModel (walk, adversarial)", walk),
    ):

        def run_new():
            cache = LRUCacheModel(capacity)
            cache.access(trace)

        def run_ref():
            cache = ReferenceLRUCache(capacity)
            cache.access(trace)

        _row(label, n_accesses, _best_of(run_new, repeats), _best_of(run_ref, repeats))


def _zipf_degrees(rng, n_nodes: int) -> np.ndarray:
    # Power-law degrees bounded like a real graph's hubs.
    return np.minimum(rng.zipf(1.5, size=n_nodes).astype(np.int64), 4096)


def bench_tiling(rng, repeats: int, n_nodes: int) -> None:
    degrees = _zipf_degrees(rng, n_nodes)
    new_s = _best_of(lambda: decompose_frontier(degrees, 512), repeats)
    ref_s = _best_of(lambda: decompose_frontier_reference(degrees, 512), repeats)
    _row("decompose_frontier", n_nodes, new_s, ref_s)


def bench_segment_plan(rng, repeats: int, n_nodes: int) -> None:
    # What the engine needs per kernel: sorted segment starts, sizes and
    # per-node counts.  The reference derives them from the per-tile
    # decomposition by a concatenate and a sort.
    degrees = _zipf_degrees(rng, n_nodes)
    cum_degrees = np.cumsum(degrees) - degrees

    def reference():
        decomp = decompose_frontier_reference(degrees, 512)
        starts = decomp.segment_starts(cum_degrees)
        np.diff(np.append(starts, cum_degrees[-1] + degrees[-1]))
        np.bincount(decomp.tile_frontier_idx, minlength=n_nodes)
        np.bincount(decomp.fragment_frontier_idx, minlength=n_nodes)

    reps = repeats * max(1, 20_000 // n_nodes)
    new_s = _best_of(lambda: segment_plan(degrees, 512), reps)
    ref_s = _best_of(reference, reps)
    _row("segment_plan", n_nodes, new_s, ref_s)


def bench_contract(rng, repeats: int, n_candidates: int) -> None:
    # A BFS level's filtered neighbors: dense node ids, many duplicates.
    candidates = rng.integers(0, n_candidates // 4, size=n_candidates)
    new_s = _best_of(lambda: contract(candidates), repeats)
    ref_s = _best_of(lambda: np.unique(candidates), repeats)
    _row("contract (vs np.unique)", n_candidates, new_s, ref_s)


def bench_sampling(rng, repeats: int, n_edges: int) -> None:
    edge_dst = rng.integers(0, n_edges, size=n_edges)
    starts = np.arange(0, n_edges, 64, dtype=np.int64)

    def run():
        sampler = TileAccessSampler(n_edges, SECTOR_WIDTH, seed=3)
        sampler.observe(edge_dst, starts)
        sampler.locality_counts()

    _row("sampler observe+locality", n_edges, _best_of(run, repeats), None)


def bench_reorder(rng, repeats: int, n_edges: int) -> None:
    num_nodes = max(2, n_edges // 8)
    edge_dst = rng.integers(0, num_nodes, size=n_edges)
    starts = np.arange(0, n_edges, 64, dtype=np.int64)

    def timed_round(method: str) -> float:
        # Observation is set-up, not the rewrite under test: time only
        # the round itself (a round consumes its samples).
        best = float("inf")
        for _ in range(repeats):
            reorderer = SamplingReorderer(num_nodes, threshold_edges=1, seed=3)
            reorderer.observe(edge_dst, starts)
            best = min(best, _best_of(getattr(reorderer, method), 1))
        return best

    new_s = timed_round("compute_round")
    ref_s = timed_round("compute_round_reference")
    _row("reorder compute_round", n_edges, new_s, ref_s)


def bench_coo_sorted(rng, repeats: int, n_edges: int) -> None:
    num_nodes = max(2, n_edges // 8)
    coo = COOGraph(
        num_nodes,
        rng.integers(0, num_nodes, size=n_edges),
        rng.integers(0, num_nodes, size=n_edges),
    )

    def lexsorted():
        order = np.lexsort((coo.dst, coo.src))
        return COOGraph(num_nodes, coo.src[order], coo.dst[order])

    new_s = _best_of(coo.sorted, repeats)
    ref_s = _best_of(lexsorted, repeats)
    _row("COOGraph.sorted (vs lexsort)", n_edges, new_s, ref_s)


def bench_gorder(repeats: int, scale: float) -> None:
    # Gorder's cost follows graph structure (hubs, sibling fan-out), so
    # time it on a dataset stand-in, not random edges; one run of the
    # slow reference is enough to see the gap.
    graph = datasets.twitter_like(scale).graph
    new_s = _best_of(lambda: gorder_order(graph), repeats)
    ref_s = _best_of(lambda: gorder_order_reference(graph), 1)
    _row("gorder_order (twitter stand-in)", graph.num_edges, new_s, ref_s)


def _pagerank_kernel(graph):
    scheduler = SageScheduler()
    scheduler.reset(graph)
    app = PageRankApp()
    app.setup(graph)
    return scheduler, app


def bench_kernel_stats(rng, repeats: int, graph) -> None:
    # SAGE's per-kernel accounting: the per-node cost table summed over
    # the frontier vs a segment plan and sector count per kernel, on a
    # serving-sized frontier and on the full frontier.
    scheduler, app = _pagerank_kernel(graph)
    n = graph.num_nodes
    for label, frontier in (
        ("kernel_stats (serving frontier)", np.sort(rng.choice(n, 1_000, replace=False))),
        ("kernel_stats (full frontier)", np.arange(n, dtype=np.int64)),
    ):
        degrees = graph.offsets[frontier + 1] - graph.offsets[frontier]
        edge_dst = graph.expand_frontier(frontier)[1]
        args = (frontier, degrees, edge_dst, graph, app)
        reps = repeats * max(1, 20_000 // frontier.size)
        new_s = _best_of(lambda: scheduler.kernel_stats(*args), reps)
        ref_s = _best_of(lambda: scheduler._tiled_stats_reference(*args), reps)
        _row(label, frontier.size, new_s, ref_s)


def bench_pagerank_iteration(repeats: int, graph) -> None:
    # One full-frontier PageRank iteration: expansion, kernel accounting
    # and the filter, vs the range gather and the per-kernel accounting.
    scheduler, app = _pagerank_kernel(graph)
    frontier = np.arange(graph.num_nodes, dtype=np.int64)
    degrees = graph.out_degrees()

    def iteration(expand, kernel_stats):
        edge_src, edge_dst, edge_pos = expand(frontier)
        kernel_stats(frontier, degrees, edge_dst, graph, app)
        app.process_level(edge_src, edge_dst, edge_pos)

    new_s = _best_of(lambda: iteration(graph.expand_frontier, scheduler.kernel_stats), repeats)
    ref_s = _best_of(
        lambda: iteration(graph._gather_ranges, scheduler._tiled_stats_reference), repeats
    )
    _row("pagerank full-frontier iteration", graph.num_edges, new_s, ref_s)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller inputs, fewer repeats")
    args = parser.parse_args(argv)
    scale = 1 if args.quick else 8
    repeats = 2 if args.quick else 3
    rng = np.random.default_rng(11)

    print("bench_hotpaths: vectorized hot paths vs retained references")
    bench_segmented(rng, repeats, 125_000 * scale)
    bench_lru(rng, repeats, 25_000 * scale)
    bench_tiling(rng, repeats, 62_500 * scale)
    bench_sampling(rng, repeats, 125_000 * scale)
    bench_reorder(rng, repeats, 125_000 * scale)
    bench_coo_sorted(rng, repeats, 125_000 * scale)
    bench_segment_plan(rng, repeats, 1_000)
    bench_segment_plan(rng, repeats, 12_500 * scale)
    bench_contract(rng, repeats, 125_000 * scale)
    bench_gorder(repeats, 0.1 if args.quick else 0.5)
    # R-MAT 17 (131k nodes) is the analytics workload's scale.
    graph = rmat(14 if args.quick else 17, 8, seed=7)
    bench_kernel_stats(rng, repeats, graph)
    bench_pagerank_iteration(repeats, graph)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
