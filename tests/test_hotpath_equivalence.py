"""Equivalence properties for the vectorized hot paths.

Every rewrite in the throughput pass keeps its pre-optimization
formulation as an importable reference; these properties assert the
rewritten kernels are *bit-for-bit identical* to those references —
including the shapes perf rewrites classically get wrong: empty
segments, single-node frontiers, all-duplicate destinations, degree-0
hubs, and LRU batches that straddle the internal chunk boundary.  The
reorder-layer rewrites (Gorder, the SAGE round, the composite-key COO
sort) are held to the same standard: identical permutations, counters
and arrays.  So are the per-iteration traversal paths: the table-driven
segment plan, the bitmap contraction, the one-repeat frontier expansion,
the segmented distinct total, and the single-device multi-GPU runner.
The per-node cost table and the full-frontier expansion are held to the
per-kernel segment plan they replace.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Sanitizer
from repro.apps import BFSApp, PageRankApp, SSSPApp
from repro.apps.base import contract
from repro.core import SageScheduler, TraversalPipeline
from repro.core.reorder import SamplingReorderer
from repro.core.tiling import (
    DEFAULT_MIN_TILE,
    decompose_frontier,
    decompose_frontier_reference,
    node_costs,
    plan_costs,
    segment_plan,
)
from repro.gpusim.memory import (
    LRUCacheModel,
    ReferenceLRUCache,
    segmented_distinct_sectors,
    segmented_distinct_sectors_reference,
    segmented_distinct_total,
)
from repro.gpusim.spec import GPUSpec
from repro.graph import datasets
from repro.graph.coo import COOGraph
from repro.graph.csr import CSRGraph
from repro.graph.generators import complete_graph, rmat
from repro.multigpu import MultiGpuRunner
from repro.obs import MetricsRegistry
from repro.reorder.gorder import gorder_order, gorder_order_reference


def segmented_case():
    """(addresses, segment_starts) with empty/duplicate-heavy segments."""
    return st.tuples(
        st.lists(st.integers(0, 97), max_size=120),
        st.data(),
    )


def _starts_for(n, data):
    # Draw start offsets in [0, n]; duplicates make empty segments and a
    # start == n makes a trailing empty segment — both must count as 0.
    k = data.draw(st.integers(0, 12), label="n_segments_extra")
    extra = sorted(
        data.draw(st.lists(st.integers(0, n), min_size=k, max_size=k), label="starts")
    )
    return np.array([0, *extra], dtype=np.int64)


class TestSegmentedDistinctSectors:
    @settings(max_examples=120, deadline=None)
    @given(segmented_case())
    def test_unsorted_matches_reference(self, case):
        values, data = case
        addresses = np.asarray(values, dtype=np.int64)
        starts = _starts_for(addresses.size, data)
        np.testing.assert_array_equal(
            segmented_distinct_sectors(addresses, starts, 8),
            segmented_distinct_sectors_reference(addresses, starts, 8),
        )

    @settings(max_examples=120, deadline=None)
    @given(segmented_case())
    def test_presorted_matches_reference(self, case):
        values, data = case
        addresses = np.asarray(values, dtype=np.int64)
        starts = _starts_for(addresses.size, data)
        bounds = np.append(starts, addresses.size)
        for i in range(starts.size):
            addresses[bounds[i] : bounds[i + 1]].sort()
        np.testing.assert_array_equal(
            segmented_distinct_sectors(addresses, starts, 8, presorted=True),
            segmented_distinct_sectors_reference(addresses, starts, 8, presorted=True),
        )

    @settings(max_examples=120, deadline=None)
    @given(segmented_case())
    def test_total_matches_presorted_sum(self, case):
        values, data = case
        addresses = np.asarray(values, dtype=np.int64)
        starts = _starts_for(addresses.size, data)
        bounds = np.append(starts, addresses.size)
        for i in range(starts.size):
            addresses[bounds[i] : bounds[i + 1]].sort()
        expected = segmented_distinct_sectors(addresses, starts, 8, presorted=True).sum()
        assert segmented_distinct_total(addresses, starts, 8) == expected

    def test_total_of_no_segments_or_no_addresses(self):
        empty = np.zeros(0, dtype=np.int64)
        assert segmented_distinct_total(np.arange(5), empty, 8) == 0
        assert segmented_distinct_total(empty, np.zeros(3, dtype=np.int64), 8) == 0

    def test_all_duplicate_destinations(self):
        # A hub frontier: every lane loads the same neighbor.
        addresses = np.full(64, 7, dtype=np.int64)
        starts = np.array([0, 16, 16, 32, 64], dtype=np.int64)
        result = segmented_distinct_sectors(addresses, starts, 8)
        np.testing.assert_array_equal(result, [1, 0, 1, 1, 0])
        np.testing.assert_array_equal(
            result,
            segmented_distinct_sectors_reference(addresses, starts, 8),
        )

    def test_all_segments_empty(self):
        addresses = np.empty(0, dtype=np.int64)
        starts = np.zeros(5, dtype=np.int64)
        for fn in (segmented_distinct_sectors, segmented_distinct_sectors_reference):
            np.testing.assert_array_equal(fn(addresses, starts, 8), np.zeros(5, dtype=np.int64))

    def test_no_segments(self):
        empty = np.empty(0, dtype=np.int64)
        for fn in (segmented_distinct_sectors, segmented_distinct_sectors_reference):
            assert fn(empty, empty, 8).size == 0


def lru_trace():
    # Mix of locality regimes, including immediate re-touches (stack
    # distance 0) and values far beyond any capacity under test.
    return st.lists(st.integers(0, 40), min_size=0, max_size=300)


class TestLRUCacheModelEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(lru_trace(), st.integers(1, 12))
    def test_matches_reference(self, trace, capacity):
        model = LRUCacheModel(capacity)
        reference = ReferenceLRUCache(capacity)
        model.access(trace)
        reference.access(trace)
        assert (model.hits, model.misses) == (reference.hits, reference.misses)

    @settings(max_examples=60, deadline=None)
    @given(lru_trace(), st.integers(1, 12), st.data())
    def test_split_batches_equal_one_batch(self, trace, capacity, data):
        # LRU over a concatenated stream must equal sequential batches —
        # the property the internal chunking relies on; state carried
        # across access() calls (and across the pruning pass) is covered
        # by cutting the trace at arbitrary points.
        cut = data.draw(st.integers(0, len(trace)), label="cut")
        split = LRUCacheModel(capacity)
        split.access(trace[:cut])
        split.access(trace[cut:])
        whole = LRUCacheModel(capacity)
        whole.access(trace)
        assert (split.hits, split.misses) == (whole.hits, whole.misses)

    @pytest.mark.parametrize("capacity", [1, 3, 64, 2048, 5000])
    def test_chunk_boundary_regimes(self, capacity):
        # Deterministic trace longer than _CHUNK so every run exercises
        # the chunked path, the state merge, and the capacity pruning.
        rng = np.random.default_rng(5)
        trace = np.concatenate(
            [
                rng.integers(0, 8000, size=3000),  # scattered
                np.abs(np.cumsum(rng.integers(-4, 5, size=3000))) % 512,  # local walk
                np.full(100, 3, dtype=np.int64),  # hot line
            ]
        )
        model = LRUCacheModel(capacity)
        reference = ReferenceLRUCache(capacity)
        model.access(trace)
        reference.access(trace)
        assert (model.hits, model.misses) == (reference.hits, reference.misses)


def degree_arrays():
    return st.lists(st.integers(0, 600), min_size=0, max_size=60)


def _assert_decompositions_equal(fast, ref):
    np.testing.assert_array_equal(fast.tile_frontier_idx, ref.tile_frontier_idx)
    np.testing.assert_array_equal(fast.tile_sizes, ref.tile_sizes)
    np.testing.assert_array_equal(fast.tile_local_offsets, ref.tile_local_offsets)
    np.testing.assert_array_equal(fast.fragment_frontier_idx, ref.fragment_frontier_idx)
    np.testing.assert_array_equal(fast.fragment_sizes, ref.fragment_sizes)
    np.testing.assert_array_equal(fast.fragment_local_offsets, ref.fragment_local_offsets)
    assert fast.elections == ref.elections
    assert fast.levels == ref.levels


class TestDecomposeFrontierEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(degree_arrays(), st.sampled_from([64, 128, 256]))
    def test_matches_reference(self, degrees, block_size):
        degrees = np.asarray(degrees, dtype=np.int64)
        _assert_decompositions_equal(
            decompose_frontier(degrees, block_size),
            decompose_frontier_reference(degrees, block_size),
        )

    def test_single_node_frontier(self):
        for degree in (0, 1, 7, 8, 255, 256, 1000):
            degrees = np.array([degree], dtype=np.int64)
            _assert_decompositions_equal(
                decompose_frontier(degrees, 256),
                decompose_frontier_reference(degrees, 256),
            )

    def test_degree_zero_hubs_interleaved(self):
        # Isolated nodes sprinkled between hubs: they must produce no
        # tiles, no fragments, and no elections — and not shift the
        # frontier indices of their neighbors.
        degrees = np.array([0, 4096, 0, 0, 513, 0, 8, 0], dtype=np.int64)
        fast = decompose_frontier(degrees, 512)
        _assert_decompositions_equal(fast, decompose_frontier_reference(degrees, 512))
        covered = np.union1d(fast.tile_frontier_idx, fast.fragment_frontier_idx)
        np.testing.assert_array_equal(covered, [1, 4, 6])


@st.composite
def edge_lists(draw, max_nodes=24, max_edges=60):
    """(n, src, dst): duplicate edges, self loops and isolated nodes allowed."""
    n = draw(st.integers(1, max_nodes), label="n")
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=max_edges), label="edges")
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    return n, src, dst


@st.composite
def tiling_cases(draw):
    """(degrees, block_size, min_tile) with zeros and exact block multiples."""
    block_size, min_tile = draw(
        st.sampled_from([(64, 8), (256, 8), (64, 1), (8, 8), (1, 1)]), label="sizes"
    )
    degree = st.one_of(
        st.integers(0, 3 * block_size + 9),
        st.integers(0, 4).map(lambda k: k * block_size),
    )
    degrees = draw(st.lists(degree, max_size=40), label="degrees")
    return np.asarray(degrees, dtype=np.int64), block_size, min_tile


class TestSegmentPlanEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(tiling_cases())
    def test_matches_reference(self, case):
        degrees, block_size, min_tile = case
        plan = segment_plan(degrees, block_size, min_tile)
        ref = decompose_frontier_reference(degrees, block_size, min_tile)
        starts = ref.segment_starts(np.cumsum(degrees) - degrees)
        np.testing.assert_array_equal(plan.starts, starts)
        np.testing.assert_array_equal(plan.sizes, np.diff(np.append(starts, degrees.sum())))
        per_node = np.bincount(ref.tile_frontier_idx, minlength=degrees.size)
        per_node += np.bincount(ref.fragment_frontier_idx, minlength=degrees.size)
        np.testing.assert_array_equal(plan.counts, per_node)
        assert plan.num_tiles == ref.num_tiles
        assert plan.num_fragments == ref.fragment_frontier_idx.size
        assert plan.elections == ref.elections
        assert plan.levels == ref.levels
        np.testing.assert_array_equal(np.sort(plan.tile_sizes), np.sort(ref.tile_sizes))
        np.testing.assert_array_equal(plan.fragment_sizes, ref.fragment_sizes)

    @settings(max_examples=150, deadline=None)
    @given(tiling_cases())
    def test_decompose_frontier_matches_reference(self, case):
        degrees, block_size, min_tile = case
        _assert_decompositions_equal(
            decompose_frontier(degrees, block_size, min_tile),
            decompose_frontier_reference(degrees, block_size, min_tile),
        )

    def test_empty_frontier(self):
        plan = segment_plan(np.zeros(0, dtype=np.int64), 256)
        assert plan.starts.size == plan.sizes.size == plan.counts.size == 0
        assert (plan.num_tiles, plan.num_fragments, plan.elections) == (0, 0, 0)


class TestContractEquivalence:
    @pytest.mark.parametrize(
        "candidates",
        [
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int32),
            np.array([5, 3, 5, 0, 3], dtype=np.int32),
            np.array([9, 9, 9, 9], dtype=np.int64),
            np.array([10**9, 7, 10**9, 3], dtype=np.int64),
            np.array([4, -2, 4, 0], dtype=np.int64),
            np.array([2, 1, 2], dtype=np.uint32),
        ],
        ids=["empty", "empty-int32", "int32", "all-duplicate", "sparse", "negative", "uint32"],
    )
    def test_matches_unique(self, candidates):
        got = contract(candidates)
        want = np.unique(candidates) if candidates.size else candidates.astype(np.int64)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.integers(-3, 5000), max_size=80))
    def test_random_ids_match_unique(self, values):
        candidates = np.asarray(values, dtype=np.int64)
        got = contract(candidates)
        want = np.unique(candidates) if candidates.size else candidates
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def _expand_positions_reference(graph: CSRGraph, frontier: np.ndarray) -> np.ndarray:
    """CSR edge positions by the three-repeat formula."""
    starts = graph.offsets[frontier]
    counts = graph.offsets[frontier + 1] - starts
    total = int(counts.sum())
    run_starts = np.repeat(starts, counts)
    run_offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return run_starts + (np.arange(total, dtype=np.int64) - run_offsets)


class TestExpandFrontierEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(edge_lists(), st.data())
    def test_matches_three_repeat_formula(self, case, data):
        # Frontiers may repeat nodes and include degree-0 nodes.
        n, src, dst = case
        graph = CSRGraph.from_edges(n, src, dst)
        frontier = np.asarray(
            data.draw(st.lists(st.integers(0, n - 1), max_size=30), label="frontier"),
            dtype=np.int64,
        )
        edge_src, edge_dst, edge_pos = graph.expand_frontier(frontier)
        want = _expand_positions_reference(graph, frontier)
        assert edge_pos.dtype == want.dtype
        np.testing.assert_array_equal(edge_pos, want)
        np.testing.assert_array_equal(edge_dst, graph.targets[want])
        np.testing.assert_array_equal(
            edge_src, np.repeat(frontier, np.diff(graph.offsets)[frontier])
        )


class TestSingleGpuRunnerEquivalence:
    @pytest.mark.parametrize(
        "make_app, source",
        [(BFSApp, 3), (lambda: PageRankApp(max_iterations=10), None), (SSSPApp, 3)],
        ids=["bfs", "pr", "sssp"],
    )
    def test_matches_pipeline(self, make_app, source):
        graph = rmat(9, 8, seed=4)
        runner = MultiGpuRunner(
            SageScheduler, np.zeros(graph.num_nodes, dtype=np.int64), num_gpus=1
        )
        multi = runner.run(graph, make_app(), source)
        single = TraversalPipeline(graph, SageScheduler()).run(make_app(), source)
        assert multi.seconds == single.seconds
        assert multi.iterations == single.iterations
        assert multi.node_trace == single.node_trace
        assert multi.result.keys() == single.result.keys()
        for key in single.result:
            np.testing.assert_array_equal(multi.result[key], single.result[key])


class TestGorderEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(edge_lists(), st.sampled_from([1, 5]))
    def test_matches_reference(self, case, window):
        # Few edges over many nodes leave isolated nodes, so the
        # drained-queue fallback runs mid-order, not only at the end.
        n, src, dst = case
        graph = CSRGraph.from_edges(n, src, dst)
        np.testing.assert_array_equal(
            gorder_order(graph, window), gorder_order_reference(graph, window)
        )

    @pytest.mark.parametrize("window", [1, 5])
    @pytest.mark.parametrize(
        "src, dst, n",
        [([], [], 1), ([0], [0], 1), ([], [], 2), ([1], [0], 2), ([0, 1], [1, 0], 2)],
    )
    def test_one_and_two_nodes(self, src, dst, n, window):
        graph = CSRGraph.from_edges(n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64))
        np.testing.assert_array_equal(
            gorder_order(graph, window), gorder_order_reference(graph, window)
        )

    def test_hub_sampling_caps(self):
        # 79 predecessors and ~5000 sibling candidates per node: both
        # fan-out caps (64 predecessors, 512 siblings) are active.
        graph = complete_graph(80)
        np.testing.assert_array_equal(gorder_order(graph), gorder_order_reference(graph))

    @pytest.mark.parametrize("dataset", datasets.full_suite(0.05), ids=lambda ds: ds.name)
    def test_dataset_stand_ins(self, dataset):
        np.testing.assert_array_equal(
            gorder_order(dataset.graph), gorder_order_reference(dataset.graph)
        )


def _observe_sweep(reorderer: SamplingReorderer, graph: CSRGraph) -> None:
    """One full-graph sweep of tile accesses, as ``sage_reorder_rounds`` feeds."""
    degrees = graph.out_degrees()
    decomp = decompose_frontier(degrees, reorderer.spec.block_size, DEFAULT_MIN_TILE)
    reorderer.observe(graph.targets, decomp.segment_starts(np.cumsum(degrees) - degrees))


def _paired_reorderers(n: int, seed: int, **kwargs):
    """Two reorderers with the same sampling stream, each with its own registry."""
    return tuple(
        SamplingReorderer(n, GPUSpec(), seed=seed, metrics=MetricsRegistry(), **kwargs)
        for _ in range(2)
    )


def _assert_rounds_equal(fast, ref):
    def counts(outcome):
        return outcome.moved_nodes, outcome.sampled_tiles, outcome.sampled_pairs

    np.testing.assert_array_equal(fast.perm, ref.perm)
    assert counts(fast) == counts(ref)


class TestComputeRoundEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 300),
        st.integers(0, 2**31),
        st.sampled_from([3, 7, 64]),
        st.integers(0, 6),
    )
    def test_matches_reference(self, n, seed, tile, min_gain):
        # n spans ranges below one sector and ids not a multiple of the
        # sector width, so the sector bounds clamp at n.
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, n, size=int(rng.integers(0, 6 * n + 2)))
        starts = np.arange(0, max(edges.size, 1), tile, dtype=np.int64)
        fast, ref = _paired_reorderers(n, seed % 1000, threshold_edges=1, min_gain=min_gain)
        fast.observe(edges, starts)
        ref.observe(edges, starts)
        _assert_rounds_equal(fast.compute_round(), ref.compute_round_reference())
        assert fast.metrics.counters == ref.metrics.counters

    @pytest.mark.parametrize("dataset", datasets.full_suite(0.1), ids=lambda ds: ds.name)
    def test_three_rounds_on_stand_ins(self, dataset):
        graph = dataset.graph
        fast, ref = _paired_reorderers(graph.num_nodes, 0, threshold_edges=graph.num_edges)
        fast_graph = ref_graph = graph
        for _ in range(3):
            _observe_sweep(fast, fast_graph)
            _observe_sweep(ref, ref_graph)
            outcome = fast.compute_round()
            _assert_rounds_equal(outcome, ref.compute_round_reference())
            fast_graph = fast_graph.permute(outcome.perm)
            ref_graph = ref_graph.permute(outcome.perm)
        assert fast.metrics.counters["reorder.moved_nodes"] > 0
        assert fast.metrics.counters == ref.metrics.counters


class TestCOOSortedEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(edge_lists(max_nodes=40, max_edges=120))
    def test_matches_lexsort(self, case):
        n, src, dst = case
        got = COOGraph(n, src, dst).sorted()
        order = np.lexsort((dst, src))
        np.testing.assert_array_equal(got.src, src[order])
        np.testing.assert_array_equal(got.dst, dst[order])


@st.composite
def cost_cases(draw):
    """(graph, frontier, block_size, min_tile, sector_width, aligned).

    Degrees include zeros and exact block multiples; the frontier may
    repeat nodes.
    """
    block_size, min_tile = draw(st.sampled_from([(256, 8), (64, 1), (8, 8)]), label="sizes")
    n = draw(st.integers(1, 12), label="n")
    degree = st.one_of(
        st.integers(0, 2 * block_size + 9),
        st.integers(0, 2).map(lambda k: k * block_size),
    )
    degrees = np.asarray(draw(st.lists(degree, min_size=n, max_size=n)), dtype=np.int64)
    seed = draw(st.integers(0, 2**16), label="seed")
    rng = np.random.default_rng(seed)
    width = max(n, 4 * int(degrees.max(initial=0)))
    src = np.repeat(np.arange(n, dtype=np.int64), degrees)
    # Targets spread over a wider id range than n keeps sector counts varied.
    graph = CSRGraph.from_edges(width, src, rng.integers(0, width, size=src.size))
    frontier = np.asarray(
        draw(st.lists(st.integers(0, n - 1), max_size=2 * n), label="frontier"),
        dtype=np.int64,
    )
    sector_width = draw(st.sampled_from([1, 8]), label="sector_width")
    aligned = draw(st.booleans(), label="aligned")
    return graph, frontier, block_size, min_tile, sector_width, aligned


class TestNodeCostsEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(cost_cases())
    def test_matches_plan_path(self, case):
        graph, frontier, block_size, min_tile, sector_width, aligned = case
        degrees = graph.offsets[frontier + 1] - graph.offsets[frontier]
        table = node_costs(graph, block_size, min_tile, sector_width, aligned)
        got = table.frontier_costs(frontier, degrees)
        plan = segment_plan(degrees, block_size, min_tile)
        want = plan_costs(plan, graph.expand_frontier(frontier)[1], sector_width, aligned)
        assert got.totals() == want.totals()
        assert got.levels == want.levels
        np.testing.assert_array_equal(got.counts, want.counts)

    def test_column_is_compact_read_only_and_shared(self):
        graph = rmat(10, 8, seed=2)
        aligned = node_costs(graph, 256, 8, 8, aligned=True)
        unaligned = node_costs(graph, 256, 8, 8, aligned=False)
        assert aligned.value_sectors is unaligned.value_sectors
        assert aligned.value_sectors.dtype.itemsize < 8
        assert not aligned.value_sectors.flags.writeable

    def test_derived_cache_starts_empty_on_new_versions(self):
        graph = rmat(8, 4, seed=1)
        node_costs(graph, 256, DEFAULT_MIN_TILE, 8, aligned=True)
        perm = np.arange(graph.num_nodes)[::-1].copy()
        for version in (
            graph.permute(perm),
            graph.with_edges_added(np.array([0]), np.array([1])),
        ):
            assert version._derived == {}


def _assert_stats_equal(got, want):
    for f in dataclasses.fields(want):
        np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name), err_msg=f.name)


class _RecordingSage(SageScheduler):
    """SAGE scheduler recording every kernel; ``reference`` swaps in the
    per-kernel segment-plan formulation."""

    def __init__(self, *, reference=False, **kwargs):
        super().__init__(**kwargs)
        self.reference = reference
        self.kernels = []

    def _tiled_stats(self, *args):
        if self.reference:
            stats = self._tiled_stats_reference(*args)
        else:
            stats = super()._tiled_stats(*args)
        self.kernels.append(stats)
        return stats


SAGE_CONFIGS = {
    "tp+rts": {},
    "tp": {"resident_stealing": False},
    "tp+rts+sr": {"sampling_reorder": True, "reorder_threshold_edges": 2000},
    "tp+sr-unaligned": {
        "resident_stealing": False,
        "sampling_reorder": True,
        "reorder_threshold_edges": 2000,
        "tile_alignment": False,
    },
}


class TestTiledStatsEquivalence:
    @pytest.mark.parametrize("config", list(SAGE_CONFIGS), ids=list(SAGE_CONFIGS))
    @pytest.mark.parametrize(
        "make_app, source",
        [(BFSApp, 3), (lambda: PageRankApp(max_iterations=5), None), (SSSPApp, 3)],
        ids=["bfs", "pr", "sssp"],
    )
    @pytest.mark.parametrize("sanitized", [False, True], ids=["plain", "sanitized"])
    def test_kernel_stats_match_reference(self, config, make_app, source, sanitized):
        graph = rmat(9, 8, seed=4)
        runs = []
        for reference in (False, True):
            scheduler = _RecordingSage(reference=reference, **SAGE_CONFIGS[config])
            metrics = MetricsRegistry()
            sanitizer = Sanitizer() if sanitized else None
            pipeline = TraversalPipeline(graph, scheduler, metrics=metrics, sanitizer=sanitizer)
            result = pipeline.run(make_app(), source)
            if sanitizer is not None:
                assert sanitizer.clean, sanitizer.format_summary()
            runs.append((scheduler, metrics, result))
        (fast, fast_metrics, fast_run), (ref, ref_metrics, ref_run) = runs
        assert len(fast.kernels) == len(ref.kernels) > 0
        for got, want in zip(fast.kernels, ref.kernels):
            _assert_stats_equal(got, want)
        assert fast_metrics.counters == ref_metrics.counters
        assert fast_run.seconds == ref_run.seconds
        assert fast_run.reorder_commits == ref_run.reorder_commits
        for key in ref_run.result:
            np.testing.assert_array_equal(fast_run.result[key], ref_run.result[key])

    def test_duplicate_frontier_entries_sum_per_occurrence(self):
        graph = rmat(8, 8, seed=3)
        frontier = np.array([5, 5, 0, 7, 5, 0], dtype=np.int64)
        degrees = graph.offsets[frontier + 1] - graph.offsets[frontier]
        edge_dst = graph.expand_frontier(frontier)[1]
        app = BFSApp()
        app.setup(graph, 0)
        stats = []
        for reference in (False, True):
            scheduler = _RecordingSage(reference=reference)
            scheduler.reset(graph)
            stats.append(scheduler.kernel_stats(frontier, degrees, edge_dst, graph, app))
        _assert_stats_equal(*stats)


class TestFullFrontierExpansion:
    @settings(max_examples=80, deadline=None)
    @given(edge_lists())
    def test_matches_general_formula(self, case):
        n, src, dst = case
        graph = CSRGraph.from_edges(n, src, dst)
        frontier = np.arange(n, dtype=np.int64)
        got = graph.expand_frontier(frontier)
        edge_src, edge_dst, edge_pos = got
        want = _expand_positions_reference(graph, frontier)
        assert edge_pos.dtype == want.dtype
        np.testing.assert_array_equal(edge_pos, want)
        np.testing.assert_array_equal(edge_dst, graph.targets[want])
        np.testing.assert_array_equal(edge_src, np.repeat(frontier, graph.out_degrees()))
        for fast, general in zip(got, graph._gather_ranges(frontier)):
            assert fast.dtype == general.dtype
            np.testing.assert_array_equal(fast, general)
        assert edge_dst is graph.targets
        for arr in (edge_src, edge_dst, edge_pos):
            assert not arr.flags.writeable

    def test_permuted_full_frontier_takes_the_general_path(self):
        graph = rmat(7, 4, seed=5)
        frontier = np.arange(graph.num_nodes, dtype=np.int64)[::-1].copy()
        edge_src, edge_dst, edge_pos = graph.expand_frontier(frontier)
        np.testing.assert_array_equal(edge_pos, _expand_positions_reference(graph, frontier))
        assert edge_dst.flags.writeable


class TestReadOnlyCSR:
    def test_in_place_writes_raise(self):
        offsets = np.array([0, 2, 3], dtype=np.int64)
        targets = np.array([0, 1, 1], dtype=np.int64)
        graph = CSRGraph(2, offsets, targets)
        with pytest.raises(ValueError):
            graph.offsets[1] = 1
        with pytest.raises(ValueError):
            graph.targets[0] = 1
        with pytest.raises(ValueError):
            graph.targets.sort()
        # The caller's own arrays stay writable.
        targets[0] = 0
        assert offsets.flags.writeable and targets.flags.writeable


class TestDerivedCacheThreads:
    def test_racing_first_calls_share_one_value(self):
        graph = rmat(12, 8, seed=6)
        results = []
        start = threading.Barrier(8)

        def worker():
            start.wait(timeout=60)
            column = node_costs(graph, 256, DEFAULT_MIN_TILE, 8, True).value_sectors
            # One append per thread: two appends could interleave with
            # another thread's and break the pairing below.
            results.append((column, graph.all_nodes()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        column, nodes = [pair[0] for pair in results], [pair[1] for pair in results]
        assert all(value is column[0] for value in column)
        assert all(value is nodes[0] for value in nodes)


class TestTwoGpuRunnerEquivalence:
    @pytest.mark.parametrize(
        "make_app, source",
        [(BFSApp, 3), (lambda: PageRankApp(max_iterations=10), None), (SSSPApp, 3)],
        ids=["bfs", "pr", "sssp"],
    )
    def test_matches_reference_scheduler(self, make_app, source):
        graph = rmat(9, 8, seed=4)
        assignment = np.arange(graph.num_nodes, dtype=np.int64) % 2
        runs = [
            MultiGpuRunner(
                lambda reference=reference: _RecordingSage(reference=reference),
                assignment,
                num_gpus=2,
            ).run(graph, make_app(), source)
            for reference in (False, True)
        ]
        fast, ref = runs
        assert fast.seconds == ref.seconds
        assert fast.iterations == ref.iterations
        assert fast.node_trace == ref.node_trace
        for key in ref.result:
            np.testing.assert_array_equal(fast.result[key], ref.result[key])
