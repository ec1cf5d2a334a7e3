"""Equivalence properties for the vectorized hot paths.

Every rewrite in the throughput pass keeps its pre-optimization
formulation as an importable reference; these properties assert the
rewritten kernels are *bit-for-bit identical* to those references —
including the shapes perf rewrites classically get wrong: empty
segments, single-node frontiers, all-duplicate destinations, degree-0
hubs, and LRU batches that straddle the internal chunk boundary.  The
reorder-layer rewrites (Gorder, the SAGE round, the composite-key COO
sort) are held to the same standard: identical permutations, counters
and arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reorder import SamplingReorderer
from repro.core.tiling import DEFAULT_MIN_TILE, decompose_frontier, decompose_frontier_reference
from repro.gpusim.memory import (
    LRUCacheModel,
    ReferenceLRUCache,
    segmented_distinct_sectors,
    segmented_distinct_sectors_reference,
)
from repro.gpusim.spec import GPUSpec
from repro.graph import datasets
from repro.graph.coo import COOGraph
from repro.graph.csr import CSRGraph
from repro.graph.generators import complete_graph
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
