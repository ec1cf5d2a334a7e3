"""Versioned result cache: unit tests + the epoch-consistency property.

The hypothesis property is the one that justifies caching at all:
interleave dynamic-graph edge inserts with (heavily repeated, hence
cached) queries and every response must stay bit-identical to an
*uncached* oracle run against the graph version in force at that
query's arrival — the cache is invisible except in the metrics.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidParameterError
from repro.graph import generators
from repro.graph.dynamic import DynamicGraph
from repro.serve import (
    GraphStore,
    QueryRequest,
    QueryStatus,
    ResultCache,
    graph_fingerprint,
    result_cache_key,
    run_direct,
    simulate_cluster_open_loop,
)

from .conftest import assert_bit_identical, scheduler_factory

pytestmark = pytest.mark.cluster

#: Graphs are immutable and expensive; share across hypothesis examples.
_GRAPH_CACHE: dict[tuple[int, int, int], object] = {}


def cached_rmat(scale: int, edge_factor: int, seed: int):
    key = (scale, edge_factor, seed)
    if key not in _GRAPH_CACHE:
        _GRAPH_CACHE[key] = generators.rmat(
            scale, edge_factor=edge_factor, seed=seed
        )
    return _GRAPH_CACHE[key]


class TestResultCache:
    def _request(self, source=0):
        return QueryRequest("bfs", "g", source)

    def _key(self, source=0, epoch=0):
        return result_cache_key(self._request(source), epoch, "f" * 16)

    def test_roundtrip_copies_both_ways(self):
        cache = ResultCache(capacity=4)
        value = {"dist": np.arange(5, dtype=np.int32)}
        key = self._key()
        cache.put(key, value)
        value["dist"][0] = 99  # caller mutation must not reach the cache
        got = cache.get(key)
        assert got is not None
        assert got["dist"][0] == 0
        got["dist"][1] = 77  # reader mutation must not poison the cache
        assert cache.get(key)["dist"][1] == 1
        assert cache.hits == 2 and cache.misses == 0

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        for source in range(3):
            cache.put(self._key(source), {"dist": np.zeros(1)})
        assert cache.get(self._key(0)) is None
        assert cache.get(self._key(2)) is not None
        assert cache.evictions == 1

    def test_epoch_is_part_of_the_key(self):
        cache = ResultCache(capacity=4)
        cache.put(self._key(epoch=0), {"dist": np.zeros(1)})
        assert cache.get(self._key(epoch=1)) is None

    def test_invalidate_graph_drops_stale_epochs_only(self):
        cache = ResultCache(capacity=8)
        cache.put(self._key(source=0, epoch=0), {"dist": np.zeros(1)})
        cache.put(self._key(source=1, epoch=1), {"dist": np.ones(1)})
        other = result_cache_key(
            QueryRequest("bfs", "h", 0), 0, "a" * 16
        )
        cache.put(other, {"dist": np.zeros(1)})
        dropped = cache.invalidate_graph("g", keep_epoch=1)
        assert dropped == 1
        assert cache.get(self._key(source=1, epoch=1)) is not None
        assert cache.get(other) is not None
        assert cache.invalidations == 1

    def test_zero_capacity_never_stores(self):
        cache = ResultCache(capacity=0)
        cache.put(self._key(), {"dist": np.zeros(1)})
        assert cache.get(self._key()) is None
        assert cache.hit_ratio == 0.0


class TestGraphStore:
    def test_static_handles_have_frozen_epoch(self):
        graph = cached_rmat(5, 4, 1)
        store = GraphStore({"g": graph})
        assert store.epoch("g") == 0
        assert store.fingerprint("g") == graph_fingerprint(graph)
        with pytest.raises(InvalidParameterError):
            store.apply_edges("g", [0], [1])

    def test_dynamic_updates_bump_epoch_and_fingerprint(self):
        base = cached_rmat(5, 4, 1)
        store = GraphStore({"g": DynamicGraph(base)})
        seen: list[tuple[str, int]] = []
        store.subscribe(
            lambda handle, csr, epoch, delta: seen.append((handle, epoch))
        )
        before = store.fingerprint("g")
        epoch = store.apply_edges("g", [0], [base.num_nodes - 1])
        assert epoch == 1
        assert store.epoch("g") == 1
        assert store.fingerprint("g") != before
        assert seen == [("g", 1)]

    def test_key_for_tracks_the_epoch(self):
        base = cached_rmat(5, 4, 1)
        store = GraphStore({"g": DynamicGraph(base)})
        request = QueryRequest("bfs", "g", 0)
        first = store.key_for(request)
        store.apply_edges("g", [0], [base.num_nodes - 1])
        assert store.key_for(request) != first

    def test_unknown_handle_rejected(self):
        store = GraphStore({"g": cached_rmat(5, 4, 1)})
        with pytest.raises(InvalidParameterError):
            store.graph("nope")


@st.composite
def update_interleavings(draw):
    """A repeated-query stream with edge inserts scattered through it."""
    scale = draw(st.integers(min_value=4, max_value=5))
    graph = cached_rmat(scale, 4, draw(st.integers(0, 2)))
    n = draw(st.integers(min_value=6, max_value=14))
    hot = draw(
        st.lists(
            st.integers(0, graph.num_nodes - 1),
            min_size=1, max_size=3, unique=True,
        )
    )
    apps = draw(
        st.lists(
            st.sampled_from(["bfs", "sssp"]), min_size=n, max_size=n
        )
    )
    sources = draw(
        st.lists(st.sampled_from(hot), min_size=n, max_size=n)
    )
    requests = [
        QueryRequest(app, "g", source)
        for app, source in zip(apps, sources)
    ]
    num_updates = draw(st.integers(min_value=0, max_value=3))
    update_slots = draw(
        st.lists(
            st.integers(0, n - 1),
            min_size=num_updates, max_size=num_updates,
        )
    )
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, graph.num_nodes - 1),
                st.integers(0, graph.num_nodes - 1),
            ),
            min_size=num_updates, max_size=num_updates,
        )
    )
    return graph, requests, sorted(update_slots), edges


class TestEpochConsistencyProperty:
    @settings(max_examples=25, deadline=None)
    @given(update_interleavings())
    def test_cached_responses_match_the_uncached_oracle(self, scenario):
        graph, requests, update_slots, edges = scenario
        n = len(requests)
        # Queries arrive at 1.0, 2.0, ...; an update in slot i lands at
        # i + 1.5, strictly between query i and query i+1, so the graph
        # version each query must observe is unambiguous.
        arrivals = [float(i + 1) for i in range(n)]
        updates = [
            (slot + 1.5, "g", [src], [dst])
            for slot, (src, dst) in zip(update_slots, edges)
        ]
        responses, report = simulate_cluster_open_loop(
            {"g": DynamicGraph(graph)}, requests, arrivals,
            scheduler_factory,
            num_replicas=2, routing="affinity",
            batch_window=0.25, max_batch_size=64,
            updates=updates,
        )
        assert report.graph_updates == len(updates)

        # Replay the updates to materialize the version each arrival saw.
        versions = [graph]
        replay = DynamicGraph(graph)
        for _, _, src, dst in updates:
            replay.insert_edges(np.asarray(src), np.asarray(dst))
            replay.flush()
            versions.append(replay.graph)

        for i, (request, response) in enumerate(zip(requests, responses)):
            assert response.status is QueryStatus.OK
            live = sum(1 for slot in update_slots if slot < i)
            # The query may batch with later arrivals inside the same
            # window, executing against a (bounded) newer version; any
            # version between arrival-time and arrival+window is a
            # linearizable outcome.  The window is shorter than the
            # inter-arrival gap minus the update offset, so exactly one
            # version is admissible here.
            oracle = run_direct(
                versions[live], request, scheduler_factory
            )
            assert_bit_identical(
                response.result, oracle.result,
                label=f"query {i} ({request.app} s={request.source})",
            )
