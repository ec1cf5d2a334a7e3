"""Tests for the dynamic-graph update layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import BFSApp
from repro.core import SageScheduler, run_app
from repro.errors import GraphFormatError, InvalidParameterError
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph
from tests.conftest import bfs_oracle


class TestDynamicGraph:
    def test_insert_visible_after_flush(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph)
        dyn.insert_edges(np.array([3]), np.array([0]))
        assert dyn.pending_updates == 1
        assert dyn.graph.has_edge(3, 0)
        assert dyn.pending_updates == 0

    def test_matches_full_rebuild(self, skewed_graph):
        rng = np.random.default_rng(2)
        src = rng.integers(0, skewed_graph.num_nodes, size=500)
        dst = rng.integers(0, skewed_graph.num_nodes, size=500)
        dyn = DynamicGraph(skewed_graph)
        dyn.insert_edges(src, dst)
        rebuilt = skewed_graph.with_edges_added(src, dst)
        assert np.array_equal(dyn.graph.offsets, rebuilt.offsets)
        assert np.array_equal(dyn.graph.targets, rebuilt.targets)

    def test_delete_removes_all_copies(self):
        g = CSRGraph.from_edges(3, np.array([0, 0, 1]), np.array([1, 1, 2]))
        dyn = DynamicGraph(g)
        dyn.delete_edges(np.array([0]), np.array([1]))
        assert dyn.graph.num_edges == 1
        assert not dyn.graph.has_edge(0, 1)
        assert dyn.edges_deleted == 2

    def test_delete_nonexistent_is_noop(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph)
        dyn.delete_edges(np.array([1]), np.array([3]))
        assert dyn.graph.num_edges == tiny_graph.num_edges

    def test_mixed_batch(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph)
        dyn.insert_edges(np.array([1]), np.array([0]))
        dyn.delete_edges(np.array([0]), np.array([1]))
        g = dyn.graph
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 1)

    def test_auto_flush(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph, auto_flush_threshold=3)
        dyn.insert_edges(np.array([1, 2]), np.array([0, 1]))
        assert dyn.pending_updates == 2
        dyn.insert_edges(np.array([3]), np.array([2]))
        assert dyn.pending_updates == 0  # crossed the threshold
        assert dyn.merges == 1

    def test_listener_fired_on_merge(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph)
        seen = []
        dyn.add_listener(lambda g, delta: seen.append(g.num_edges))
        dyn.insert_edges(np.array([1]), np.array([0]))
        dyn.flush()
        assert seen == [tiny_graph.num_edges + 1]

    def test_validation(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph)
        with pytest.raises(GraphFormatError):
            dyn.insert_edges(np.array([0]), np.array([99]))
        with pytest.raises(GraphFormatError):
            dyn.insert_edges(np.array([0, 1]), np.array([0]))
        with pytest.raises(InvalidParameterError):
            DynamicGraph(tiny_graph, auto_flush_threshold=0)

    def test_traversal_after_updates_correct(self):
        g = gen.power_law_configuration(200, 2.0, 5.0, seed=3)
        dyn = DynamicGraph(g)
        rng = np.random.default_rng(7)
        for _ in range(3):
            src = rng.integers(0, 200, size=50)
            dst = rng.integers(0, 200, size=50)
            dyn.insert_edges(src, dst)
        current = dyn.graph
        result = run_app(current, BFSApp(), SageScheduler(), source=0)
        assert np.array_equal(result.result["dist"], bfs_oracle(current, 0))

    @given(
        st.lists(
            st.tuples(st.integers(0, 19), st.integers(0, 19)),
            max_size=60,
        ),
        st.lists(
            st.tuples(st.integers(0, 19), st.integers(0, 19)),
            max_size=20,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_insert_then_delete_property(self, inserts, deletes):
        base = gen.cycle_graph(20)
        dyn = DynamicGraph(base)
        if inserts:
            dyn.insert_edges(np.array([p[0] for p in inserts]),
                             np.array([p[1] for p in inserts]))
        if deletes:
            dyn.delete_edges(np.array([p[0] for p in deletes]),
                             np.array([p[1] for p in deletes]))
        got = dyn.graph
        # reference: plain python edge multiset
        edges = list(zip(base.to_coo().src.tolist(),
                         base.to_coo().dst.tolist()))
        edges += inserts
        delete_set = set(deletes)
        edges = [e for e in edges if e not in delete_set]
        expected = CSRGraph.from_edges(
            20,
            np.array([e[0] for e in edges], dtype=np.int64),
            np.array([e[1] for e in edges], dtype=np.int64),
        )
        assert np.array_equal(got.offsets, expected.offsets)
        assert np.array_equal(got.targets, expected.targets)
