"""The unified ``repro.api`` facade: one import, five verbs.

These tests pin the public surface (``import repro; repro.api``), the
facade's equivalence with the lower layers it wraps, and the ``api.*``
session counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.apps import BFSApp
from repro.core import SageScheduler, TraversalPipeline
from repro.errors import InvalidParameterError
from repro.graph import generators
from repro.obs import MetricsRegistry
from repro.serve import (
    ClusterBenchReport,
    ClusterPool,
    QueryBroker,
    QueryRequest,
    QueryStatus,
    ServeBenchReport,
)


@pytest.fixture(scope="module")
def graph():
    return generators.rmat(7, edge_factor=8, seed=11)


class TestSurface:
    def test_import_repro_exposes_the_facade(self):
        import repro

        for name in ("load_graph", "run", "serve", "cluster", "bench"):
            assert callable(getattr(repro.api, name)), name
        assert "api" in repro.__all__

    def test_registries_cover_cli_names(self):
        assert set(api.APPS) == {
            "bfs", "bc", "pr", "cc", "sssp", "lp",
            "walk", "node2vec", "khop", "sppr",
        }
        assert api.SOURCE_APPS <= set(api.APPS)
        assert set(api.SCHEDULERS) == {
            "sage", "sage-sr", "tpn", "b40c", "tigr", "gunrock",
        }


class TestLoadGraph:
    def test_by_name(self):
        graph = api.load_graph("twitter", scale=0.05)
        assert graph.num_nodes > 0

    def test_by_path(self, tmp_path):
        edges = tmp_path / "tiny.txt"
        edges.write_text("0 1\n1 2\n2 0\n", encoding="utf-8")
        graph = api.load_graph(path=str(edges))
        assert graph.num_nodes == 3

    def test_requires_name_or_path(self):
        with pytest.raises(InvalidParameterError):
            api.load_graph()


class TestRun:
    def test_matches_the_pipeline(self, graph):
        source = int(np.argmax(graph.out_degrees()))
        result = api.run(graph, "bfs", source=source)
        pipeline = TraversalPipeline(graph, SageScheduler())
        want = pipeline.run(BFSApp(), source)
        assert result.app == "bfs"
        assert result.seconds == want.seconds
        assert result.iterations == want.iterations
        np.testing.assert_array_equal(
            result.values["dist"], want.result["dist"]
        )
        assert result.raw is not None
        assert result.checks is None and result.clean

    def test_default_source_is_highest_degree(self, graph):
        auto = api.run(graph, "bfs")
        explicit = api.run(
            graph, "bfs", source=int(np.argmax(graph.out_degrees()))
        )
        np.testing.assert_array_equal(
            auto.values["dist"], explicit.values["dist"]
        )

    def test_checks_attach_a_clean_sanitizer(self, graph):
        result = api.run(graph, "bfs", checks=True)
        assert result.checks is not None
        assert result.checks.kernels_checked > 0
        assert result.clean

    def test_accepts_app_and_scheduler_objects(self, graph):
        result = api.run(graph, BFSApp(), scheduler=SageScheduler())
        assert result.app == "bfs"
        assert result.scheduler

    def test_result_is_frozen(self, graph):
        result = api.run(graph, "bfs")
        with pytest.raises(AttributeError):
            result.gteps = 0.0

    def test_unknown_names_rejected(self, graph):
        with pytest.raises(InvalidParameterError):
            api.run(graph, "dijkstra")
        with pytest.raises(InvalidParameterError):
            api.run(graph, "bfs", scheduler="cub")

    def test_counts_api_runs(self, graph):
        metrics = MetricsRegistry()
        api.run(graph, "bfs", metrics=metrics)
        assert metrics.report()["counters"]["api.runs"] == 1


class TestServeAndCluster:
    def test_serve_returns_a_live_broker(self, graph):
        metrics = MetricsRegistry()
        with api.serve(graph, batch_window=0.005,
                       metrics=metrics) as broker:
            assert isinstance(broker, QueryBroker)
            response = broker.submit(
                QueryRequest("bfs", "default", 0)
            ).result()
        assert response.status is QueryStatus.OK
        counters = metrics.report()["counters"]
        assert counters["api.serve_sessions"] == 1

    def test_cluster_returns_a_live_pool(self, graph):
        metrics = MetricsRegistry()
        with api.cluster(
            graph, num_replicas=2, batch_window=0.005, metrics=metrics
        ) as pool:
            assert isinstance(pool, ClusterPool)
            response = pool.submit(
                QueryRequest("bfs", "default", 0)
            ).result()
        assert response.status is QueryStatus.OK
        counters = metrics.report()["counters"]
        assert counters["api.cluster_sessions"] == 1


class TestBench:
    def test_single_broker_report(self, graph):
        report = api.bench(graph, num_queries=12, seed=3)
        assert isinstance(report, ServeBenchReport)
        assert report.status_counts.get("ok") == 12

    def test_single_broker_publishes_serve_gauges(self, graph):
        metrics = MetricsRegistry()
        report = api.bench(graph, num_queries=12, seed=3, metrics=metrics)
        snapshot = metrics.report()
        gauges = snapshot["gauges"]
        assert gauges["serve.latency_p95"] == report.latency_p95
        assert gauges["serve.batch_occupancy_mean"] == \
            report.batch_occupancy_mean
        assert gauges["serve.speedup_vs_sequential"] == \
            report.speedup_vs_sequential
        # The single-broker preset runs the cluster loop without a
        # registry: no cluster.* series leak into the caller's metrics.
        assert not [
            name for kind in ("counters", "gauges")
            for name in snapshot[kind] if name.startswith("cluster.")
        ]

    def test_cluster_report_is_baselined(self, graph):
        report = api.bench(graph, num_queries=12, replicas=2, seed=3)
        assert isinstance(report, ClusterBenchReport)
        assert report.single_broker_seconds > 0
        assert report.speedup_vs_single_broker > 0

    def test_deterministic(self, graph):
        a = api.bench(graph, num_queries=12, replicas=2, seed=3)
        b = api.bench(graph, num_queries=12, replicas=2, seed=3)
        assert a.to_dict() == b.to_dict()
