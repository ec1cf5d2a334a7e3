"""The retired legacy spellings fail loudly; their replacements are silent.

Six spellings used to be accepted behind a one-time
:class:`DeprecationWarning` and have since been removed:

* ``run_app(..., sanitizer=...)``  ->  ``api.run(..., checks=True)``
* ``QueryBroker(..., _internal=...)`` (direct construction warned)
* single-argument ``DynamicGraph`` listeners  ->  ``(graph, delta)``
* three-argument ``GraphStore`` subscribers  ->  ``(handle, csr, epoch,
  delta)``
* ``GraphStore.apply_update``  ->  ``apply_edges`` / ``apply_delta``
* ``direction_optimized_bfs(alpha=, beta=)``  ->  ``config=HybridConfig``

Each now fails with an ordinary ``TypeError`` or ``AttributeError`` at
the point of use, and the supported spellings emit no warning at all.
"""

from __future__ import annotations

import importlib
import warnings

import numpy as np
import pytest

from repro import api
from repro.analysis import Sanitizer
from repro.apps import BFSApp
from repro.core import SageScheduler, run_app
from repro.core.hybrid import direction_optimized_bfs
from repro.graph import generators
from repro.graph.dynamic import DynamicGraph
from repro.obs import MetricsRegistry
from repro.serve import (
    GraphStore,
    QueryBroker,
    QueryRequest,
    open_loop_arrivals,
    simulate_open_loop,
)


@pytest.fixture(scope="module")
def graph():
    return generators.rmat(6, edge_factor=6, seed=3)


def _no_warnings(fn):
    """Run ``fn`` with every warning promoted to an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn()


class TestRejected:
    def test_run_app_sanitizer_keyword(self, graph):
        with pytest.raises(TypeError, match="sanitizer"):
            run_app(graph, BFSApp(), SageScheduler(), source=0,
                    sanitizer=Sanitizer())

    def test_query_broker_internal_flag(self, graph):
        with pytest.raises(TypeError, match="_internal"):
            QueryBroker({"g": graph}, SageScheduler, _internal=True)

    def test_single_argument_listener_fails_at_merge(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph)
        seen = []
        dyn.add_listener(seen.append)
        dyn.insert_edges(np.array([3]), np.array([0]))
        with pytest.raises(TypeError):
            dyn.flush()
        assert seen == []

    def test_three_argument_subscriber_fails_at_update(self, tiny_graph):
        store = GraphStore({"g": DynamicGraph(tiny_graph)})
        epochs = []
        store.subscribe(lambda handle, csr, epoch: epochs.append(epoch))
        with pytest.raises(TypeError):
            store.apply_edges("g", [3], [0])
        assert epochs == []

    def test_store_apply_update(self, tiny_graph):
        store = GraphStore({"g": DynamicGraph(tiny_graph)})
        with pytest.raises(AttributeError, match="apply_update"):
            store.apply_update("g", np.array([3]), np.array([0]))
        assert store.epoch("g") == 0

    @pytest.mark.parametrize("keyword", ["alpha", "beta"])
    def test_hybrid_threshold_keywords(self, tiny_graph, keyword):
        with pytest.raises(TypeError, match=keyword):
            direction_optimized_bfs(
                tiny_graph, SageScheduler, 0, **{keyword: 2.0}
            )

    @pytest.mark.parametrize(
        "option", [("num_gpus", 2), ("metrics", MetricsRegistry())],
        ids=lambda option: option[0],
    )
    def test_simulate_open_loop_removed_options(self, graph, option):
        keyword, value = option
        requests = [QueryRequest("bfs", "g", 0)]
        with pytest.raises(TypeError, match=keyword):
            simulate_open_loop(
                graph, requests, open_loop_arrivals(1, 10.0, seed=0),
                SageScheduler, batch_window=0.0, max_batch_size=1,
                sequential_seconds=0.0, **{keyword: value},
            )

    def test_deprecation_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.deprecation")


class TestSupportedSpellingsAreSilent:
    def test_api_run_checks_matches_run_app(self, graph):
        plain = _no_warnings(
            lambda: run_app(graph, BFSApp(), SageScheduler(), source=0)
        )
        checked = _no_warnings(
            lambda: api.run(graph, "bfs", source=0, checks=True)
        )
        assert checked.clean, checked.checks.format_summary()
        assert checked.checks.kernels_checked > 0
        np.testing.assert_array_equal(
            plain.result["dist"], checked.values["dist"]
        )
        assert plain.seconds == checked.seconds

    def test_direct_broker_construction(self, graph):
        def construct():
            broker = QueryBroker({"g": graph}, SageScheduler)
            broker.close(drain=False)

        _no_warnings(construct)

    def test_api_serve(self, graph):
        def sanctioned():
            with api.serve(graph, batch_window=0.001):
                pass

        _no_warnings(sanctioned)

    def test_delta_aware_listener_and_subscriber(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph)
        store = GraphStore({"g": dyn})
        listened, subscribed = [], []
        _no_warnings(lambda: dyn.add_listener(
            lambda csr, delta: listened.append(delta.num_inserted)
        ))
        _no_warnings(lambda: store.subscribe(
            lambda handle, csr, epoch, delta: subscribed.append(epoch)
        ))
        assert _no_warnings(lambda: store.apply_edges("g", [3], [0])) == 1
        assert listened == [1] and subscribed == [1]
