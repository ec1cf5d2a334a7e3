"""Property-based serving tests.

Hypothesis draws random R-MAT graphs, query mixes, arrival schedules and
batching configurations; the invariant checked everywhere is the safety
property of :func:`tests.serve.conftest.assert_response_sound`: a
response is either bit-identical to the direct oracle or a structured
error — the service never returns a wrong answer, not even under forced
timeouts or load shedding.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    AdmissionError,
    DeadlineExceededError,
    InvalidParameterError,
)
from repro.graph import generators
from repro.serve import (
    BatchExecutor,
    MicroBatcher,
    QueryBroker,
    QueryRequest,
    QueryStatus,
    open_loop_arrivals,
    raise_for_status,
    simulate_open_loop,
)
from tests.serve.conftest import (
    assert_response_sound,
    scheduler_factory,
)

#: Cache graphs across hypothesis examples — building R-MATs dominates
#: example runtime and graphs are immutable.
_GRAPH_CACHE: dict[tuple[int, int, int], object] = {}


def cached_rmat(scale: int, edge_factor: int, seed: int):
    key = (scale, edge_factor, seed)
    if key not in _GRAPH_CACHE:
        _GRAPH_CACHE[key] = generators.rmat(
            scale, edge_factor=edge_factor, seed=seed
        )
    return _GRAPH_CACHE[key]


query_kinds = st.sampled_from(["bfs", "sssp", "pr", "ppr"])


@st.composite
def serving_scenarios(draw):
    scale = draw(st.integers(min_value=4, max_value=6))
    graph = cached_rmat(scale, draw(st.sampled_from([4, 8])),
                        draw(st.integers(min_value=0, max_value=2)))
    num_queries = draw(st.integers(min_value=1, max_value=12))
    requests = []
    for _ in range(num_queries):
        kind = draw(query_kinds)
        source = (
            None if kind == "pr"
            else draw(st.integers(min_value=0,
                                  max_value=graph.num_nodes - 1))
        )
        params = (
            {"max_iterations": draw(st.integers(min_value=1, max_value=6))}
            if kind in ("pr", "ppr") else {}
        )
        requests.append(
            QueryRequest(app=kind, graph="g", source=source, params=params)
        )
    config = dict(
        batch_window=draw(st.sampled_from([0.0, 0.05, 1.0])),
        max_batch_size=draw(st.sampled_from([1, 3, 64])),
        num_workers=draw(st.integers(min_value=1, max_value=3)),
    )
    arrival_seed = draw(st.integers(min_value=0, max_value=5))
    return graph, requests, config, arrival_seed


class TestEquivalenceProperties:
    @settings(max_examples=12, deadline=None)
    @given(scenario=serving_scenarios())
    def test_simulated_service_always_matches_oracle(self, scenario):
        graph, requests, config, arrival_seed = scenario
        arrivals = open_loop_arrivals(
            len(requests), rate_qps=30.0, seed=arrival_seed
        )
        responses, report = simulate_open_loop(
            graph, requests, arrivals, scheduler_factory,
            sequential_seconds=0.0, **config,
        )
        assert report.status_counts.get("ok", 0) == len(requests)
        for request, response in zip(requests, responses):
            assert response.status is QueryStatus.OK
            assert_response_sound(response, graph, request)

    @settings(max_examples=8, deadline=None)
    @given(scenario=serving_scenarios(),
           deadline_s=st.sampled_from([0.0, 1e-6, 0.5, None]))
    def test_deadlines_never_produce_wrong_answers(
        self, scenario, deadline_s
    ):
        """With arbitrary (including impossible) deadlines, every
        response is OK-and-exact or a structured TIMEOUT."""
        graph, requests, config, arrival_seed = scenario
        requests = [
            QueryRequest(app=r.app, graph=r.graph, source=r.source,
                         params=r.params, deadline_seconds=deadline_s)
            for r in requests
        ]
        arrivals = open_loop_arrivals(
            len(requests), rate_qps=30.0, seed=arrival_seed
        )
        responses, report = simulate_open_loop(
            graph, requests, arrivals, scheduler_factory,
            sequential_seconds=0.0, **config,
        )
        for request, response in zip(requests, responses):
            assert response.status in (QueryStatus.OK, QueryStatus.TIMEOUT)
            assert_response_sound(response, graph, request)
        assert sum(report.status_counts.values()) == len(requests)

    @settings(max_examples=30, deadline=None)
    @given(
        traffic=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False),
                st.sampled_from(["g", "h", "k"]),
            ),
            min_size=1, max_size=30,
        ),
        window=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        cap=st.integers(min_value=1, max_value=8),
        num_workers=st.integers(min_value=1, max_value=3),
    )
    def test_batcher_partitions_exactly_once(
        self, traffic, window, cap, num_workers
    ):
        """The micro-batcher is a partition: every query lands in exactly
        one batch, caps are respected, members fit the opener's window.
        The simulator forms exactly those batches: every response
        carries its query's ``form_batches`` batch id and size."""
        arrivals = [t for t, _ in traffic]
        requests = [
            QueryRequest(app="bfs", graph=handle, source=0)
            for _, handle in traffic
        ]
        batches = MicroBatcher(window, cap).form_batches(
            list(zip(arrivals, requests))
        )
        seen = [item.index for batch in batches for item in batch.items]
        assert sorted(seen) == list(range(len(arrivals)))
        for batch in batches:
            assert 1 <= batch.size <= cap
            opener = min(item.arrival for item in batch.items)
            assert all(
                item.arrival <= opener + window for item in batch.items
            )

        responses, report = simulate_open_loop(
            cached_rmat(4, 4, 0), requests, np.asarray(arrivals),
            scheduler_factory, batch_window=window, max_batch_size=cap,
            num_workers=num_workers, sequential_seconds=0.0,
        )
        batch_of = {
            item.index: batch for batch in batches for item in batch.items
        }
        assert [(r.batch_id, r.batch_size) for r in responses] == [
            (batch_of[i].batch_id, batch_of[i].size)
            for i in range(len(requests))
        ]
        assert report.num_batches == len(batches)


class _GatedExecutor(BatchExecutor):
    """Blocks execution until released — deterministically fills the
    broker queue so the shed path can be forced."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.release = threading.Event()

    def execute(self, graph, requests):
        assert self.release.wait(timeout=60.0)
        return super().execute(graph, requests)


class TestForcedSheddingAndTimeouts:
    def test_forced_shed_surfaces_admission_error(self, serve_graph):
        """Queue capacity 2 + a gated worker: extra submits shed with a
        structured response; queued queries still answer exactly."""
        executor = _GatedExecutor(scheduler_factory)
        broker = QueryBroker(
            {"g": serve_graph}, scheduler_factory,
            batch_window=30.0, max_batch_size=1, num_workers=1,
            queue_capacity=2, executor=executor,
        )
        try:
            requests = [
                QueryRequest(app="bfs", graph="g", source=i)
                for i in range(6)
            ]
            pendings = broker.submit_many(requests)
            shed = [p for p in pendings if p.done()]
            assert len(shed) >= 3  # capacity 2 (+ maybe one claimed)
            for pending in shed:
                response = pending.result(timeout=1.0)
                assert response.status is QueryStatus.SHED
                assert response.result is None
                assert response.error_type == "AdmissionError"
                with pytest.raises(AdmissionError):
                    raise_for_status(response)
        finally:
            executor.release.set()
            broker.close(drain=True)
        for request, pending in zip(requests, pendings):
            response = pending.result(timeout=1.0)
            assert_response_sound(response, serve_graph, request)
        statuses = {p.result(timeout=1.0).status for p in pendings}
        assert statuses == {QueryStatus.OK, QueryStatus.SHED}

    def test_forced_timeout_surfaces_deadline_error(self, serve_graph):
        """An impossible virtual deadline inside a long batching window
        times out pre-execution and raises DeadlineExceededError."""
        requests = [
            QueryRequest(app="bfs", graph="g", source=i,
                         deadline_seconds=0.25)
            for i in range(4)
        ]
        arrivals = np.zeros(len(requests))
        responses, report = simulate_open_loop(
            serve_graph, requests, arrivals, scheduler_factory,
            batch_window=1.0, max_batch_size=64,
            sequential_seconds=0.0,
        )
        assert report.status_counts == {"timeout": len(requests)}
        for response in responses:
            assert response.result is None
            assert response.error_type == "DeadlineExceededError"
            with pytest.raises(DeadlineExceededError):
                raise_for_status(response)

    def test_broker_timeout_path_never_returns_results(self, serve_graph):
        """Wall-clock broker: zero deadline + a real batching window
        forces the timeout path; late answers are dropped, not served."""
        with QueryBroker(
            {"g": serve_graph}, scheduler_factory,
            batch_window=0.05, max_batch_size=8, num_workers=1,
        ) as broker:
            pendings = broker.submit_many([
                QueryRequest(app="bfs", graph="g", source=i,
                             deadline_seconds=0.0)
                for i in range(4)
            ])
            responses = [p.result(timeout=60.0) for p in pendings]
        for response in responses:
            assert response.status is QueryStatus.TIMEOUT
            assert response.result is None
            assert response.error_type == "DeadlineExceededError"


class TestRequestValidation:
    def test_unknown_app_rejected(self):
        with pytest.raises(InvalidParameterError):
            QueryRequest(app="wcc", graph="g", source=0)

    def test_missing_source_rejected(self):
        for kind in ("bfs", "sssp", "ppr"):
            with pytest.raises(InvalidParameterError):
                QueryRequest(app=kind, graph="g")

    def test_negative_deadline_rejected(self):
        with pytest.raises(InvalidParameterError):
            QueryRequest(app="bfs", graph="g", source=0,
                         deadline_seconds=-1.0)

    def test_unknown_graph_handle_rejected(self, serve_graph):
        with QueryBroker({"g": serve_graph}, scheduler_factory) as broker:
            with pytest.raises(InvalidParameterError):
                broker.submit(QueryRequest(app="bfs", graph="h", source=0))

    def test_non_ok_response_cannot_carry_result(self):
        from repro.serve import QueryResponse
        with pytest.raises(InvalidParameterError):
            QueryResponse(request_id=0, app="bfs",
                          status=QueryStatus.SHED,
                          result={"dist": np.zeros(1)})
