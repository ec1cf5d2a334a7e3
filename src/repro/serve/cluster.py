"""Sharded multi-replica serving: routing, admission, versioned caching.

:class:`ClusterPool` scales the single :class:`~repro.serve.broker
.QueryBroker` out to ``num_replicas`` broker+device replicas behind one
front door that adds three things a single broker does not have:

* **routing** — a pluggable policy (:data:`ROUTING_POLICIES`) picks the
  replica for every admitted query: ``round_robin`` spreads blindly,
  ``least_outstanding`` tracks per-replica queued work, ``affinity``
  hashes the batch key so compatible queries land on the same replica
  and keep coalescing.
* **adaptive admission** — per-client token buckets plus an AIMD
  concurrency limiter (:mod:`repro.serve.admission`) shed load *before*
  it costs device time, tighten under deadline misses and reopen on
  recovery.
* **a versioned result cache** — :mod:`repro.serve.cache` keys on graph
  epoch + fingerprint, so repeated hot queries are answered without any
  replica and a :class:`~repro.graph.dynamic.DynamicGraph` merge can
  never surface a stale read.

:func:`simulate_cluster_open_loop` is the deterministic virtual-time
twin (the :class:`~repro.serve.batching.MicroBatcher` policy, the same
admission and cache objects, ``num_workers`` device slots per replica,
virtual clock), which is what the CI benchmark tier gates; the threaded
pool is for exercising the stack end to end.  It is the repository's
only virtual-time serving loop: the single-broker
:func:`~repro.serve.loadgen.simulate_open_loop` is a one-replica preset
of it.  Both uphold the serving invariant: a response is either
bit-identical to the direct oracle or a structured non-``OK`` status —
never a wrong answer.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.analysis.races import RaceDetector
from repro.analysis.races import instrument as races
from repro.core.scheduler import Scheduler
from repro.errors import AdmissionError, InvalidParameterError, ThrottledError
from repro.graph.csr import CSRGraph
from repro.graph.delta import GraphDelta
from repro.graph.dynamic import DynamicGraph
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
)
from repro.serve.batching import BatchKey, batch_key
from repro.serve.broker import PendingQuery, QueryBroker
from repro.serve.cache import CacheKey, GraphStore, ResultCache, result_cache_key
from repro.serve.executor import BatchExecutor
from repro.serve.pipelined import (
    PipelineConfig,
    PipelinedExecutor,
    ReplicaPipeline,
)
from repro.serve.request import QueryRequest, QueryResponse, QueryStatus

#: Replica-selection policies understood by :class:`Router`.
ROUTING_POLICIES = ("round_robin", "least_outstanding", "affinity")

# ----------------------------------------------------------------------
# Event-ordering contract of the virtual-time loop
# ----------------------------------------------------------------------
# When several events fall due at the same virtual instant, the loop
# plays them in a pinned order: batch *completions* land their results
# (and fill the cache) first, then graph *updates* bump epochs and purge
# stale entries, then window *flushes* dispatch new batches — so a batch
# dispatched at time t always executes against every update due at t,
# and a completion never caches under an epoch bumped at the same
# instant.  An arrival at t sees every completion and update due at t
# but no flush due at t: a window still admits an arrival at its
# closing instant, as MicroBatcher's policy says, and batches ready at
# t dispatch after the arrivals at t have joined them.
# The regression test in tests/serve/ pins these constants;
# new event sources (e.g. pipeline device events) must pick one of them
# rather than invent an ordering.
EVENT_COMPLETION = 0
EVENT_UPDATE = 1
EVENT_FLUSH = 2


def event_order(when: float, kind: int) -> tuple[float, int]:
    """Total order for simulator events: time first, then the pinned
    tie-break ``EVENT_COMPLETION < EVENT_UPDATE < EVENT_FLUSH``."""
    return (float(when), int(kind))


class Router:
    """Picks the replica index for one admitted query.

    Deterministic by construction: ``round_robin`` is a counter,
    ``least_outstanding`` breaks ties toward the lowest index, and
    ``affinity`` hashes the batch key with md5 (stable across processes,
    unlike ``hash()`` under ``PYTHONHASHSEED``).
    """

    def __init__(self, policy: str, num_replicas: int) -> None:
        if policy not in ROUTING_POLICIES:
            raise InvalidParameterError(
                f"unknown routing policy {policy!r}; "
                f"expected one of {ROUTING_POLICIES}"
            )
        if num_replicas < 1:
            raise InvalidParameterError("num_replicas must be >= 1")
        self.policy = policy
        self.num_replicas = int(num_replicas)
        self._next = 0

    @staticmethod
    def _stable_hash(key: BatchKey) -> int:
        digest = hashlib.md5(repr(key).encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def route(self, request: QueryRequest, outstanding: list[int]) -> int:
        if self.policy == "round_robin":
            replica = self._next % self.num_replicas
            self._next += 1
            return replica
        if self.policy == "least_outstanding":
            return int(min(
                range(self.num_replicas), key=lambda r: (outstanding[r], r)
            ))
        return self._stable_hash(batch_key(request)) % self.num_replicas


@dataclass
class ClusterBenchReport:
    """Summary of one clustered serving run (see ``to_dict`` for JSON)."""

    num_queries: int
    num_replicas: int
    routing: str
    num_batches: int
    batch_occupancy_mean: float
    makespan_seconds: float
    sim_seconds_total: float
    per_replica_sim_seconds: list[float]
    single_broker_seconds: float
    cache_hits: int
    cache_misses: int
    throttled: int
    shed: int
    graph_updates: int
    throttle_level: float
    concurrency_limit: int
    latency_p50: float
    latency_p95: float
    latency_p99: float
    status_counts: dict[str, int] = field(default_factory=dict)
    pipeline_enabled: bool = False
    pipeline_busy_seconds: float = 0.0
    pipeline_overlap_saved_seconds: float = 0.0
    pipeline_inflight_peak: int = 0

    @property
    def cache_hit_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def throughput_qps(self) -> float:
        served = self.status_counts.get(QueryStatus.OK.value, 0)
        if self.makespan_seconds <= 0:
            return 0.0
        return served / self.makespan_seconds

    @property
    def replica_occupancy_mean(self) -> float:
        """Mean device-seconds per replica over the makespan (a busy
        fraction per replica, up to ``num_workers`` with several
        device slots)."""
        if self.makespan_seconds <= 0 or not self.per_replica_sim_seconds:
            return 0.0
        busy = [
            s / self.makespan_seconds for s in self.per_replica_sim_seconds
        ]
        return float(np.mean(busy))

    @property
    def pipeline_speedup_vs_serial(self) -> float:
        """Device-time ratio: serial work submitted ÷ busy device time.

        ``sim_seconds_total`` is the work the batches would occupy a
        batch-at-a-time device for; ``pipeline_busy_seconds`` is how
        long the stream devices were actually busy.  >= 1.0 by the
        work-conserving schedule; 0.0 when pipelining is off.
        """
        if not self.pipeline_enabled or self.pipeline_busy_seconds <= 0:
            return 0.0
        return self.sim_seconds_total / self.pipeline_busy_seconds

    @property
    def speedup_vs_single_broker(self) -> float:
        """Device-time ratio: single-broker sim seconds ÷ cluster's.

        Both sides serve the identical request/arrival trace, so the
        ratio isolates what the cluster tier adds (the cache answering
        repeats for free) from what batching already provides.  0.0
        means "no baseline supplied".
        """
        if self.single_broker_seconds <= 0:
            return 0.0
        if self.sim_seconds_total <= 0:
            return float("inf")
        return self.single_broker_seconds / self.sim_seconds_total

    def to_dict(self) -> dict[str, Any]:
        return {
            "num_queries": self.num_queries,
            "num_replicas": self.num_replicas,
            "routing": self.routing,
            "num_batches": self.num_batches,
            "batch_occupancy_mean": self.batch_occupancy_mean,
            "makespan_seconds": self.makespan_seconds,
            "sim_seconds_total": self.sim_seconds_total,
            "per_replica_sim_seconds": list(self.per_replica_sim_seconds),
            "single_broker_seconds": self.single_broker_seconds,
            "speedup_vs_single_broker": self.speedup_vs_single_broker,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_ratio": self.cache_hit_ratio,
            "throttled": self.throttled,
            "shed": self.shed,
            "graph_updates": self.graph_updates,
            "throttle_level": self.throttle_level,
            "concurrency_limit": self.concurrency_limit,
            "replica_occupancy_mean": self.replica_occupancy_mean,
            "throughput_qps": self.throughput_qps,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "status_counts": dict(self.status_counts),
            "pipeline_enabled": self.pipeline_enabled,
            "pipeline_busy_seconds": self.pipeline_busy_seconds,
            "pipeline_overlap_saved_seconds":
                self.pipeline_overlap_saved_seconds,
            "pipeline_inflight_peak": self.pipeline_inflight_peak,
            "pipeline_speedup_vs_serial": self.pipeline_speedup_vs_serial,
        }


def publish_cluster_gauges(
    metrics: MetricsRegistry, report: ClusterBenchReport
) -> None:
    """Mirror a cluster bench report into the ``cluster.*`` gauges."""
    metrics.set_gauge("cluster.cache_hit_ratio", report.cache_hit_ratio)
    metrics.set_gauge("cluster.throttle_level", report.throttle_level)
    metrics.set_gauge(
        "cluster.concurrency_limit", float(report.concurrency_limit)
    )
    metrics.set_gauge(
        "cluster.replica_occupancy_mean", report.replica_occupancy_mean
    )
    metrics.set_gauge("cluster.latency_p50", report.latency_p50)
    metrics.set_gauge("cluster.latency_p95", report.latency_p95)
    metrics.set_gauge("cluster.latency_p99", report.latency_p99)
    metrics.set_gauge("cluster.throughput_qps", report.throughput_qps)
    metrics.set_gauge(
        "cluster.speedup_vs_single_broker", report.speedup_vs_single_broker
    )
    if report.pipeline_enabled:
        metrics.set_gauge(
            "pipeline.busy_seconds", report.pipeline_busy_seconds
        )
        metrics.set_gauge(
            "pipeline.overlap_saved_seconds",
            report.pipeline_overlap_saved_seconds,
        )
        metrics.set_gauge(
            "pipeline.inflight_peak", float(report.pipeline_inflight_peak)
        )
        metrics.set_gauge(
            "pipeline.speedup_vs_serial", report.pipeline_speedup_vs_serial
        )


# ----------------------------------------------------------------------
# Deterministic virtual-time simulator
# ----------------------------------------------------------------------


@dataclass
class _Member:
    """One admitted query inside the simulator."""

    index: int
    request: QueryRequest
    arrival: float
    deadline: float | None


@dataclass(eq=False)
class _OpenBatch:
    """A batch forming on one replica under the MicroBatcher policy.

    ``close_time`` is when it dispatches: the end of its window, or the
    filling member's arrival once it holds ``max_batch_size`` members.
    """

    replica: int
    key: BatchKey
    open_time: float
    close_time: float
    members: list[_Member]


def _flush_rank(batch: _OpenBatch) -> tuple[float, int, float, str]:
    """Dispatch order of batches: MicroBatcher's ``(ready, open, key)``
    within a replica, replicas in index order at equal ready times."""
    return (batch.close_time, batch.replica, batch.open_time, repr(batch.key))


@dataclass
class _Completion:
    """An executed batch whose results land at ``finish``."""

    finish: float
    members: list[_Member]
    results: list[dict[str, np.ndarray]]
    cache_keys: list[CacheKey]
    batch_id: int
    share: float


def _busy_total(pipes: list[ReplicaPipeline], sim_total: float) -> float:
    """Summed device busy time, clamped to the serial device total.

    Busy time is a union of intervals whose endpoints accumulate node
    durations in a different order than the per-batch totals, so it can
    exceed ``sim_total`` by a few ulps even though busy <= work holds
    exactly in real arithmetic.  Clamp the noise: it would otherwise
    leak a speedup fractionally below 1.0 out of a run with no overlap.
    """
    return min(sum(p.device.busy_seconds for p in pipes), sim_total)


def _percentiles(responses: list[QueryResponse]) -> tuple[float, float, float]:
    """p50/p95/p99 latency of the served (``OK``) responses.

    Shed, throttled and failed responses are counted in ``status_counts``
    only: a shed response's latency of 0 would pull every percentile
    down under exactly the overload the report is meant to show.
    """
    latencies = [r.latency_seconds for r in responses
                 if r.status is QueryStatus.OK]
    if not latencies:
        return (0.0, 0.0, 0.0)
    p50, p95, p99 = np.percentile(np.asarray(latencies), [50, 95, 99])
    return (float(p50), float(p95), float(p99))


def simulate_cluster_open_loop(
    graphs: Mapping[str, CSRGraph | DynamicGraph] | GraphStore,
    requests: list[QueryRequest],
    arrivals: np.ndarray,
    scheduler_factory: Callable[[], Scheduler],
    *,
    num_replicas: int = 2,
    num_workers: int = 1,
    routing: str = "least_outstanding",
    batch_window: float = 0.01,
    max_batch_size: int = 64,
    cache_capacity: int = 1024,
    admission: AdmissionConfig | None = None,
    clients: list[str] | None = None,
    updates: list[tuple[float, str, Any, Any]] | None = None,
    executor: BatchExecutor | None = None,
    single_broker_seconds: float = 0.0,
    pipeline: PipelineConfig | None = None,
    metrics: MetricsRegistry | None = None,
) -> tuple[list[QueryResponse], ClusterBenchReport]:
    """Deterministic virtual-time replay of the clustered service.

    The policy objects are the production ones (the
    :class:`~repro.serve.batching.MicroBatcher` window built
    incrementally per replica and batch key, :class:`ResultCache`,
    :class:`AdmissionController`); only the clock is virtual, so equal
    traffic always yields byte-equal responses and the benchmark tier
    can be gated in CI.  A batch is ready when its window elapses or it
    fills, whichever is first; batches dispatch in MicroBatcher's
    ``(ready, open, key)`` order, and batch ids count them in that
    order.

    Each batch-at-a-time replica has ``num_workers`` device slots (the
    worker threads of a :class:`ClusterPool` replica broker): a
    dispatched batch starts on the replica's earliest-free slot, lowest
    index first on ties.  ``num_batches`` and ``batch_occupancy_mean``
    count the batches that reached a device, with the members still
    live at dispatch.

    ``updates`` schedules mid-stream dynamic-graph merges as
    ``(virtual_time, handle, src_array, dst_array)`` tuples; each bumps
    the handle's epoch, purges its stale cache entries, and re-snapshots
    the graph served to later batches.  A batch executes against the
    snapshot current at its *dispatch* time and its results are cached
    under that snapshot's epoch — in-flight work can never pollute a
    newer epoch.  ``single_broker_seconds`` (total sim-device seconds of
    one micro-batching broker over the same trace, i.e. the
    :func:`~repro.serve.loadgen.simulate_open_loop` preset of this loop)
    feeds the report's speedup; pass 0.0 to skip the comparison.

    ``pipeline`` (a :class:`~repro.serve.pipelined.PipelineConfig` with
    any knob off its synchronous default) switches each replica from
    batch-at-a-time execution to a stream device with an in-flight
    admission window.  Responses are bit-identical either way — batches
    still form, snapshot, and execute identically at dispatch time; only
    the virtual timeline of the device changes.  The stream device is
    that mode's concurrency model, so it needs ``num_workers=1``.  One
    semantic nuance: with pipelining on, the pre-execution deadline
    check uses the batch's flush time (the device-start instant is not
    known until admission), so queueing delay surfaces as a
    post-execution timeout instead.
    """
    if num_replicas < 1:
        raise InvalidParameterError("num_replicas must be >= 1")
    if num_workers < 1:
        raise InvalidParameterError("num_workers must be >= 1")
    if batch_window < 0:
        raise InvalidParameterError("batch_window must be >= 0")
    if max_batch_size < 1:
        raise InvalidParameterError("max_batch_size must be >= 1")
    arrivals = np.asarray(arrivals, dtype=np.float64)
    if arrivals.shape != (len(requests),):
        raise InvalidParameterError(
            f"need one arrival per request, got {arrivals.shape} "
            f"for {len(requests)} requests"
        )
    if clients is not None and len(clients) != len(requests):
        raise InvalidParameterError("need one client class per request")
    registry = metrics if metrics is not None else NULL_REGISTRY
    store = graphs if isinstance(graphs, GraphStore) else GraphStore(graphs)
    cache = ResultCache(cache_capacity, metrics=registry)
    controller = AdmissionController(admission, metrics=registry)
    router = Router(routing, num_replicas)
    pipelined = pipeline is not None and pipeline.enabled
    if pipelined:
        if num_workers != 1:
            raise InvalidParameterError(
                "pipeline= models each replica as one stream device; "
                "it needs num_workers=1"
            )
        if executor is None:
            executor = PipelinedExecutor(
                scheduler_factory, metrics=registry, config=pipeline
            )
        elif not isinstance(executor, PipelinedExecutor):
            raise InvalidParameterError(
                "pipeline= needs a PipelinedExecutor (or executor=None)"
            )
        pipes = [
            ReplicaPipeline(pipeline, metrics=registry)
            for _ in range(num_replicas)
        ]
    else:
        executor = executor or BatchExecutor(scheduler_factory)
        pipes = []

    pending_updates = sorted(
        updates or [], key=lambda u: float(u[0])
    )
    update_ptr = 0
    graph_updates = 0

    responses: dict[int, QueryResponse] = {}
    # Every batch not yet dispatched, in creation order (which breaks
    # _flush_rank ties like MicroBatcher's stable sort), and the subset
    # still taking members, by (replica, key).
    forming: list[_OpenBatch] = []
    open_batches: dict[tuple[int, BatchKey], _OpenBatch] = {}
    completions: list[tuple[float, int, _Completion]] = []
    pipeline_pending: dict[tuple[int, int], _Completion] = {}
    seq = itertools.count()
    # When each device slot of each replica next falls free.
    slot_free = [[0.0] * num_workers for _ in range(num_replicas)]
    per_replica_sim = [0.0] * num_replicas
    outstanding = [0] * num_replicas
    total_outstanding = 0
    sim_total = 0.0
    batch_sizes: list[int] = []
    next_batch_id = 0

    def resolve_timeout(member: _Member, now: float, phase: str,
                        batch_id: int, size: int) -> None:
        nonlocal total_outstanding
        outstanding[_replica_of[member.index]] -= 1
        total_outstanding -= 1
        controller.on_overload()
        responses[member.index] = QueryResponse(
            request_id=member.index,
            app=member.request.app,
            status=QueryStatus.TIMEOUT,
            error=f"deadline exceeded {phase}",
            error_type="DeadlineExceededError",
            batch_id=batch_id,
            batch_size=size,
            latency_seconds=now - member.arrival,
        )

    _replica_of: dict[int, int] = {}

    def dispatch(batch: _OpenBatch, ready: float) -> None:
        nonlocal sim_total, next_batch_id
        replica = batch.replica
        slots = slot_free[replica]
        slot = slots.index(min(slots))
        # With pipelining the device-start instant is unknown until the
        # window admits the batch; the pre-execution check then uses the
        # flush time and queueing delay is caught post-execution.
        start = ready if pipelined else max(ready, slots[slot])
        batch_id = next_batch_id
        next_batch_id += 1
        live = []
        for member in batch.members:
            if member.deadline is not None and start > member.deadline:
                resolve_timeout(
                    member, start, "before execution", batch_id, 0
                )
            else:
                live.append(member)
        if not live:
            return
        handle = batch.key[0]
        graph = store.graph(handle)
        epoch = store.epoch(handle)
        fingerprint = store.fingerprint(handle)
        if pipelined:
            assert isinstance(executor, PipelinedExecutor)
            compiled = executor.compile(
                graph, [m.request for m in live]
            )
            execution = compiled.execution
            per_replica_sim[replica] += execution.sim_seconds
            sim_total += execution.sim_seconds
            batch_sizes.append(len(live))
            local = pipes[replica].submit(compiled.dag, ready)
            pipeline_pending[(replica, local)] = _Completion(
                finish=0.0,
                members=live,
                results=execution.results,
                cache_keys=[
                    result_cache_key(m.request, epoch, fingerprint)
                    for m in live
                ],
                batch_id=batch_id,
                share=execution.sim_seconds / len(live),
            )
            return
        execution = executor.execute(graph, [m.request for m in live])
        finish = start + execution.sim_seconds
        slots[slot] = finish
        per_replica_sim[replica] += execution.sim_seconds
        sim_total += execution.sim_seconds
        batch_sizes.append(len(live))
        heapq.heappush(completions, (
            finish,
            next(seq),
            _Completion(
                finish=finish,
                members=live,
                results=execution.results,
                cache_keys=[
                    result_cache_key(m.request, epoch, fingerprint)
                    for m in live
                ],
                batch_id=batch_id,
                share=execution.sim_seconds / len(live),
            ),
        ))

    def complete(done: _Completion) -> None:
        nonlocal total_outstanding
        size = len(done.members)
        for member, result, key in zip(
            done.members, done.results, done.cache_keys
        ):
            if member.deadline is not None and done.finish > member.deadline:
                resolve_timeout(
                    member, done.finish, "after execution",
                    done.batch_id, size,
                )
                continue
            outstanding[_replica_of[member.index]] -= 1
            total_outstanding -= 1
            controller.on_success()
            cache.put(key, result)
            responses[member.index] = QueryResponse(
                request_id=member.index,
                app=member.request.app,
                status=QueryStatus.OK,
                result=result,
                batch_id=done.batch_id,
                batch_size=size,
                sim_seconds=done.share,
                latency_seconds=done.finish - member.arrival,
            )

    def apply_stream_update(update: tuple[float, str, Any, Any]) -> None:
        nonlocal graph_updates
        _, handle, src, dst = update
        epoch = store.apply_edges(handle, src, dst)
        delta = store.last_delta(handle)
        if delta is None:
            cache.invalidate_graph(handle, keep_epoch=epoch)
        else:
            # Selective invalidation: provably-unaffected entries are
            # re-keyed to the new epoch and keep hitting.
            cache.apply_delta(
                handle, delta,
                new_epoch=epoch,
                new_fingerprint=store.fingerprint(handle),
            )
        registry.count("cluster.graph_updates")
        graph_updates += 1

    def advance(limit: float) -> None:
        """Play, in virtual-time order, every event due before an
        arrival at ``limit``: completions and updates due at ``limit``
        included, flushes due at ``limit`` not.

        Simultaneous events follow :func:`event_order`: completions,
        then updates, then flushes (the pinned tie-break contract).
        """
        nonlocal update_ptr
        stop = event_order(limit, EVENT_FLUSH)
        while True:
            candidates: list[tuple[float, int]] = []
            if pipelined:
                due = [
                    t for t in (p.next_event_time() for p in pipes)
                    if t is not None
                ]
                if due:
                    candidates.append(
                        event_order(min(due), EVENT_COMPLETION)
                    )
            elif completions:
                candidates.append(
                    event_order(completions[0][0], EVENT_COMPLETION)
                )
            if update_ptr < len(pending_updates):
                candidates.append(event_order(
                    float(pending_updates[update_ptr][0]), EVENT_UPDATE
                ))
            if forming:
                flush = min(forming, key=_flush_rank)
                candidates.append(
                    event_order(flush.close_time, EVENT_FLUSH)
                )
            if not candidates:
                return
            when, kind = min(candidates)
            if (when, kind) >= stop:
                return
            if kind == EVENT_COMPLETION:
                if pipelined:
                    for replica, pipe in enumerate(pipes):
                        next_time = pipe.next_event_time()
                        if next_time is None or next_time > when:
                            continue
                        for local, finish in pipe.advance_to(when):
                            done = pipeline_pending.pop((replica, local))
                            done.finish = finish
                            complete(done)
                else:
                    _, _, done = heapq.heappop(completions)
                    complete(done)
            elif kind == EVENT_UPDATE:
                apply_stream_update(pending_updates[update_ptr])
                update_ptr += 1
            else:
                forming.remove(flush)
                if open_batches.get((flush.replica, flush.key)) is flush:
                    del open_batches[(flush.replica, flush.key)]
                dispatch(flush, ready=flush.close_time)

    order = np.argsort(arrivals, kind="stable")
    with registry.span(
        "cluster.run", replicas=num_replicas, routing=routing,
        queries=len(requests),
    ) as run_span:
        for i in order.tolist():
            t = float(arrivals[i])
            request = requests[i]
            client = clients[i] if clients is not None else "default"
            advance(t)
            registry.count("cluster.requests")
            decision = controller.check(t, total_outstanding, client)
            if decision is AdmissionDecision.THROTTLED:
                responses[i] = QueryResponse(
                    request_id=i,
                    app=request.app,
                    status=QueryStatus.SHED,
                    error=(
                        f"client class {client!r} over its token-bucket "
                        "rate limit"
                    ),
                    error_type=ThrottledError.__name__,
                )
                continue
            if decision is AdmissionDecision.OVERLOADED:
                responses[i] = QueryResponse(
                    request_id=i,
                    app=request.app,
                    status=QueryStatus.SHED,
                    error=(
                        "cluster over its adaptive concurrency limit "
                        f"({controller.concurrency_limit})"
                    ),
                    error_type=AdmissionError.__name__,
                )
                continue
            hit = cache.get(store.key_for(request))
            if hit is not None:
                controller.on_success()
                responses[i] = QueryResponse(
                    request_id=i,
                    app=request.app,
                    status=QueryStatus.OK,
                    result=hit,
                    latency_seconds=0.0,
                    extras={"cached": 1.0},
                )
                continue
            replica = router.route(request, outstanding)
            registry.count("cluster.routed")
            _replica_of[i] = replica
            outstanding[replica] += 1
            total_outstanding += 1
            deadline = (
                t + request.deadline_seconds
                if request.deadline_seconds is not None else None
            )
            member = _Member(
                index=i, request=request, arrival=t, deadline=deadline
            )
            # advance(t) flushed every window that closed before t, so
            # an open batch still admits this arrival.
            open_key = (replica, batch_key(request))
            batch = open_batches.get(open_key)
            if batch is None:
                batch = _OpenBatch(
                    replica=replica,
                    key=open_key[1],
                    open_time=t,
                    close_time=t + batch_window,
                    members=[],
                )
                open_batches[open_key] = batch
                forming.append(batch)
            batch.members.append(member)
            if len(batch.members) == max_batch_size:
                # Full before its window elapsed (at once, with cap 1):
                # ready at this arrival, exactly like MicroBatcher.
                batch.close_time = t
                del open_batches[open_key]
        advance(float("inf"))
        run_span.set("batches", len(batch_sizes))
        run_span.set("cache_hits", cache.hits)
        run_span.set("sim_seconds_total", sim_total)
        if pipelined:
            run_span.set(
                "pipeline_busy_seconds",
                _busy_total(pipes, sim_total),
            )

    ordered = [responses[i] for i in range(len(requests))]
    makespan = max(
        (r.latency_seconds + float(arrivals[i])
         for i, r in enumerate(ordered)),
        default=0.0,
    )
    counts: dict[str, int] = {}
    for response in ordered:
        counts[response.status.value] = counts.get(
            response.status.value, 0
        ) + 1
    p50, p95, p99 = _percentiles(ordered)
    report = ClusterBenchReport(
        num_queries=len(requests),
        num_replicas=num_replicas,
        routing=routing,
        num_batches=len(batch_sizes),
        batch_occupancy_mean=(
            float(np.mean(batch_sizes)) if batch_sizes else 0.0
        ),
        makespan_seconds=makespan,
        sim_seconds_total=sim_total,
        per_replica_sim_seconds=per_replica_sim,
        single_broker_seconds=float(single_broker_seconds),
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        throttled=controller.throttled,
        shed=controller.overloaded,
        graph_updates=graph_updates,
        throttle_level=controller.throttle_level,
        concurrency_limit=controller.concurrency_limit,
        latency_p50=p50,
        latency_p95=p95,
        latency_p99=p99,
        status_counts=counts,
        pipeline_enabled=pipelined,
        pipeline_busy_seconds=(
            _busy_total(pipes, sim_total) if pipelined else 0.0
        ),
        pipeline_overlap_saved_seconds=(
            sum(p.device.overlap_saved_seconds for p in pipes)
            if pipelined else 0.0
        ),
        pipeline_inflight_peak=(
            max((p.inflight_peak for p in pipes), default=0)
            if pipelined else 0
        ),
    )
    if metrics is not None:
        publish_cluster_gauges(metrics, report)
    return ordered, report


# ----------------------------------------------------------------------
# Threaded replica pool
# ----------------------------------------------------------------------


class ClusterPool:
    """N broker replicas behind routing, admission and a shared cache.

    Construct via :func:`repro.api.cluster`.  ``submit`` never blocks on
    execution: a query is either shed with a structured response
    (throttled / over the adaptive concurrency limit), answered straight
    from the versioned cache, or routed to a replica broker whose
    :class:`~repro.serve.broker.PendingQuery` is returned as-is.  Graph
    updates applied through a registered
    :class:`~repro.graph.dynamic.DynamicGraph` propagate to every
    replica and invalidate the cache atomically with the epoch bump.
    """

    _guarded_by = {
        "_outstanding": "_lock",
        "_per_replica": "_lock",
        "graph_updates": "_lock",
    }

    def __init__(
        self,
        graphs: Mapping[str, CSRGraph | DynamicGraph] | GraphStore,
        scheduler_factory: Callable[[], Scheduler],
        *,
        num_replicas: int = 2,
        routing: str = "least_outstanding",
        batch_window: float = 0.01,
        max_batch_size: int = 64,
        num_workers: int = 2,
        queue_capacity: int = 256,
        num_gpus: int = 1,
        max_retries: int = 1,
        cache_capacity: int = 1024,
        admission: AdmissionConfig | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
        race_check: bool = False,
    ) -> None:
        if num_replicas < 1:
            raise InvalidParameterError("num_replicas must be >= 1")
        self.num_replicas = int(num_replicas)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        # Activate before any lock, cache or replica exists so the whole
        # pool lifetime is tracked; join an already-active detector
        # rather than owning a second one.
        self.race_detector: RaceDetector | None = None
        self._owns_race_detector = False
        if race_check:
            self.race_detector = races.active_detector()
            if self.race_detector is None:
                self.race_detector = RaceDetector(metrics=self.metrics)
                races.activate(self.race_detector)
                self._owns_race_detector = True
        self.store = (
            graphs if isinstance(graphs, GraphStore) else GraphStore(graphs)
        )
        self.cache = ResultCache(cache_capacity, metrics=self.metrics)
        self.admission = AdmissionController(admission, metrics=self.metrics)
        self.router = Router(routing, num_replicas)
        self.routing = routing
        self._clock = clock
        self._lock = races.make_lock("cluster.lock")
        self._outstanding = 0
        self._per_replica = [0] * num_replicas
        self._local_ids = itertools.count()
        self.graph_updates = 0
        snapshot = self.store.snapshot()
        self.replicas = [
            QueryBroker(
                snapshot,
                scheduler_factory,
                batch_window=batch_window,
                max_batch_size=max_batch_size,
                num_workers=num_workers,
                queue_capacity=queue_capacity,
                num_gpus=num_gpus,
                max_retries=max_retries,
                metrics=self.metrics,
                clock=clock,
            )
            for _ in range(num_replicas)
        ]
        self.store.subscribe(self._on_graph_update)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def submit(
        self, request: QueryRequest, *, client: str = "default"
    ) -> PendingQuery:
        """Admit, answer from cache, or route one query."""
        self.metrics.count("cluster.requests")
        now = self._clock()
        with self._lock:
            races.note_read(self, "_outstanding")
            decision = self.admission.check(now, self._outstanding, client)
        if decision is AdmissionDecision.THROTTLED:
            return self._resolved_shed(
                request,
                f"client class {client!r} over its token-bucket rate limit",
                ThrottledError.__name__,
            )
        if decision is AdmissionDecision.OVERLOADED:
            return self._resolved_shed(
                request,
                "cluster over its adaptive concurrency limit "
                f"({self.admission.concurrency_limit})",
                AdmissionError.__name__,
            )
        key = self.store.key_for(request)
        hit = self.cache.get(key)
        if hit is not None:
            self.admission.on_success()
            pending = PendingQuery(next(self._local_ids), request)
            pending._resolve(QueryResponse(
                request_id=pending.request_id,
                app=request.app,
                status=QueryStatus.OK,
                result=hit,
                latency_seconds=0.0,
                extras={"cached": 1.0},
            ))
            return pending
        with self._lock:
            races.note_write(self, "_outstanding")
            races.note_write(self, "_per_replica")
            replica = self.router.route(request, self._per_replica)
            self._outstanding += 1
            self._per_replica[replica] += 1
        self.metrics.count("cluster.routed")
        pending = self.replicas[replica].submit(request)
        pending.add_done_callback(
            lambda response: self._on_done(replica, key, request, response)
        )
        return pending

    def submit_many(
        self, requests: list[QueryRequest], *, client: str = "default"
    ) -> list[PendingQuery]:
        return [self.submit(request, client=client) for request in requests]

    def _resolved_shed(
        self, request: QueryRequest, detail: str, error_type: str
    ) -> PendingQuery:
        pending = PendingQuery(next(self._local_ids), request)
        pending._resolve(QueryResponse(
            request_id=pending.request_id,
            app=request.app,
            status=QueryStatus.SHED,
            error=detail,
            error_type=error_type,
        ))
        return pending

    # ------------------------------------------------------------------
    # Feedback path
    # ------------------------------------------------------------------

    def _on_done(
        self,
        replica: int,
        key: CacheKey,
        request: QueryRequest,
        response: QueryResponse,
    ) -> None:
        with self._lock:
            races.note_write(self, "_outstanding")
            races.note_write(self, "_per_replica")
            self._outstanding -= 1
            self._per_replica[replica] -= 1
        if response.status is QueryStatus.OK:
            # Fill only when no graph update raced this flight: a result
            # computed on an ambiguous snapshot must not enter the cache.
            if (
                response.result is not None
                and self.store.key_for(request) == key
            ):
                self.cache.put(key, response.result)
            self.admission.on_success()
        elif response.status in (QueryStatus.TIMEOUT, QueryStatus.SHED):
            self.admission.on_overload()
        # ERROR is a worker fault, not a load signal: no feedback.

    def _on_graph_update(
        self, handle: str, csr: CSRGraph, epoch: int, delta: GraphDelta
    ) -> None:
        # Replica-local CSR patching: each broker applies the structured
        # delta to its own copy (bit-identical to the store's new CSR)
        # instead of receiving a full snapshot swap.
        for broker in self.replicas:
            broker.patch_graph(handle, delta, csr)
        self.cache.apply_delta(
            handle, delta,
            new_epoch=epoch,
            new_fingerprint=self.store.fingerprint(handle),
        )
        self.metrics.count("cluster.graph_updates")
        with self._lock:
            races.note_write(self, "graph_updates")
            self.graph_updates += 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        for broker in self.replicas:
            broker.close(drain=drain)
        self.metrics.set_gauge(
            "cluster.cache_hit_ratio", self.cache.hit_ratio
        )
        self.metrics.set_gauge(
            "cluster.throttle_level", self.admission.throttle_level
        )
        self.metrics.set_gauge(
            "cluster.concurrency_limit",
            float(self.admission.concurrency_limit),
        )
        if self._owns_race_detector:
            self._owns_race_detector = False
            races.deactivate()
            assert self.race_detector is not None
            self.race_detector.finalize()

    def __enter__(self) -> "ClusterPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close(drain=True)
