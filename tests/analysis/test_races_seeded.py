"""Seeded provocation tests for the concurrency sanitizer.

Each ``RACE00x`` code is *provoked* deterministically: a tiny thread
program runs under the CHESS-style cooperative scheduler with a pinned
seed, and the detector must report exactly the expected finding set —
same seed, same findings, every run.  The flip side is pinned too: the
instrumented serving stack (broker, cluster, cache, admission) must
come out clean, and stay bit-identical to the oracle under adversarial
yield-fuzzed schedules.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.analysis.races import (
    RACE_CODES,
    CooperativeScheduler,
    DeadlockError,
    RaceDetector,
    RaceError,
    UnsupportedScheduleOp,
    YieldFuzzer,
    explore,
    instrument,
    instrumented,
    run_schedule,
)
from repro.analysis.races.clocks import VectorClock

pytestmark = pytest.mark.races


class _Shared:
    """A bare attribute holder the fixtures race on."""

    def __init__(self) -> None:
        self.value = 0


def _finding_set(detector: RaceDetector) -> set[tuple[str, str]]:
    return {(f.code, f.subject) for f in detector.findings}


# ---------------------------------------------------------------------
# RACE001 — write/write race
# ---------------------------------------------------------------------


def _race001_round(seed: int) -> RaceDetector:
    shared = _Shared()

    def writer() -> None:
        instrument.note_write(shared, "value")

    with instrumented() as det:
        run_schedule(
            [("w1", writer), ("w2", writer)], seed=seed,
        )
    return det


def test_race001_write_write_provoked() -> None:
    det = _race001_round(seed=1)
    assert [f.code for f in det.findings] == ["RACE001"]
    finding = det.findings[0]
    assert finding.kind == RACE_CODES["RACE001"]
    assert finding.subject == "_Shared.value"
    assert set(finding.threads) == {"w1", "w2"}


def test_race001_same_seed_same_findings() -> None:
    first = _finding_set(_race001_round(seed=1))
    second = _finding_set(_race001_round(seed=1))
    assert first == second == {("RACE001", "_Shared.value")}


def test_race001_metrics_counters() -> None:
    from repro.obs import MetricsRegistry

    shared = _Shared()
    registry = MetricsRegistry()
    det = RaceDetector(metrics=registry)
    with instrumented(det):
        run_schedule(
            [
                ("w1", lambda: instrument.note_write(shared, "value")),
                ("w2", lambda: instrument.note_write(shared, "value")),
            ],
            seed=1,
        )
    assert registry.counters["races.findings"] == 1
    assert registry.counters["races.write_write_race"] == 1
    assert registry.counters["races.threads_tracked"] == 2


def test_guarded_writes_are_clean() -> None:
    shared = _Shared()

    with instrumented() as det:
        lock = instrument.make_lock("fixture.lock")

        def writer() -> None:
            with lock:
                instrument.note_write(shared, "value")

        run_schedule([("w1", writer), ("w2", writer)], seed=1)
    assert det.clean, det.format_summary()


# ---------------------------------------------------------------------
# RACE002 — read/write race
# ---------------------------------------------------------------------


def _race002_round(seed: int) -> RaceDetector:
    shared = _Shared()

    with instrumented() as det:
        lock = instrument.make_lock("fixture.lock")

        def reader() -> None:
            instrument.note_read(shared, "value")

        def writer() -> None:
            # The writer locks but the reader does not: disjoint
            # locksets, no happens-before edge -> RACE002.
            with lock:
                instrument.note_write(shared, "value")

        run_schedule([("reader", reader), ("writer", writer)], seed=2)
    return det


def test_race002_read_write_provoked() -> None:
    det = _race002_round(seed=2)
    assert [f.code for f in det.findings] == ["RACE002"]
    finding = det.findings[0]
    assert finding.kind == RACE_CODES["RACE002"]
    assert finding.subject == "_Shared.value"


def test_race002_same_seed_same_findings() -> None:
    assert _finding_set(_race002_round(2)) == _finding_set(
        _race002_round(2)
    )


def test_event_publication_is_clean() -> None:
    """set() -> wait() orders a lock-free read after the write."""
    shared = _Shared()

    with instrumented() as det:
        event = instrument.make_event("fixture.event")

        def writer() -> None:
            instrument.note_write(shared, "value")
            event.set()

        def reader() -> None:
            assert event.wait(timeout=5.0)
            instrument.note_read(shared, "value")

        run_schedule([("writer", writer), ("reader", reader)], seed=3)
    assert det.clean, det.format_summary()


def test_queue_handoff_is_clean() -> None:
    """put() -> get() carries the producer's clock to the consumer."""
    shared = _Shared()

    with instrumented() as det:
        channel = instrument.make_queue("fixture.queue")

        def producer() -> None:
            instrument.note_write(shared, "value")
            channel.put(1)

        def consumer() -> None:
            channel.get(timeout=5.0)
            instrument.note_write(shared, "value")

        run_schedule(
            [("producer", producer), ("consumer", consumer)], seed=4
        )
    assert det.clean, det.format_summary()


# ---------------------------------------------------------------------
# RACE003 — lock-order inversion
# ---------------------------------------------------------------------


def _race003_round(seed: int) -> RaceDetector:
    with instrumented() as det:
        first = instrument.make_lock("fixture.a")
        second = instrument.make_lock("fixture.b")

        def forward() -> None:
            with first:
                with second:
                    pass

        def backward() -> None:
            with second:
                with first:
                    pass

        # Serial schedule (no preemptions): each order is observed in
        # full without ever deadlocking, and the name-keyed order graph
        # still closes the a->b->a cycle.
        run_schedule(
            [("forward", forward), ("backward", backward)],
            seed=seed,
            max_preemptions=0,
        )
    return det


def test_race003_lock_order_inversion_provoked() -> None:
    det = _race003_round(seed=5)
    codes = [f.code for f in det.findings]
    assert codes == ["RACE003"]
    finding = det.findings[0]
    assert finding.kind == RACE_CODES["RACE003"]
    assert "fixture.a" in finding.subject
    assert "fixture.b" in finding.subject


def test_race003_schedule_independent() -> None:
    """The inversion is found under every seed: the order graph is
    keyed by lock name, not by when the schedule interleaves."""
    for seed in (5, 6, 7):
        det = _race003_round(seed=seed)
        assert {f.code for f in det.findings} == {"RACE003"}


def test_nested_same_order_is_clean() -> None:
    with instrumented() as det:
        first = instrument.make_lock("fixture.a")
        second = instrument.make_lock("fixture.b")

        def body() -> None:
            with first:
                with second:
                    pass

        run_schedule([("t1", body), ("t2", body)], seed=5)
    assert det.clean, det.format_summary()


# ---------------------------------------------------------------------
# RACE004 — blocking while holding a lock
# ---------------------------------------------------------------------


def _race004_round(seed: int) -> RaceDetector:
    with instrumented() as det:
        lock = instrument.make_lock("fixture.lock")
        never = instrument.make_event("fixture.never")

        def sleeper() -> None:
            with lock:
                # Timed wait on an event nobody sets: the cooperative
                # scheduler resolves the timeout virtually, and the
                # blocking call under a held lock is the finding.
                never.wait(timeout=0.01)

        run_schedule([("sleeper", sleeper)], seed=seed)
    return det


def test_race004_blocking_while_holding_provoked() -> None:
    det = _race004_round(seed=8)
    assert [f.code for f in det.findings] == ["RACE004"]
    finding = det.findings[0]
    assert finding.kind == RACE_CODES["RACE004"]
    assert "fixture.never" in finding.subject
    assert finding.details["held"] == ["fixture.lock"]


def test_race004_same_seed_same_findings() -> None:
    assert _finding_set(_race004_round(8)) == _finding_set(
        _race004_round(8)
    )


def test_wait_without_lock_is_clean() -> None:
    with instrumented() as det:
        never = instrument.make_event("fixture.never")

        def sleeper() -> None:
            never.wait(timeout=0.01)

        run_schedule([("sleeper", sleeper)], seed=8)
    assert det.clean, det.format_summary()


# ---------------------------------------------------------------------
# RACE005 — unjoined thread
# ---------------------------------------------------------------------


def test_race005_unjoined_thread_provoked() -> None:
    done = threading.Event()
    det = RaceDetector()
    instrument.activate(det)
    try:
        orphan = instrument.spawn_thread(done.set, name="orphan")
        orphan.start()
        assert done.wait(timeout=5.0)
    finally:
        instrument.deactivate()
    # Wait for run() to fully exit so the finding is deterministic,
    # but never call join() — that is the bug under test.
    while orphan.is_alive():
        pass
    det.finalize()
    assert [f.code for f in det.findings] == ["RACE005"]
    finding = det.findings[0]
    assert finding.kind == RACE_CODES["RACE005"]
    assert finding.subject == "orphan"


def test_joined_thread_is_clean() -> None:
    with instrumented() as det:
        worker = instrument.spawn_thread(lambda: None, name="worker")
        worker.start()
        worker.join()
    assert det.clean, det.format_summary()


def test_join_transfers_the_final_clock() -> None:
    """Writes before body end happen-before reads after join()."""
    shared = _Shared()
    with instrumented() as det:
        worker = instrument.spawn_thread(
            lambda: instrument.note_write(shared, "value"), name="worker"
        )
        worker.start()
        worker.join()
        instrument.note_read(shared, "value")
    assert det.clean, det.format_summary()


# ---------------------------------------------------------------------
# Schedule explorer semantics
# ---------------------------------------------------------------------


def test_explore_replays_derived_seeds() -> None:
    rounds: list[int] = []

    def build():
        shared = _Shared()
        rounds.append(len(rounds))

        def writer() -> None:
            instrument.note_write(shared, "value")

        return [("w1", writer), ("w2", writer)]

    with instrumented() as det:
        seeds = explore(build, schedules=4, seed=9)
    assert seeds == [90_000, 90_001, 90_002, 90_003]
    assert len(rounds) == 4
    # Every schedule of the unguarded pair races; dedup is per (code,
    # subject, threads), so one finding survives across replays.
    assert {f.code for f in det.findings} == {"RACE001"}


def test_cooperative_deadlock_is_detected() -> None:
    with instrumented() as det:
        first = instrument.make_lock("dead.a")
        second = instrument.make_lock("dead.b")
        gate_a = instrument.make_event("dead.gate_a")
        gate_b = instrument.make_event("dead.gate_b")

        def forward() -> None:
            with first:
                gate_a.set()
                gate_b.wait()
                with second:
                    pass

        def backward() -> None:
            gate_a.wait()
            with second:
                gate_b.set()
                with first:
                    pass

        with pytest.raises(DeadlockError) as excinfo:
            # The gates force: forward holds a, backward holds b, each
            # then blocks on the other's lock with nothing timed —
            # under every seed.
            run_schedule(
                [("forward", forward), ("backward", backward)],
                seed=0,
                max_preemptions=0,
            )
        assert "deadlocked" in str(excinfo.value)
        assert "forward" in str(excinfo.value)
        assert "backward" in str(excinfo.value)
    # The blocked acquires abort before they ever register, so the
    # RACE003 cycle never closes — but forward's untimed event wait
    # under a held lock is reported on the way down.
    assert {f.code for f in det.findings} == {"RACE004"}


def test_cooperative_rejects_condition_variables() -> None:
    scheduler = CooperativeScheduler(seed=0)
    with pytest.raises(UnsupportedScheduleOp):
        scheduler.condition_wait(
            threading.Condition(), key=1, timeout=None
        )


def test_timed_queue_get_resolves_virtually() -> None:
    """A timed get on an empty queue times out without real waiting."""
    outcome: list[str] = []

    def consumer() -> None:
        import queue as queue_mod

        channel = instrument.make_queue("fixture.queue")
        try:
            channel.get(timeout=30.0)
        except queue_mod.Empty:
            outcome.append("empty")

    run_schedule([("consumer", consumer)], seed=0)
    assert outcome == ["empty"]


def test_preemption_budget_is_bounded() -> None:
    scheduler = run_schedule(
        [
            ("t1", lambda: instrument.schedule_point("a")),
            ("t2", lambda: instrument.schedule_point("b")),
        ],
        seed=11,
        max_preemptions=1,
        preempt_probability=1.0,
    )
    assert scheduler._preemptions_left >= 0


# ---------------------------------------------------------------------
# Detector unit behaviour
# ---------------------------------------------------------------------


def test_fail_fast_raises_on_first_finding() -> None:
    det = RaceDetector(fail_fast=True)
    instrument.activate(det)
    try:
        orphan = instrument.spawn_thread(lambda: None, name="orphan")
        orphan.start()
        while orphan.is_alive():
            pass
    finally:
        instrument.deactivate()
    with pytest.raises(RaceError):
        det.finalize()


def test_max_findings_bounds_recording() -> None:
    det = RaceDetector(max_findings=1)
    instrument.activate(det)
    try:
        shared = _Shared()

        def writer() -> None:
            # Two distinct subjects (findings dedup by attribute, not
            # instance): both race, only one is recorded.
            instrument.note_write(shared, "value")
            instrument.note_write(shared, "other")

        run_schedule([("w1", writer), ("w2", writer)], seed=1)
    finally:
        instrument.deactivate()
    det.finalize()
    assert det.total_findings == 2
    assert len(det.findings) == 1


def test_report_and_json_round_trip(tmp_path) -> None:
    det = _race001_round(seed=1)
    report = det.report()
    assert report["clean"] is False
    assert report["counts_by_code"] == {"RACE001": 1}
    path = det.write_json(tmp_path / "races.json")
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded == json.loads(json.dumps(report))
    summary = det.format_summary()
    assert summary.startswith("races: FINDINGS")
    assert "RACE001" in summary


def test_finalize_is_idempotent() -> None:
    det = RaceDetector()
    instrument.activate(det)
    try:
        orphan = instrument.spawn_thread(lambda: None, name="orphan")
        orphan.start()
        while orphan.is_alive():
            pass
    finally:
        instrument.deactivate()
    det.finalize()
    det.finalize()
    assert det.total_findings == 1


def test_activate_twice_is_an_error() -> None:
    det = RaceDetector()
    instrument.activate(det)
    try:
        with pytest.raises(RuntimeError):
            instrument.activate(RaceDetector())
    finally:
        instrument.deactivate()


# ---------------------------------------------------------------------
# Instrumentation shim: null-object fast path
# ---------------------------------------------------------------------


def test_factories_return_plain_objects_when_inactive() -> None:
    assert instrument.active_detector() is None
    assert type(instrument.make_lock("x")) is type(threading.Lock())
    assert isinstance(
        instrument.make_event("x"), threading.Event
    )
    thread = instrument.spawn_thread(lambda: None, name="plain")
    assert type(thread) is threading.Thread
    # And the notes are free no-ops.
    instrument.note_read(object(), "attr")
    instrument.note_write(object(), "attr")
    instrument.note_blocking("nothing")
    instrument.schedule_point("nowhere")


def test_factories_return_tracked_objects_when_active() -> None:
    from repro.analysis.races.instrument import (
        TrackedEvent,
        TrackedLock,
        TrackedQueue,
        TrackedThread,
    )

    with instrumented() as det:
        lock = instrument.make_lock("t.lock")
        rlock = instrument.make_rlock("t.rlock")
        cond = instrument.make_condition(rlock, "t.cond")
        event = instrument.make_event("t.event")
        channel = instrument.make_queue("t.queue", maxsize=1)
        thread = instrument.spawn_thread(lambda: None, name="t")
        assert isinstance(lock, TrackedLock)
        assert isinstance(rlock, TrackedLock)
        assert isinstance(event, TrackedEvent)
        assert isinstance(channel, TrackedQueue)
        assert isinstance(thread, TrackedThread)
        assert lock.name == "t.lock"
        # Reentrant acquire books a single detector-level hold.
        with rlock:
            with rlock:
                with cond:
                    cond.notify_all()
        assert not lock.acquire(blocking=False) or lock.release() is None
        assert channel.empty() and not channel.full()
        channel.put(1)
        assert channel.qsize() == 1 and channel.full()
        assert channel.get() == 1
        thread.start()
        thread.join()
    assert det.clean, det.format_summary()
    assert det.locks_tracked >= 2
    assert det.threads_tracked == 1


def test_condition_wait_checks_other_held_locks() -> None:
    """waiting on a condition releases its own lock, but any *other*
    tracked lock held across the wait is RACE004."""
    with instrumented() as det:
        other = instrument.make_lock("held.lock")
        own = instrument.make_rlock("cv.lock")
        cond = instrument.make_condition(own, "cv.cond")

        def waiter() -> None:
            with other:
                with cond:
                    cond.wait(timeout=0.001)

        thread = instrument.spawn_thread(waiter, name="waiter")
        thread.start()
        thread.join()
    codes = {f.code for f in det.findings}
    assert codes == {"RACE004"}
    assert det.findings[0].details["held"] == ["held.lock"]


# ---------------------------------------------------------------------
# Vector clocks
# ---------------------------------------------------------------------


def test_vector_clock_tick_merge_compare() -> None:
    clock = VectorClock()
    assert clock.time_of(1) == 0
    assert clock.tick(1) == 1
    assert clock.tick(1) == 2
    other = VectorClock()
    other.tick(2)
    clock.merge(other)
    assert clock.at_least(2, 1)
    assert not clock.at_least(2, 2)
    snapshot = clock.copy()
    clock.tick(1)
    assert snapshot.time_of(1) == 2
    assert len(snapshot) == 2


# ---------------------------------------------------------------------
# The serving stack is clean (the tentpole's acceptance bar)
# ---------------------------------------------------------------------


@pytest.fixture()
def small_graph():
    from repro.graph import generators

    return generators.rmat(6, edge_factor=6, seed=3)


def test_instrumented_broker_is_clean(small_graph) -> None:
    from repro import api
    from repro.serve import generate_queries

    requests = generate_queries(
        "default", small_graph.num_nodes, 10, seed=1
    )
    with api.serve(
        small_graph, race_check=True, batch_window=0.005, num_workers=2
    ) as broker:
        for pending in [broker.submit(r) for r in requests]:
            pending.result(timeout=30)
    detector = broker.race_detector
    assert detector is not None
    assert detector.clean, detector.format_summary()
    assert detector.threads_tracked == 2
    assert detector.accesses_checked > 0


def test_instrumented_cluster_is_clean(small_graph) -> None:
    from repro import api
    from repro.serve import generate_queries

    requests = generate_queries(
        "default", small_graph.num_nodes, 10, seed=2
    )
    with api.cluster(
        {"default": small_graph}, race_check=True, num_replicas=2
    ) as pool:
        for pending in [pool.submit(r) for r in requests]:
            pending.result(timeout=30)
    detector = pool.race_detector
    assert detector is not None
    assert detector.clean, detector.format_summary()


def test_instrumented_dynamic_updates_are_clean(small_graph) -> None:
    """Concurrent graph swaps against live submits stay race-free."""
    import numpy as np

    from repro import api
    from repro.graph.dynamic import DynamicGraph
    from repro.serve import generate_queries

    dynamic = DynamicGraph(small_graph)
    requests = generate_queries(
        "default", small_graph.num_nodes, 8, seed=3
    )
    with api.cluster(
        {"default": dynamic}, race_check=True, num_replicas=2
    ) as pool:
        pendings = [pool.submit(r) for r in requests[:4]]
        pool.store.apply_edges(
            "default", np.array([0, 1]), np.array([2, 3])
        )
        pendings += [pool.submit(r) for r in requests[4:]]
        for pending in pendings:
            pending.result(timeout=30)
        assert pool.graph_updates == 1
    detector = pool.race_detector
    assert detector is not None
    assert detector.clean, detector.format_summary()


@pytest.mark.parametrize("fuzz_seed", [1, 2, 3])
def test_fuzzed_broker_responses_bit_identical(
    small_graph, fuzz_seed
) -> None:
    """Adversarial yield injection cannot change a single byte."""
    import numpy as np

    from repro import api
    from repro.serve import generate_queries, run_direct

    from tests.serve.conftest import scheduler_factory

    requests = generate_queries(
        "default", small_graph.num_nodes, 8, seed=4
    )
    fuzzer = YieldFuzzer(seed=fuzz_seed, probability=0.5)
    instrument.set_scheduler(fuzzer)
    try:
        with api.serve(
            small_graph, scheduler="sage", batch_window=0.005,
            num_workers=2,
        ) as broker:
            responses = [
                p.result(timeout=30)
                for p in [broker.submit(r) for r in requests]
            ]
    finally:
        instrument.set_scheduler(None)
    for request, response in zip(requests, responses):
        assert response.status.value == "ok"
        oracle = run_direct(small_graph, request, scheduler_factory)
        for key, want in oracle.result.items():
            got = np.asarray(response.result[key])
            assert got.dtype == np.asarray(want).dtype
            assert np.array_equal(got, np.asarray(want))
