"""Micro-batching: coalesce compatible queries into one batched kernel.

Two queries are *compatible* when they target the same graph with the
same application and parameters (:func:`batch_key`) — exactly the
condition under which the MS-BFS-style batched executor answers them
with one traversal.  :class:`MicroBatcher` is pure and deterministic: it
maps a list of timestamped arrivals to a list of :class:`Batch` objects
without touching a clock.  It is the policy's reference: the threaded
broker (:mod:`repro.serve.broker`) and the virtual-time simulator
(:func:`~repro.serve.cluster.simulate_cluster_open_loop`) each apply
the window incrementally, and a hypothesis property checks that the
simulator forms exactly the batches :meth:`MicroBatcher.form_batches`
forms.

Policy (per compatibility key, arrivals in time order): the first
pending query *opens* a batch at its arrival time; queries arriving
within ``window_seconds`` of the open join it, up to
``max_batch_size``; the batch becomes *ready* when the window elapses or
the batch fills, whichever is first.  A later arrival then opens the
next batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import InvalidParameterError
from repro.serve.request import QueryRequest

#: A compatibility key: (graph handle, app kind, normalized params).
BatchKey = tuple[str, str, tuple[tuple[str, Any], ...]]


def batch_key(request: QueryRequest) -> BatchKey:
    """Queries coalesce iff they share this key (source excluded)."""
    return (request.graph, request.app, request.params)


@dataclass(frozen=True)
class BatchItem:
    """One admitted query, tagged with its arrival time and identity."""

    index: int
    arrival: float
    request: QueryRequest


@dataclass
class Batch:
    """A group of compatible queries dispatched as one batched run."""

    batch_id: int
    key: BatchKey
    items: list[BatchItem]
    open_time: float
    ready_time: float

    @property
    def size(self) -> int:
        return len(self.items)

    @property
    def requests(self) -> list[QueryRequest]:
        return [item.request for item in self.items]


class MicroBatcher:
    """Deterministic batching policy over timestamped arrivals."""

    def __init__(self, window_seconds: float, max_batch_size: int) -> None:
        if window_seconds < 0:
            raise InvalidParameterError("window_seconds must be >= 0")
        if max_batch_size < 1:
            raise InvalidParameterError("max_batch_size must be >= 1")
        self.window_seconds = float(window_seconds)
        self.max_batch_size = int(max_batch_size)

    def form_batches(
        self, arrivals: list[tuple[float, QueryRequest]]
    ) -> list[Batch]:
        """Batch the full arrival sequence (offline / virtual-time mode).

        Batch ids are assigned in dispatch order — sorted by
        ``(ready_time, open_time, key)`` — so equal traffic always
        produces the same batch identities regardless of the dict-group
        iteration order.
        """
        items = [
            BatchItem(index=i, arrival=float(t), request=req)
            for i, (t, req) in enumerate(arrivals)
        ]
        by_key: dict[BatchKey, list[BatchItem]] = {}
        for item in sorted(items, key=lambda it: (it.arrival, it.index)):
            by_key.setdefault(batch_key(item.request), []).append(item)

        batches: list[Batch] = []
        for key, group in by_key.items():
            start = 0
            while start < len(group):
                opener = group[start]
                close = opener.arrival + self.window_seconds
                end = start + 1
                while (
                    end < len(group)
                    and end - start < self.max_batch_size
                    and group[end].arrival <= close
                ):
                    end += 1
                members = group[start:end]
                if len(members) == self.max_batch_size:
                    # Filled before the window elapsed: dispatch at the
                    # filling member's arrival instead of waiting it out.
                    ready = min(close, members[-1].arrival)
                else:
                    ready = close
                batches.append(
                    Batch(
                        batch_id=-1,
                        key=key,
                        items=members,
                        open_time=opener.arrival,
                        ready_time=ready,
                    )
                )
                start = end

        batches.sort(key=lambda b: (b.ready_time, b.open_time, repr(b.key)))
        for bid, batch in enumerate(batches):
            batch.batch_id = bid
        return batches

