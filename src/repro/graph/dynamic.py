"""Dynamic graph updates: batched insertion/deletion without full rebuilds.

The paper argues SAGE applies directly to dynamic graphs because only
the CSR must be maintained (Sections 1, 7.2).  ``CSRGraph`` itself is
immutable; this module provides the maintenance layer a streaming
deployment needs:

* :class:`DynamicGraph` — buffers edge insertions/deletions and merges
  them into the CSR with a sorted-merge (O(|E| + |batch| log |batch|)
  per merge, not a from-scratch re-sort), amortized by a configurable
  batch threshold.
* update listeners — every merge fires listeners with ``(new_csr,
  delta)`` where the :class:`~repro.graph.delta.GraphDelta` describes
  exactly which edge instances changed; incremental algorithms repair
  from it and the serving cache invalidates selectively.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.errors import GraphFormatError, InvalidParameterError
from repro.graph.coo import EDGE_DTYPE
from repro.graph.csr import CSRGraph
from repro.graph.delta import GraphDelta, apply_edge_updates

#: The delta-aware listener contract fired after every merge.
UpdateListener = Callable[[CSRGraph, GraphDelta], None]


class DynamicGraph:
    """A CSR graph under streaming edge updates.

    Insertions and deletions accumulate in buffers; :attr:`graph` always
    reflects every applied update (pending ones are merged on access via
    :meth:`flush`, or automatically when a buffer passes
    ``auto_flush_threshold``).
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        auto_flush_threshold: int = 10_000,
    ) -> None:
        if auto_flush_threshold < 1:
            raise InvalidParameterError("auto_flush_threshold must be >= 1")
        self._graph = graph
        self.auto_flush_threshold = auto_flush_threshold
        self._pending_src: list[np.ndarray] = []
        self._pending_dst: list[np.ndarray] = []
        self._pending_del_src: list[np.ndarray] = []
        self._pending_del_dst: list[np.ndarray] = []
        self._pending_count = 0
        self._listeners: list[UpdateListener] = []
        self._last_delta: GraphDelta | None = None
        self.merges = 0
        self.edges_inserted = 0
        self.edges_deleted = 0

    # ------------------------------------------------------------------
    # Update API
    # ------------------------------------------------------------------

    def insert_edges(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Queue a batch of edge insertions."""
        src, dst = self._check(src, dst)
        self._pending_src.append(src)
        self._pending_dst.append(dst)
        self._pending_count += src.size
        self.edges_inserted += int(src.size)
        self._maybe_flush()

    def delete_edges(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Queue a batch of edge deletions (all copies of each pair).

        Within one flush, a deletion wins over an insertion of the same
        pair regardless of call order — buffered updates are a set of
        intents, not a time-ordered log.
        """
        src, dst = self._check(src, dst)
        self._pending_del_src.append(src)
        self._pending_del_dst.append(dst)
        self._pending_count += src.size
        self._maybe_flush()

    def add_listener(self, callback: UpdateListener) -> None:
        """Register a callback fired with ``(new_csr, delta)`` per merge.

        The SAGE engine registers its resident-tile invalidation here;
        the serving :class:`~repro.serve.cache.GraphStore` fans the
        delta out to replicas and the cache.
        """
        self._listeners.append(callback)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def graph(self) -> CSRGraph:
        """The current CSR (flushes pending updates first)."""
        if self._pending_count:
            self.flush()
        return self._graph

    @property
    def pending_updates(self) -> int:
        return self._pending_count

    @property
    def epoch(self) -> int:
        """The merge counter — the epoch stamped into produced deltas."""
        return self.merges

    @property
    def last_delta(self) -> GraphDelta | None:
        """The delta of the most recent merge (``None`` before any)."""
        return self._last_delta

    def flush(self) -> CSRGraph:
        """Merge all pending updates into the CSR."""
        if not self._pending_count:
            return self._graph
        graph = self._graph
        empty = np.empty(0, dtype=EDGE_DTYPE)
        add_src = (
            np.concatenate(self._pending_src) if self._pending_src else empty
        )
        add_dst = (
            np.concatenate(self._pending_dst) if self._pending_dst else empty
        )
        del_src = (
            np.concatenate(self._pending_del_src)
            if self._pending_del_src else empty
        )
        del_dst = (
            np.concatenate(self._pending_del_dst)
            if self._pending_del_dst else empty
        )
        new_graph, ins_src, ins_dst, rem_src, rem_dst = apply_edge_updates(
            graph, add_src, add_dst, del_src, del_dst
        )
        delta = GraphDelta(
            num_nodes=graph.num_nodes,
            old_epoch=self.merges,
            new_epoch=self.merges + 1,
            inserted_src=ins_src,
            inserted_dst=ins_dst,
            deleted_src=rem_src,
            deleted_dst=rem_dst,
        )
        self._graph = new_graph
        self.edges_deleted += delta.num_deleted

        self._pending_src.clear()
        self._pending_dst.clear()
        self._pending_del_src.clear()
        self._pending_del_dst.clear()
        self._pending_count = 0
        self.merges += 1
        self._last_delta = delta
        for listener in self._listeners:
            listener(self._graph, delta)
        return self._graph

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _check(
        self, src: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        src = np.asarray(src, dtype=EDGE_DTYPE)
        dst = np.asarray(dst, dtype=EDGE_DTYPE)
        if src.shape != dst.shape or src.ndim != 1:
            raise GraphFormatError("update arrays must be matching 1-D")
        n = self._graph.num_nodes
        if src.size and not (
            0 <= src.min() and src.max() < n
            and 0 <= dst.min() and dst.max() < n
        ):
            raise GraphFormatError("update endpoint out of range")
        return src, dst

    def _maybe_flush(self) -> None:
        if self._pending_count >= self.auto_flush_threshold:
            self.flush()
