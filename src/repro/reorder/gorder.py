"""Gorder: greedy window-locality maximization (Wei et al. [49]).

Gorder places nodes one by one, each time choosing the node with the
highest *GScore* against a sliding window of the ``w`` most recently
placed nodes — GScore counting shared in-neighbors (sibling relations)
plus direct adjacency.  Every placement adds the new window member's
relations to the scores and subtracts those of the member leaving the
window: O(w * |E|) score updates over the whole run.

:func:`gorder_order` keeps the scores of queued, unplaced nodes in one
dense key array and picks each node with a single vectorized
``np.argmax``, so its cost is O(w * |E|) score updates plus one O(|V|)
argmax per placement.  :func:`gorder_order_reference` is the
lazy-deletion max-heap formulation it replaced, kept as the equivalence
oracle; both return the same permutation.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.reorder.base import order_to_perm

DEFAULT_WINDOW = 5


def _relations(graph: CSRGraph, reverse: CSRGraph, u: int) -> np.ndarray:
    """Direct successors, then sibling candidates, of window member u."""
    offsets, targets = graph.offsets, graph.targets
    succ = targets[offsets[u] : offsets[u + 1]]
    # Nodes sharing an in-neighbor with u: successors of u's
    # predecessors, gathered in one pass in predecessor order.  Sampling
    # caps the fan-out on super-hubs.
    preds = reverse.neighbors(u)
    if preds.size > 64:
        preds = preds[:: preds.size // 64 + 1]
    starts = offsets[preds]
    counts = offsets[preds + 1] - starts
    run_offsets = np.cumsum(counts) - counts
    gather = np.repeat(starts - run_offsets, counts) + np.arange(counts.sum())
    siblings = targets[gather]
    if siblings.size > 512:
        siblings = siblings[:: siblings.size // 512 + 1]
    return np.concatenate((succ, siblings))


def gorder_order(graph: CSRGraph, window: int = DEFAULT_WINDOW) -> np.ndarray:
    """Compute the Gorder permutation (``new_id = perm[old_id]``).

    ``key[v]`` is v's GScore while v is queued (its score was raised at
    least once) and unplaced, and negative otherwise.  The first maximum
    ``np.argmax`` returns is the smallest id among the top scores —
    exactly the node a ``(-score, node)`` max-heap pops.  When no node
    is queued the smallest unplaced id is placed, as when the heap
    drains.
    """
    if window < 1:
        raise InvalidParameterError("window must be >= 1")
    n = graph.num_nodes
    if n == 0:
        return order_to_perm(np.empty(0, dtype=np.int64))
    reverse = graph.reversed()

    key = np.full(n, -1, dtype=np.int64)
    placed = np.zeros(n, dtype=bool)
    key[int(np.argmax(graph.out_degrees()))] = 0
    order = np.empty(n, dtype=np.int64)
    # Relation arrays of the window members, oldest first: a member
    # leaving the window subtracts the array it added.
    recent: deque[np.ndarray] = deque()
    next_unplaced = 0

    for position in range(n):
        u = int(np.argmax(key))
        if key[u] < 0:
            # Nothing queued (isolated remainder): smallest unplaced id.
            while placed[next_unplaced]:
                next_unplaced += 1
            u = next_unplaced
        placed[u] = True
        key[u] = -1
        order[position] = u

        rel = _relations(graph, reverse, u)
        rel = rel[~placed[rel]]
        # First raise queues the node: its key leaves -1 for 0.
        np.maximum.at(key, rel, 0)
        np.add.at(key, rel, 1)
        recent.append(rel)
        if len(recent) > window:
            # Nodes placed since the matching raise only sink further
            # below 0, where argmax never picks them.
            np.add.at(key, recent.popleft(), -1)

    return order_to_perm(order)


def gorder_order_reference(graph: CSRGraph, window: int = DEFAULT_WINDOW) -> np.ndarray:
    """Lazy-deletion max-heap Gorder; the oracle for :func:`gorder_order`."""
    if window < 1:
        raise InvalidParameterError("window must be >= 1")
    n = graph.num_nodes
    reverse = graph.reversed()

    score = np.zeros(n, dtype=np.int64)
    placed = np.zeros(n, dtype=bool)
    # Lazy max-heap of (-score snapshot, node); stale entries skipped.
    heap: list[tuple[int, int]] = []
    degrees = graph.out_degrees()
    start = int(np.argmax(degrees)) if n else 0
    heap.append((0, start))

    order = np.empty(n, dtype=np.int64)
    recent: list[int] = []

    def bump(nodes: np.ndarray, amount: int) -> None:
        """Adjust scores of ``nodes`` and (re-)queue increased ones."""
        if nodes.size == 0:
            return
        np.add.at(score, nodes, amount)
        if amount > 0:
            for v in nodes.tolist():
                if not placed[v]:
                    heapq.heappush(heap, (-int(score[v]), v))

    def relations(u: int) -> tuple[np.ndarray, np.ndarray]:
        """(direct successors, sibling candidates) of window member u."""
        succ = graph.neighbors(u)
        # Nodes sharing an in-neighbor with u: successors of u's
        # predecessors.  Sampling caps the fan-out on super-hubs.
        preds = reverse.neighbors(u)
        if preds.size > 64:
            preds = preds[:: preds.size // 64 + 1]
        sib_chunks = [graph.neighbors(int(p)) for p in preds.tolist()]
        siblings = (
            np.concatenate(sib_chunks) if sib_chunks
            else np.empty(0, dtype=np.int64)
        )
        if siblings.size > 512:
            siblings = siblings[:: siblings.size // 512 + 1]
        return succ, siblings

    for position in range(n):
        u = -1
        while heap:
            neg_s, cand = heapq.heappop(heap)
            if placed[cand]:
                continue
            if -neg_s != score[cand]:
                heapq.heappush(heap, (-int(score[cand]), cand))
                continue
            u = cand
            break
        if u < 0:
            # Heap drained (isolated remainder): place any unplaced node.
            u = int(np.flatnonzero(~placed)[0])
        placed[u] = True
        order[position] = u

        succ, sib = relations(u)
        bump(succ, 1)
        bump(sib, 1)
        recent.append(u)
        if len(recent) > window:
            old = recent.pop(0)
            old_succ, old_sib = relations(old)
            bump(old_succ, -1)
            bump(old_sib, -1)

    return order_to_perm(order)
