"""Single-Source Shortest Paths (frontier Bellman-Ford).

The "Shortest Path: iteratively update neighbors' distances" primitive
from the paper's pipeline list (Section 4).  Edge weights are supplied by
the caller as an array aligned with ``graph.targets``; when omitted,
deterministic pseudo-random integer weights in ``[1, 8]`` are derived
from the edge endpoints (CSR stores no weights, and the evaluation only
needs a weighted workload, not specific weights).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import App, contract
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph

INF = np.iinfo(np.int64).max // 4


def pair_weights(
    src: np.ndarray, dst: np.ndarray, max_weight: int = 8
) -> np.ndarray:
    """Deterministic positive weight of each ``(src, dst)`` pair.

    A pure hash of the endpoint ids, so the same pair always weighs the
    same — across graph epochs, duplicate edge copies, and independent
    callers.  Incremental SSSP repair relies on this stability: the
    weight of a deleted or inserted edge can be recomputed from its
    endpoints alone.  Weights are in ``[1, max_weight]``.
    """
    mix = (
        np.asarray(src, dtype=np.int64) * np.int64(2654435761)
        ^ (np.asarray(dst, dtype=np.int64) + np.int64(0x9E3779B9))
    )
    return 1 + (np.abs(mix) % max_weight)


def synthetic_weights(graph: CSRGraph, max_weight: int = 8) -> np.ndarray:
    """Deterministic positive weights, one per CSR edge slot.

    Hash of (src, dst) so the weights survive node reordering applied to
    both endpoints consistently... they do not — reordering relabels
    nodes, so SSSP runs either use explicit weights or skip reordering.
    Weights are in ``[1, max_weight]``.

    A constant of the graph: built once and cached on it, read-only, in
    the smallest integer dtype that holds ``max_weight``.
    """
    return graph.derived(
        ("synthetic_weights", max_weight),
        lambda g: _edge_pair_weights(g, max_weight),
    )


def _edge_pair_weights(graph: CSRGraph, max_weight: int) -> np.ndarray:
    src = np.repeat(graph.all_nodes(), graph.out_degrees())
    weights = pair_weights(src, graph.targets, max_weight)
    weights = weights.astype(np.min_scalar_type(-max_weight))
    weights.setflags(write=False)
    return weights


class SSSPApp(App):
    """Frontier-based Bellman-Ford from one source."""

    name = "sssp"
    uses_atomics = True
    value_access_factor = 1.0
    edge_compute_factor = 1.5
    needs_edge_positions = True

    def __init__(self, weights: np.ndarray | None = None) -> None:
        super().__init__()
        self._weights_arg = weights
        self.weights: np.ndarray | None = None
        self.dist: np.ndarray | None = None
        self._source: int | None = None

    def setup(self, graph: CSRGraph, source: int | None = None) -> None:
        if source is None:
            raise InvalidParameterError("SSSP requires a source node")
        if not 0 <= source < graph.num_nodes:
            raise InvalidParameterError(f"source {source} out of range")
        self.graph = graph
        self._source = int(source)
        if self._weights_arg is not None:
            weights = np.asarray(self._weights_arg, dtype=np.int64)
            if weights.size != graph.num_edges:
                raise InvalidParameterError(
                    f"weights length {weights.size} != num_edges "
                    f"{graph.num_edges}"
                )
            if weights.size and weights.min() < 0:
                raise InvalidParameterError("weights must be non-negative")
            self.weights = weights
        else:
            self.weights = synthetic_weights(graph)
        self.dist = np.full(graph.num_nodes, INF, dtype=np.int64)
        self.dist[source] = 0

    def initial_frontier(self) -> np.ndarray:
        return np.array([self._source], dtype=np.int64)

    def process_level(
        self,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_pos: np.ndarray | None = None,
    ) -> np.ndarray:
        assert self.dist is not None and self.weights is not None
        if edge_pos is None:
            raise InvalidParameterError("SSSP needs edge positions for weights")
        candidate = self.dist[edge_src] + self.weights[edge_pos]
        # Only candidates that beat the current distance can lower it;
        # their targets are exactly the nodes the relaxation improves.
        better = candidate < self.dist[edge_dst]
        improved = edge_dst[better]
        np.minimum.at(self.dist, improved, candidate[better])
        return contract(improved)

    def result(self) -> dict[str, np.ndarray]:
        assert self.dist is not None
        return {"dist": self.dist}

    def source_node(self) -> int | None:
        return self._source
