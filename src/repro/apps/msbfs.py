"""Multi-source concurrent BFS (iBFS-style bit-parallel traversal).

The paper cites iBFS [27] — running many BFS instances concurrently so
their frontiers share traversal work.  The GPU-idiomatic formulation
packs up to 64 sources into one 64-bit *visitation mask* per node: an
edge propagates its source's mask bits; a node joins the next frontier
whenever it gains any new bit.  One traversal then answers all sources'
reachability/level queries at once, which is how BC over many sources or
all-pairs-style analytics amortize traversal cost.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import App
from repro.errors import InvalidParameterError
from repro.graph.csr import CSRGraph

MAX_SOURCES = 64


class MultiSourceBFSApp(App):
    """Concurrent BFS from up to 64 sources via bitmask propagation.

    ``result()["levels"]`` is a ``(num_sources, num_nodes)`` level matrix
    (-1 = unreached); ``result()["reach_mask"]`` holds each node's final
    visitation bitmask.
    """

    name = "msbfs"
    uses_atomics = True  # bitmask OR-aggregation
    value_access_factor = 1.5  # 8-byte masks vs 4-byte labels

    def __init__(self, sources: np.ndarray) -> None:
        super().__init__()
        sources = np.asarray(sources, dtype=np.int64)
        if sources.size == 0 or sources.size > MAX_SOURCES:
            raise InvalidParameterError(
                f"need 1..{MAX_SOURCES} sources, got {sources.size}"
            )
        if np.unique(sources).size != sources.size:
            raise InvalidParameterError("sources must be distinct")
        self.sources = sources
        self.mask: np.ndarray | None = None
        self.levels: np.ndarray | None = None
        self._level = 0

    def setup(self, graph: CSRGraph, source: int | None = None) -> None:
        if self.sources.min() < 0 or self.sources.max() >= graph.num_nodes:
            raise InvalidParameterError("source out of range")
        self.graph = graph
        n = graph.num_nodes
        self.mask = np.zeros(n, dtype=np.uint64)
        self.levels = np.full((self.sources.size, n), -1, dtype=np.int64)
        bits = np.uint64(1) << np.arange(self.sources.size, dtype=np.uint64)
        self.mask[self.sources] |= bits
        self.levels[np.arange(self.sources.size), self.sources] = 0
        self._level = 0

    def initial_frontier(self) -> np.ndarray:
        return np.unique(self.sources)

    def process_level(
        self,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_pos: np.ndarray | None = None,
    ) -> np.ndarray:
        assert self.mask is not None and self.levels is not None
        incoming = np.zeros(self.graph.num_nodes, dtype=np.uint64)
        np.bitwise_or.at(incoming, edge_dst, self.mask[edge_src])
        gained = incoming & ~self.mask
        changed = np.flatnonzero(gained)
        self._level += 1
        if changed.size:
            # record the level for every newly-gained (source, node) pair
            gained_bits = gained[changed]
            for s in range(self.sources.size):
                bit = np.uint64(1) << np.uint64(s)
                hit = changed[(gained_bits & bit) != 0]
                self.levels[s, hit] = self._level
            self.mask[changed] |= gained[changed]
        return changed  # flatnonzero: already sorted and unique

    def result(self) -> dict[str, np.ndarray]:
        assert self.mask is not None and self.levels is not None
        return {"levels": self.levels, "reach_mask": self.mask}

    def remap_nodes(self, perm: np.ndarray) -> None:
        assert self.graph is not None
        n = self.graph.num_nodes
        if self.mask is not None:
            remapped = np.empty_like(self.mask)
            remapped[perm] = self.mask
            self.mask = remapped
        if self.levels is not None:
            remapped_levels = np.empty_like(self.levels)
            remapped_levels[:, perm] = self.levels
            self.levels = remapped_levels
        self.sources = perm[self.sources]
