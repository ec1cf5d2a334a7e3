"""Coordinate (COO) edge-list representation.

The paper (Section 2.2, Figure 1) introduces graphs as a sorted edge list
held in two parallel arrays ``u`` and ``v``.  :class:`COOGraph` is exactly
that: the universal interchange format every generator produces and from
which :class:`~repro.graph.csr.CSRGraph` is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import GraphFormatError

EDGE_DTYPE = np.int64

#: largest node count whose composite keys ``major * n + minor`` fit int64
MAX_COMPOSITE_NODES = math.isqrt(np.iinfo(np.int64).max)


def sort_composite_keys(major: np.ndarray, minor: np.ndarray, num_nodes: int) -> np.ndarray:
    """Sorted composite keys ``major * num_nodes + minor`` of node-id pairs.

    One in-place ``np.sort`` of a single int64 array orders the pairs by
    ``(major, minor)``, replacing a two-key ``np.lexsort``.  On the
    result, ``np.searchsorted`` counts a major id's minors in any range
    ``[a, b)`` with ``0 <= a <= b <= num_nodes``, and
    :func:`split_composite_keys` recovers the sorted pairs.

    Raises:
        GraphFormatError: ``num_nodes`` is too large for the keys to fit
            int64 (above :data:`MAX_COMPOSITE_NODES`).
    """
    if num_nodes > MAX_COMPOSITE_NODES:
        raise GraphFormatError(
            f"num_nodes {num_nodes} exceeds {MAX_COMPOSITE_NODES}: "
            "composite (major, minor) keys would overflow int64"
        )
    keys = np.asarray(major, dtype=EDGE_DTYPE) * num_nodes
    keys += np.asarray(minor, dtype=EDGE_DTYPE)
    keys.sort()
    return keys


def split_composite_keys(keys: np.ndarray, num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`sort_composite_keys`: ``(major, minor)`` per key."""
    if num_nodes == 0:
        # No node ids, so no keys; avoid dividing by zero.
        return keys.copy(), keys.copy()
    # Floor division plus a multiply-subtract beats np.divmod on int64.
    major = keys // num_nodes
    return major, keys - major * num_nodes


@dataclass(frozen=True)
class COOGraph:
    """A directed graph as parallel source/target arrays.

    Attributes:
        num_nodes: number of nodes; node ids are ``0 .. num_nodes - 1``.
        src: 1-D array of edge sources.
        dst: 1-D array of edge targets, same length as ``src``.
    """

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray

    def __post_init__(self) -> None:
        src = np.ascontiguousarray(self.src, dtype=EDGE_DTYPE)
        dst = np.ascontiguousarray(self.dst, dtype=EDGE_DTYPE)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        if self.num_nodes < 0:
            raise GraphFormatError("num_nodes must be non-negative")
        if src.ndim != 1 or dst.ndim != 1:
            raise GraphFormatError("src and dst must be 1-D arrays")
        if src.shape != dst.shape:
            raise GraphFormatError(
                f"src/dst length mismatch: {src.shape} vs {dst.shape}"
            )
        if src.size:
            lo = min(src.min(), dst.min())
            hi = max(src.max(), dst.max())
            if lo < 0 or hi >= self.num_nodes:
                raise GraphFormatError(
                    f"edge endpoint out of range [0, {self.num_nodes}): "
                    f"saw [{lo}, {hi}]"
                )

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return int(self.src.size)

    def sorted(self) -> "COOGraph":
        """Return a copy with edges sorted by (src, dst)."""
        keys = sort_composite_keys(self.src, self.dst, self.num_nodes)
        return COOGraph(self.num_nodes, *split_composite_keys(keys, self.num_nodes))

    def deduplicated(self) -> "COOGraph":
        """Return a sorted copy with duplicate edges removed."""
        keys = sort_composite_keys(self.src, self.dst, self.num_nodes)
        keep = np.ones(keys.size, dtype=bool)
        keep[1:] = keys[1:] != keys[:-1]
        return COOGraph(self.num_nodes, *split_composite_keys(keys[keep], self.num_nodes))

    def without_self_loops(self) -> "COOGraph":
        """Return a copy with self loops removed."""
        keep = self.src != self.dst
        return COOGraph(self.num_nodes, self.src[keep], self.dst[keep])

    def symmetrized(self) -> "COOGraph":
        """Return the undirected closure: both (u, v) and (v, u) present."""
        src = np.concatenate([self.src, self.dst])
        dst = np.concatenate([self.dst, self.src])
        return COOGraph(self.num_nodes, src, dst).deduplicated()

    def reversed(self) -> "COOGraph":
        """Return the transpose graph (every edge flipped)."""
        return COOGraph(self.num_nodes, self.dst.copy(), self.src.copy())

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node as an int64 array."""
        return np.bincount(self.src, minlength=self.num_nodes).astype(EDGE_DTYPE)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node as an int64 array."""
        return np.bincount(self.dst, minlength=self.num_nodes).astype(EDGE_DTYPE)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"COOGraph(|V|={self.num_nodes}, |E|={self.num_edges})"
