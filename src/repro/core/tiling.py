"""Tiled Partitioning (paper Section 5.1, Algorithm 2).

A frontier node's adjacency work is consumed by cooperative-group tiles
whose sizes shrink from the block size down to ``MIN_TILE_SIZE`` by
binary partition.  A node with ``n`` neighbors is consumed as:

* ``n // B`` tiles of size ``B`` (the whole block, elected leader),
* then one tile of size ``s`` for every set bit of ``n mod B`` at
  ``s = B/2, B/4, ..., MIN_TILE_SIZE``,
* plus a *fragment* of ``n mod MIN_TILE_SIZE`` edges handled by
  fine-grained scan-based gathering (paper line 32, after [30]).

This module computes that decomposition for a whole frontier at once,
fully vectorized, in frontier coordinates (tiles refer to positions in
the concatenated expanded edge array).  Both the SAGE engine and the
Resident Tile store are built on it.

A node's tiles are a pure function of the node (what lets Resident Tile
Stealing, Section 5.2, reuse them on every revisit), so the engine does
not plan a kernel's segments at all: :func:`node_costs` tabulates each
node's cost once per graph, and a kernel's totals are an O(|frontier|)
sum over that table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import InvalidParameterError
from repro.gpusim.memory import (
    coalesced_sectors,
    segmented_distinct_sectors,
    segmented_distinct_total,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.csr import CSRGraph

#: Default smallest cooperative tile (the paper's MIN_TILE_SIZE).
DEFAULT_MIN_TILE = 8


def tile_size_levels(block_size: int, min_tile: int) -> list[int]:
    """Descending powers of two from ``block_size`` to ``min_tile``."""
    if block_size < min_tile:
        raise InvalidParameterError("block_size must be >= min_tile")
    for value, label in ((block_size, "block_size"), (min_tile, "min_tile")):
        if value < 1 or value & (value - 1):
            raise InvalidParameterError(f"{label} must be a power of two")
    sizes = []
    s = block_size
    while s >= min_tile:
        sizes.append(s)
        s //= 2
    return sizes


@dataclass(frozen=True)
class TileDecomposition:
    """Tiles + fragments covering every expanded edge exactly once.

    All `*_frontier_idx` arrays index into the frontier that produced the
    decomposition; `*_local_offset` is the position within that node's
    adjacency list where the tile/fragment begins.
    """

    tile_frontier_idx: np.ndarray
    tile_sizes: np.ndarray
    tile_local_offsets: np.ndarray
    fragment_frontier_idx: np.ndarray
    fragment_sizes: np.ndarray
    fragment_local_offsets: np.ndarray
    elections: int
    levels: int
    block_size: int
    min_tile: int

    @property
    def num_tiles(self) -> int:
        return int(self.tile_sizes.size)

    @property
    def tiled_edges(self) -> int:
        return int(self.tile_sizes.sum())

    @property
    def fragment_edges(self) -> int:
        return int(self.fragment_sizes.sum())

    def segment_starts(self, cum_degrees: np.ndarray) -> np.ndarray:
        """Sorted start offsets of every tile and fragment.

        Args:
            cum_degrees: exclusive prefix sum of the frontier's degrees
                (``cum_degrees[i]`` = where node ``i``'s adjacency begins
                in the expanded edge array).

        Returns:
            Sorted int64 array of segment starts that partitions the
            expanded edge array into tile/fragment segments — the access
            batches whose distinct-sector counts the memory model needs.
        """
        tile_starts = cum_degrees[self.tile_frontier_idx] + self.tile_local_offsets
        frag_starts = (
            cum_degrees[self.fragment_frontier_idx] + self.fragment_local_offsets
        )
        starts = np.concatenate([tile_starts, frag_starts])
        starts.sort(kind="stable")
        return starts


@dataclass(frozen=True)
class _RemainderTable:
    """Per-remainder tail of a node's decomposition.

    Row ``r`` describes the work left after the block tiles of a node
    with ``degree mod block_size == r``: its tail sizes (the smaller
    tiles in descending size, then the fragment), padded with zeros.
    """

    tail: np.ndarray  # (levels, block_size): size of the j-th tail segment
    tail_len: np.ndarray  # segments in the tail
    small_tiles: np.ndarray  # tiles below the block level (one election each)
    fragment: np.ndarray  # 1 when a fragment closes the tail
    levels: int


@functools.lru_cache(maxsize=32)
def _remainder_table(block_size: int, min_tile: int) -> _RemainderTable:
    sizes = tile_size_levels(block_size, min_tile)
    rem = np.arange(block_size, dtype=np.int64)
    # A remainder below the block size takes one tile per set bit at
    # the smaller levels: the binary partition of Algorithm 2.
    columns = [np.where(rem & s, s, 0) for s in sizes[1:]]
    columns.append(rem % min_tile)
    tail = np.zeros((len(columns), block_size), dtype=np.int64)
    tail_len = np.zeros(block_size, dtype=np.int64)
    for col in columns:
        has = col > 0
        tail[tail_len[has], np.flatnonzero(has)] = col[has]
        tail_len += has
    fragment = (rem % min_tile > 0).astype(np.int64)
    return _RemainderTable(
        tail=tail,
        tail_len=tail_len,
        small_tiles=tail_len - fragment,
        fragment=fragment,
        levels=len(sizes),
    )


@dataclass(frozen=True)
class SegmentPlan:
    """A frontier's tiles and fragments as sorted segments.

    Segments are listed node by node and, within a node, in adjacency
    order (block tiles, the smaller tiles, then the fragment), so their
    starts in the expanded edge array are the exclusive prefix sum of
    their sizes.
    """

    starts: np.ndarray
    sizes: np.ndarray
    counts: np.ndarray  # segments per frontier node
    num_tiles: int
    num_fragments: int
    elections: int
    levels: int
    min_tile: int

    @property
    def tile_sizes(self) -> np.ndarray:
        return self.sizes[self.sizes >= self.min_tile]

    @property
    def fragment_sizes(self) -> np.ndarray:
        return self.sizes[self.sizes < self.min_tile]


def segment_plan(
    degrees: np.ndarray,
    block_size: int,
    min_tile: int = DEFAULT_MIN_TILE,
) -> SegmentPlan:
    """Run Tiled Partitioning over a frontier's degree array.

    Args:
        degrees: out-degree of each frontier node, in frontier order.
        block_size: threads per block (largest tile).
        min_tile: the paper's MIN_TILE_SIZE.

    Returns:
        The :class:`SegmentPlan`: every segment's size and sorted start,
        plus the counts the cost model charges.

    A node's tiles are a pure function of its degree: ``d // B`` block
    tiles, then the row of the remainder table for ``d mod B``.  Sizes
    are written node-major (the block tiles by one fill, the tail one
    level at a time), so no per-tile index arrays and no sort.

    Election accounting follows Algorithm 2: one election per
    (node, tile-size level) at which the node has work — at the block
    level a node with ``k`` block-tiles still elects once and the tile
    then loops ``k`` rounds.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if degrees.size and degrees.min() < 0:
        raise InvalidParameterError("degrees must be non-negative")
    table = _remainder_table(block_size, min_tile)
    blocks = degrees // block_size
    rem = degrees - blocks * block_size
    tail_len = table.tail_len[rem]
    counts = blocks + tail_len
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    sizes = np.full(total, block_size, dtype=np.int64)
    # The nodes with a j-th tail segment shrink level by level.
    nodes = np.flatnonzero(tail_len)
    tail_pos = ends[nodes] - tail_len[nodes]
    node_rem = rem[nodes]
    for j in range(table.levels):
        sizes[tail_pos] = table.tail[j][node_rem]
        more = table.tail_len[node_rem] > j + 1
        if not more.any():
            break
        tail_pos = np.compress(more, tail_pos) + 1
        node_rem = np.compress(more, node_rem)
    starts = np.zeros(total, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    hist = np.bincount(rem, minlength=block_size)
    small_tiles = int(hist @ table.small_tiles)
    return SegmentPlan(
        starts=starts,
        sizes=sizes,
        counts=counts,
        num_tiles=int(blocks.sum()) + small_tiles,
        num_fragments=int(hist @ table.fragment),
        elections=int(np.count_nonzero(blocks)) + small_tiles,
        levels=table.levels,
        min_tile=min_tile,
    )


@dataclass(frozen=True)
class FrontierCosts:
    """Totals of one kernel's tiles and fragments.

    Attributes:
        counts: segments (tiles + fragment) per frontier node, in
            frontier order; what :meth:`ResidentTileStore.visit` stores.
        num_tiles: cooperative tiles over the frontier.
        num_fragments: fragment segments (below ``min_tile``).
        elections: leader elections (Algorithm 2).
        levels: tile-size levels of the partition.
        csr_sectors: coalesced CSR adjacency-read sectors of all segments.
        value_sectors: distinct value sectors per segment, summed (before
            the app's access factor).
    """

    counts: np.ndarray
    num_tiles: int
    num_fragments: int
    elections: int
    levels: int
    csr_sectors: int
    value_sectors: int

    def totals(self) -> dict[str, int]:
        """The scalar totals, by name (what the sanitizer compares)."""
        return {
            "num_tiles": self.num_tiles,
            "num_fragments": self.num_fragments,
            "elections": self.elections,
            "csr_sectors": self.csr_sectors,
            "value_sectors": self.value_sectors,
        }


@functools.lru_cache(maxsize=32)
def _csr_sector_table(
    block_size: int, min_tile: int, sector_width: int, aligned: bool
) -> tuple[int, np.ndarray]:
    """Coalesced read sectors of one block tile, and of each remainder's tail."""
    table = _remainder_table(block_size, min_tile)
    block = int(coalesced_sectors(np.array([block_size]), sector_width, aligned=aligned)[0])
    # Padding zeros read no sector, aligned or not.
    tail = coalesced_sectors(table.tail, sector_width, aligned=aligned).sum(axis=0)
    tail.setflags(write=False)
    return block, tail


@dataclass(frozen=True)
class NodeCosts:
    """Per-node Tiled Partitioning costs of one graph.

    Only ``value_sectors`` depends on the adjacency lists; every other
    term is a function of the degree and comes from the remainder table
    at kernel time.

    Attributes:
        value_sectors: read-only, per node: the distinct value sectors of
            each of its segments, summed.  Stored in the smallest
            unsigned dtype that holds the largest entry.
    """

    value_sectors: np.ndarray
    block_size: int
    min_tile: int
    sector_width: int
    aligned: bool

    def frontier_costs(self, frontier: np.ndarray, degrees: np.ndarray) -> FrontierCosts:
        """Totals of the kernel over ``frontier`` (whose out-degrees are
        ``degrees``), in O(|frontier|) gathers.

        Each occurrence of a repeated node counts, as it does in the
        expanded batch.  Equal to :func:`plan_costs` of the frontier's
        :func:`segment_plan` over ``graph.expand_frontier(frontier)[1]``.
        """
        block_size = self.block_size
        table = _remainder_table(block_size, self.min_tile)
        block_csr, tail_csr = _csr_sector_table(
            block_size, self.min_tile, self.sector_width, self.aligned
        )
        degrees = np.asarray(degrees, dtype=np.int64)
        blocks = degrees // block_size
        rem = degrees - blocks * block_size
        hist = np.bincount(rem, minlength=block_size)
        small_tiles = int(hist @ table.small_tiles)
        num_blocks = int(blocks.sum())
        return FrontierCosts(
            counts=blocks + table.tail_len[rem],
            num_tiles=num_blocks + small_tiles,
            num_fragments=int(hist @ table.fragment),
            elections=int(np.count_nonzero(blocks)) + small_tiles,
            levels=table.levels,
            csr_sectors=num_blocks * block_csr + int(hist @ tail_csr),
            value_sectors=int(self.value_sectors[frontier].sum(dtype=np.int64)),
        )


def _node_value_sectors(
    graph: CSRGraph, block_size: int, min_tile: int, sector_width: int
) -> np.ndarray:
    """:attr:`NodeCosts.value_sectors` from one all-nodes plan.

    The expansion of ``arange(n)`` is ``targets`` itself, so the plan's
    segments are slices of ``targets``; a node's entry is the sum over
    its ``counts`` consecutive segments.
    """
    plan = segment_plan(graph.out_degrees(), block_size, min_tile)
    per_segment = segmented_distinct_sectors(
        graph.targets, plan.starts, sector_width, presorted=True
    )
    segment_sums = np.zeros(per_segment.size + 1, dtype=np.int64)
    np.cumsum(per_segment, out=segment_sums[1:])
    node_bounds = np.zeros(graph.num_nodes + 1, dtype=np.int64)
    np.cumsum(plan.counts, out=node_bounds[1:])
    per_node = np.diff(segment_sums[node_bounds])
    column = per_node.astype(np.min_scalar_type(int(per_node.max(initial=0))))
    column.setflags(write=False)
    return column


def node_costs(
    graph: CSRGraph,
    block_size: int,
    min_tile: int,
    sector_width: int,
    aligned: bool,
) -> NodeCosts:
    """The per-node cost table of ``graph`` for one tiling configuration.

    The value-sector column is built once per graph (O(|E|)) and cached on
    it for every alignment; kernels then cost O(|frontier|).
    """
    column = graph.derived(
        ("node_value_sectors", block_size, min_tile, sector_width),
        lambda g: _node_value_sectors(g, block_size, min_tile, sector_width),
    )
    return NodeCosts(column, block_size, min_tile, sector_width, aligned)


def plan_costs(
    plan: SegmentPlan,
    edge_dst: np.ndarray,
    sector_width: int,
    aligned: bool,
) -> FrontierCosts:
    """:class:`FrontierCosts` of a kernel counted segment by segment.

    The per-kernel formulation :meth:`NodeCosts.frontier_costs` replaces;
    the sanitizer audits the table against it.
    """
    return FrontierCosts(
        counts=plan.counts,
        num_tiles=plan.num_tiles,
        num_fragments=plan.num_fragments,
        elections=plan.elections,
        levels=plan.levels,
        csr_sectors=int(coalesced_sectors(plan.sizes, sector_width, aligned=aligned).sum()),
        value_sectors=segmented_distinct_total(edge_dst, plan.starts, sector_width),
    )


def decompose_frontier(
    degrees: np.ndarray,
    block_size: int,
    min_tile: int = DEFAULT_MIN_TILE,
) -> TileDecomposition:
    """Per-tile view of :func:`segment_plan`.

    Args:
        degrees: out-degree of each frontier node, in frontier order.
        block_size: threads per block (largest tile).
        min_tile: the paper's MIN_TILE_SIZE.

    Returns:
        The full :class:`TileDecomposition`: tiles level by level (block
        tiles first), node order within a level, then the fragments.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    plan = segment_plan(degrees, block_size, min_tile)
    node = np.repeat(np.arange(degrees.size, dtype=np.int64), plan.counts)
    offset = plan.starts - (np.cumsum(degrees) - degrees)[node]
    is_tile = plan.sizes >= min_tile
    tiles = np.flatnonzero(is_tile)
    # Level by level: tile sizes are distinct powers of two per level,
    # so a stable sort on descending size orders levels, keeping node
    # order within each.
    tiles = tiles[np.argsort(-plan.sizes[tiles], kind="stable")]
    frags = np.flatnonzero(~is_tile)
    return TileDecomposition(
        tile_frontier_idx=node[tiles],
        tile_sizes=plan.sizes[tiles],
        tile_local_offsets=offset[tiles],
        fragment_frontier_idx=node[frags],
        fragment_sizes=plan.sizes[frags],
        fragment_local_offsets=offset[frags],
        elections=plan.elections,
        levels=plan.levels,
        block_size=block_size,
        min_tile=min_tile,
    )


def decompose_frontier_reference(
    degrees: np.ndarray,
    block_size: int,
    min_tile: int = DEFAULT_MIN_TILE,
) -> TileDecomposition:
    """Pre-optimization per-node formulation of :func:`decompose_frontier`,
    kept as the equivalence-test reference."""
    degrees = np.asarray(degrees, dtype=np.int64)
    if degrees.size and degrees.min() < 0:
        raise InvalidParameterError("degrees must be non-negative")
    sizes = tile_size_levels(block_size, min_tile)

    idx_chunks: list[np.ndarray] = []
    size_chunks: list[np.ndarray] = []
    offset_chunks: list[np.ndarray] = []
    elections = 0

    remaining = degrees.copy()
    consumed = np.zeros_like(degrees)
    all_idx = np.arange(degrees.size, dtype=np.int64)
    for s in sizes:
        counts = remaining // s
        active = counts > 0
        elections += int(active.sum())
        n_active = int(counts[active].sum())
        if n_active:
            reps = counts[active]
            nodes = np.repeat(all_idx[active], reps)
            base = np.repeat(consumed[active], reps)
            cum = np.repeat(np.cumsum(reps) - reps, reps)
            within = (np.arange(nodes.size, dtype=np.int64) - cum) * s
            idx_chunks.append(nodes)
            size_chunks.append(np.full(nodes.size, s, dtype=np.int64))
            offset_chunks.append(base + within)
        consumed += counts * s
        remaining -= counts * s

    frag_active = remaining > 0

    if idx_chunks:
        tile_idx = np.concatenate(idx_chunks)
        tile_sizes = np.concatenate(size_chunks)
        tile_offsets = np.concatenate(offset_chunks)
    else:
        tile_idx = np.empty(0, dtype=np.int64)
        tile_sizes = np.empty(0, dtype=np.int64)
        tile_offsets = np.empty(0, dtype=np.int64)

    return TileDecomposition(
        tile_frontier_idx=tile_idx,
        tile_sizes=tile_sizes,
        tile_local_offsets=tile_offsets,
        fragment_frontier_idx=all_idx[frag_active],
        fragment_sizes=remaining[frag_active],
        fragment_local_offsets=consumed[frag_active],
        elections=elections,
        levels=len(sizes),
        block_size=block_size,
        min_tile=min_tile,
    )


def decompose_degree(
    degree: int, block_size: int, min_tile: int = DEFAULT_MIN_TILE
) -> list[tuple[int, int]]:
    """Decompose one degree into ``(offset, tile_size)`` pairs + fragment.

    Reference implementation used by tests; the fragment (if any) is the
    final pair with size < ``min_tile``.
    """
    out: list[tuple[int, int]] = []
    offset = 0
    remaining = int(degree)
    for s in tile_size_levels(block_size, min_tile):
        while remaining >= s:
            out.append((offset, s))
            offset += s
            remaining -= s
    if remaining:
        out.append((offset, remaining))
    return out
