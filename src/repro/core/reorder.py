"""Sampling-based Reordering (paper Section 6, Figure 5).

Finding the permutation that minimizes sector transactions is NP-hard
(Theorem 6.1, by reduction from minimum linear arrangement with binary
distancing), so SAGE iterates a lightweight three-stage heuristic round:

* **Stage 1** — measure each node's locality: sampled count of intra-tile
  co-members that share its memory sector.
* **Stage 2** — search a potentially better index per node by binary
  search over the id range, each step descending into the half containing
  more of the node's sampled co-members, until one sector remains.
* **Stage 3** — re-measure locality at the candidate index with the same
  samples; commit the move only if locality improves by more than the
  damping margin ``min_gain`` (moving every marginal node each round
  makes placements chase each other and stalls convergence; requiring a
  clear win lets the arrangement settle).

The expected-index array (moved nodes at their candidates, others at
their current ids) is stably sorted to a dense permutation and applied to
the CSR — the step the paper performs with bb_segsort on the GPU.

One *round* completes when the sampler has observed ``threshold`` edges
(the paper uses ``|E|``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.sampling import TileAccessSampler
from repro.errors import InvalidParameterError
from repro.gpusim.cost import KernelStats, even_placement
from repro.gpusim.spec import GPUSpec
from repro.graph.coo import sort_composite_keys
from repro.obs import NULL_REGISTRY, MetricsRegistry


@dataclass(frozen=True)
class RoundOutcome:
    """Result of one reordering round."""

    perm: np.ndarray
    moved_nodes: int
    sampled_tiles: int
    sampled_pairs: int

    @property
    def is_identity(self) -> bool:
        return self.moved_nodes == 0


class SamplingReorderer:
    """Drives rounds of Sampling-based Reordering.

    Feed tile accesses via :meth:`observe`; when :attr:`ready`, call
    :meth:`compute_round` to run Stages 2-3 and obtain the permutation
    for this round.  The caller (the SAGE engine or a benchmark harness)
    applies the permutation to the graph and application state.
    """

    def __init__(
        self,
        num_nodes: int,
        spec: GPUSpec | None = None,
        *,
        threshold_edges: int | None = None,
        co_samples: int = 6,
        tile_sample_rate: float = 0.75,
        min_gain: int = 4,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if num_nodes < 1:
            raise InvalidParameterError("num_nodes must be >= 1")
        if min_gain < 0:
            raise InvalidParameterError("min_gain must be >= 0")
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.spec = spec or GPUSpec()
        self.num_nodes = num_nodes
        self.threshold_edges = threshold_edges
        self.min_gain = min_gain
        self.sampler = TileAccessSampler(
            num_nodes,
            self.spec.sector_width,
            co_samples=co_samples,
            tile_sample_rate=tile_sample_rate,
            seed=seed,
        )
        self.rounds_completed = 0

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def observe(self, edge_dst: np.ndarray, segment_starts: np.ndarray) -> None:
        """Sample one iteration's tile accesses (Stage-1 collection)."""
        self.sampler.observe(edge_dst, segment_starts)

    @property
    def ready(self) -> bool:
        """Whether enough accesses were observed to run a round."""
        if self.threshold_edges is None:
            return self.sampler.observed_edges > 0
        return self.sampler.observed_edges >= self.threshold_edges

    # ------------------------------------------------------------------
    # The three-stage round
    # ------------------------------------------------------------------

    def compute_round(self) -> RoundOutcome:
        """Run Stages 1-3 on the accumulated samples and finish the round.

        Returns the permutation (``new_id = perm[old_id]``); identity when
        no improving move was found.  Samples are cleared afterwards.
        """
        return self._round(self._stages)

    def compute_round_reference(self) -> RoundOutcome:
        """:meth:`compute_round` with per-level pair masks and bincounts.

        The pre-optimization formulation, kept as the equivalence oracle;
        it returns the same permutation and counters.
        """
        return self._round(self._stages_reference)

    def _round(self, stages: Callable[..., tuple[np.ndarray, ...]]) -> RoundOutcome:
        u, co = self.sampler.pairs()
        sampled_tiles = self.sampler.sampled_tiles
        n = self.num_nodes
        w = self.spec.sector_width
        if u.size == 0:
            self._finish_round()
            return RoundOutcome(
                np.arange(n, dtype=np.int64), 0, sampled_tiles, 0
            )

        nodes, old_locality, candidate_lo, new_locality = stages(u, co)

        # Commit rule: move only nodes whose locality improves by a
        # clear margin (damping, see module docstring).
        ids = np.arange(n, dtype=np.int64)
        improves = new_locality > old_locality + self.min_gain
        expected = ids.astype(np.float64)
        # Candidate index: middle of the target sector; the stable sort
        # below resolves collisions between movers and incumbents.
        expected[nodes[improves]] = candidate_lo[improves] + (w - 1) / 2.0
        order = np.argsort(expected, kind="stable")
        perm = np.empty(n, dtype=np.int64)
        perm[order] = ids

        moved = int(np.count_nonzero(perm != ids))
        pairs = int(u.size)
        self._finish_round()
        self.metrics.count("reorder.moved_nodes", moved)
        self.metrics.count("reorder.sampled_pairs", pairs)
        self.metrics.count("reorder.sampled_tiles", sampled_tiles)
        return RoundOutcome(perm, moved, sampled_tiles, pairs)

    def _stages(
        self, u: np.ndarray, co: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Stages 1-3 over one sort of the ``(owner, co-member)`` pairs.

        Returns ``(nodes, old_locality, candidate_lo, new_locality)``
        indexed by the sorted distinct sampled nodes ``nodes``.  With
        the composite keys ``owner * n + co`` sorted, a node's sampled
        co-members in ``[a, b)`` number ``P(b) - P(a)``, where ``P(x)``
        is the ``searchsorted`` position of ``owner * n + x``.  After the
        one sort, every count below is a difference of two positions per
        sampled node, not a mask and bincount over all pairs.
        """
        n = self.num_nodes
        w = self.spec.sector_width
        keys = sort_composite_keys(u, co, n)
        per_node = np.bincount(u, minlength=n)
        nodes = np.flatnonzero(per_node)
        base = nodes * n
        # Key positions of each node's first and one-past-last pair.
        p_hi = np.cumsum(per_node[nodes])
        p_lo = p_hi - per_node[nodes]

        def count(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
            return np.searchsorted(keys, base + hi) - np.searchsorted(keys, base + lo)

        # Stage 1: locality of the current index, from the same samples
        # Stage 3 will use (apples-to-apples comparison).  Sector bounds
        # clamp to n so they never reach the next owner's keys.
        current_lo = (nodes // w) * w
        old_locality = count(current_lo, np.minimum(current_lo + w, n))

        # Stage 2: per-node binary search toward the majority half
        # (ties keep the left half) until ranges shrink to one sector.
        # p_lo / p_hi track the key positions of the range ends, so only
        # the midpoint needs a search per level.
        m = nodes.size
        lo = np.zeros(m, dtype=np.int64)
        hi = np.full(m, n, dtype=np.int64)
        while True:
            idx = np.flatnonzero(hi - lo > w)
            if idx.size == 0:
                break
            mid = (lo[idx] + hi[idx]) // 2
            p_mid = np.searchsorted(keys, base[idx] + mid)
            right = p_hi[idx] - p_mid > p_mid - p_lo[idx]
            go_right, go_left = idx[right], idx[~right]
            lo[go_right] = mid[right]
            p_lo[go_right] = p_mid[right]
            hi[go_left] = mid[~right]
            p_hi[go_left] = p_mid[~right]
        candidate_lo = (lo // w) * w

        # Stage 3: locality at the candidate sector, same samples.
        new_locality = count(candidate_lo, np.minimum(candidate_lo + w, n))
        return nodes, old_locality, candidate_lo, new_locality

    def _stages_reference(
        self, u: np.ndarray, co: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Stages 1-3 as per-pair masks and bincounts over compacted ids."""
        w = self.spec.sector_width
        nodes = np.unique(u)
        u_c = np.searchsorted(nodes, u)
        m = nodes.size

        current_sector_lo = (u // w) * w
        in_current = (co >= current_sector_lo) & (co < current_sector_lo + w)
        old_locality = np.bincount(u_c[in_current], minlength=m)

        candidate_lo = self._binary_search_sectors(u_c, co, m)

        cand_lo_per_pair = candidate_lo[u_c]
        in_cand = (co >= cand_lo_per_pair) & (co < cand_lo_per_pair + w)
        new_locality = np.bincount(u_c[in_cand], minlength=m)
        return nodes, old_locality, candidate_lo, new_locality

    def _binary_search_sectors(
        self, u_c: np.ndarray, co: np.ndarray, m: int
    ) -> np.ndarray:
        """Stage 2 of :meth:`_stages_reference` for all sampled nodes.

        Every node starts with the whole id range; each level counts its
        sampled co-members in the two halves and keeps the fuller one
        (ties keep the left half), until ranges shrink to one sector.
        ``u_c`` holds compacted pair owners (indices into the distinct
        sampled-node array of size ``m``).
        """
        n = self.num_nodes
        w = self.spec.sector_width
        lo = np.zeros(m, dtype=np.int64)
        hi = np.full(m, n, dtype=np.int64)
        while True:
            open_range = hi - lo > w
            if not open_range.any():
                break
            mid = (lo + hi) // 2
            pair_mid = mid[u_c]
            in_left = (co >= lo[u_c]) & (co < pair_mid)
            in_right = (co >= pair_mid) & (co < hi[u_c])
            left = np.bincount(u_c[in_left], minlength=m)
            right = np.bincount(u_c[in_right], minlength=m)
            go_right = open_range & (right > left)
            go_left = open_range & ~go_right
            lo[go_right] = mid[go_right]
            hi[go_left] = mid[go_left]
        return (lo // w) * w

    def _finish_round(self) -> None:
        self.sampler.reset()
        self.rounds_completed += 1
        self.metrics.count("reorder.rounds")

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------

    def update_stats(self, num_nodes: int, num_edges: int) -> KernelStats:
        """Kernel stats charging the graph-representation update.

        Sorting the expected-index array and rewriting CSR is
        O(|V| + |E|) GPU work (bb_segsort + gather, Section 6); modeled
        as a balanced, divergence-free kernel moving both arrays.
        """
        work = num_nodes + num_edges
        spec = self.spec
        touches = -(-work // spec.sector_width) * 2  # read + write, coalesced
        return KernelStats(
            active_edges=work,
            issued_lane_cycles=work,
            per_sm_lane_cycles=even_placement(work, spec.num_sms),
            value_sector_touches=touches,
            value_sector_unique=touches,
            csr_sector_touches=0,
            concurrency_warps=spec.num_sms * spec.latency_hiding_warps,
            overhead_cycles=0.0,
        )
