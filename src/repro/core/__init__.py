"""SAGE: self-adaptive graph traversal (the paper's core contribution)."""

from repro.core.compressed import CompressedTraversalScheduler
from repro.core.engine import SageScheduler
from repro.core.frontier import FrontierQueue
from repro.core.hybrid import HybridConfig, HybridStats, direction_optimized_bfs
from repro.core.pipeline import RunResult, TraversalPipeline, run_app
from repro.core.reorder import RoundOutcome, SamplingReorderer
from repro.core.resident import ResidentTileStore
from repro.core.sampling import TileAccessSampler, exact_locality_counts
from repro.core.scheduler import ReorderCommit, Scheduler
from repro.core.tiling import (
    DEFAULT_MIN_TILE,
    FrontierCosts,
    NodeCosts,
    SegmentPlan,
    TileDecomposition,
    decompose_degree,
    decompose_frontier,
    node_costs,
    plan_costs,
    segment_plan,
    tile_size_levels,
)

__all__ = [
    "CompressedTraversalScheduler",
    "DEFAULT_MIN_TILE",
    "FrontierCosts",
    "FrontierQueue",
    "HybridConfig",
    "HybridStats",
    "NodeCosts",
    "ReorderCommit",
    "ResidentTileStore",
    "RoundOutcome",
    "RunResult",
    "SageScheduler",
    "SamplingReorderer",
    "Scheduler",
    "SegmentPlan",
    "TileAccessSampler",
    "TileDecomposition",
    "TraversalPipeline",
    "decompose_degree",
    "direction_optimized_bfs",
    "decompose_frontier",
    "exact_locality_counts",
    "node_costs",
    "plan_costs",
    "run_app",
    "segment_plan",
    "tile_size_levels",
]
