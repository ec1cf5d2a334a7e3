"""Independent answer checks for the benchmark's correctness gate.

The analytics oracles use SciPy's compiled graph routines (``csgraph``)
plus vectorized Brandes and power-iteration references, so they share no
code with the traversal pipeline they check and stay fast at R-MAT scale
17.  Every function returns a list of mismatch descriptions; an empty
list means the answer is correct.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse import csgraph

from repro.apps.sssp import INF, synthetic_weights
from repro.graph.csr import CSRGraph

#: PageRankApp's convergence tolerance (L1 change between iterations);
#: runs that differ only in float summation order agree well within it.
PR_ATOL = 1e-8


def _matrix(graph: CSRGraph, data: np.ndarray | None = None) -> csr_matrix:
    n = graph.num_nodes
    if data is None:
        data = np.ones(graph.num_edges, dtype=np.float64)
    return csr_matrix((data, graph.targets, graph.offsets), shape=(n, n))


def bfs_levels(graph: CSRGraph, source: int) -> np.ndarray:
    """Hop distance from ``source`` (-1 = unreachable), as BFSApp reports."""
    dist = csgraph.shortest_path(
        _matrix(graph), indices=source, unweighted=True
    )
    return np.where(np.isinf(dist), -1, dist).astype(np.int64)


def _edge_sources(graph: CSRGraph) -> np.ndarray:
    return np.repeat(
        np.arange(graph.num_nodes, dtype=np.int64), graph.out_degrees()
    )


def equal(label: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    got = np.asarray(got)
    if got.shape != want.shape or not np.array_equal(got, want):
        return [f"{label}: differs from the oracle"]
    return []


def close(label: str, got: np.ndarray, want: np.ndarray,
          *, rtol: float = 0.0, atol: float = PR_ATOL) -> list[str]:
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape or not np.allclose(got, want, rtol=rtol, atol=atol):
        return [f"{label}: differs from the oracle beyond rtol={rtol} atol={atol}"]
    return []


def check_bfs(graph: CSRGraph, source: int, result: dict) -> list[str]:
    return equal(f"bfs({source}).dist", result["dist"], bfs_levels(graph, source))


def check_sssp(graph: CSRGraph, source: int, result: dict) -> list[str]:
    weights = synthetic_weights(graph).astype(np.float64)
    dist = csgraph.dijkstra(_matrix(graph, weights), indices=source)
    want = np.full(graph.num_nodes, INF, dtype=np.int64)
    reached = ~np.isinf(dist)
    want[reached] = dist[reached].astype(np.int64)
    return equal(f"sssp({source}).dist", result["dist"], want)


def check_bc(graph: CSRGraph, source: int, result: dict) -> list[str]:
    """Brandes path counts and dependencies, level by level."""
    levels = bfs_levels(graph, source)
    src = _edge_sources(graph)
    dst = graph.targets
    tight = (levels[src] >= 0) & (levels[dst] == levels[src] + 1)
    ts, td = src[tight], dst[tight]
    ts_level = levels[ts]
    sigma = np.zeros(graph.num_nodes)
    sigma[source] = 1.0
    depth = int(levels.max())
    for level in range(depth):
        sel = ts_level == level
        np.add.at(sigma, td[sel], sigma[ts[sel]])
    delta = np.zeros(graph.num_nodes)
    for level in range(depth - 1, -1, -1):
        sel = ts_level == level
        u, v = ts[sel], td[sel]
        np.add.at(delta, u, sigma[u] / sigma[v] * (1.0 + delta[v]))
    label = f"bc({source})"
    return (
        equal(label + ".dist", result["dist"], levels)
        + close(label + ".sigma", result["sigma"], sigma, rtol=1e-12, atol=0.0)
        + close(label + ".delta", result["delta"], delta, rtol=1e-9, atol=1e-12)
    )


def pagerank(graph: CSRGraph, iterations: int, damping: float = 0.85,
             tolerance: float = 1e-8) -> np.ndarray:
    """Power iteration with uniform dangling redistribution."""
    n = graph.num_nodes
    degrees = graph.out_degrees().astype(np.float64)
    transposed = _matrix(graph).T.tocsr()
    dangling = degrees == 0
    safe = np.where(dangling, 1.0, degrees)
    pr = np.full(n, 1.0 / n)
    for _ in range(iterations):
        nxt = damping * (transposed @ (pr / safe * ~dangling))
        nxt += (1.0 - damping) / n + damping * pr[dangling].sum() / n
        change = float(np.abs(nxt - pr).sum())
        pr = nxt
        if change < tolerance:
            break
    return pr


def check_pr(graph: CSRGraph, iterations: int, result: dict) -> list[str]:
    return close(f"pr{iterations}.pagerank", result["pagerank"],
                 pagerank(graph, iterations), atol=1e-12)


def check_cc(graph: CSRGraph, result: dict) -> list[str]:
    """Minimum node id per weakly connected component (symmetric graphs)."""
    _, labels = csgraph.connected_components(
        _matrix(graph), directed=True, connection="weak"
    )
    smallest = np.full(labels.max() + 1, graph.num_nodes, dtype=np.int64)
    np.minimum.at(smallest, labels, np.arange(graph.num_nodes))
    return equal("cc.component", result["component"], smallest[labels])


def largest_component(graph: CSRGraph) -> np.ndarray:
    """Node ids of the largest weakly connected component."""
    _, labels = csgraph.connected_components(
        _matrix(graph), directed=True, connection="weak"
    )
    return np.flatnonzero(labels == np.bincount(labels).argmax())


def bit_identical(label: str, got: dict, want: dict) -> list[str]:
    """Same keys, dtypes and values, bit for bit."""
    if set(got) != set(want):
        return [f"{label}: keys {sorted(got)} != {sorted(want)}"]
    for key, value in want.items():
        a, b = np.asarray(got[key]), np.asarray(value)
        if a.dtype != b.dtype or a.shape != b.shape or not np.array_equal(a, b):
            return [f"{label}.{key}: not bit-identical to run_direct"]
    return []
