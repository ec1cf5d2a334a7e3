"""The benchmark's four seeded workloads.

Each workload generates its inputs from the seed in :meth:`build`, runs
one fixed unit of work per :meth:`run_pass` and checks a pass's answers
against independent oracles in :meth:`check`.  Passes are closed loops
with one client on one thread, except that the serving workloads replay
an open-loop Poisson trace inside the virtual-time cluster simulator.
Why each workload exists, and which layers it stresses or leaves idle,
is recorded in ``PROVENANCE.md`` next to this file.

Only entry points meant to outlive the repository's planned clean-ups
are called: ``TraversalPipeline``, ``simulate_cluster_open_loop`` (with
``updates=``, which reaches ``GraphStore.apply_edges``), ``run_direct``
and the ``repro.reorder`` orderings.  Module attributes that the traced
run wraps (``cluster.simulate_cluster_open_loop``, ``reorder.*_order``)
are looked up at call time so the wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro.reorder as reorder
from repro.apps import (
    BCApp,
    BFSApp,
    ConnectedComponentsApp,
    PageRankApp,
    SSSPApp,
)
from repro.core import SageScheduler, TraversalPipeline
from repro.graph import datasets, generators
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph
from repro.obs import MetricsRegistry
from repro.serve import cluster
from repro.serve.executor import BatchExecutor, run_direct
from repro.serve.loadgen import (
    DEFAULT_MIX,
    SAMPLING_MIX,
    generate_queries,
    open_loop_arrivals,
    skew_sources,
)
from repro.serve.request import QueryStatus

import oracles

#: PageRank iterations in every analytics and reorder pass.
PR_ITERATIONS = 10


@dataclass
class PassResult:
    """What one pass did, on the device and virtual clocks."""

    device_s: float
    edges: int
    queries: int
    #: non-OK responses (shed, throttled, timed out, errored)
    errors: int
    digest: str
    answers: Any = field(default=None, repr=False)
    #: virtual-clock figures of the pass (serving workloads only)
    virtual: dict[str, float] = field(default_factory=dict)
    #: MetricsRegistry counters plus report figures (traced passes only)
    counters: dict[str, float] = field(default_factory=dict)
    #: wall time of the pass, set by the harness
    host_s: float = 0.0


class _Digest:
    """Order-sensitive hash of a pass's answers and clock readings."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, value: Any) -> None:
        if isinstance(value, np.ndarray):
            self._h.update(f"{value.dtype.str}{value.shape}".encode())
            self._h.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, dict):
            for key in sorted(value):
                self.add(key)
                self.add(value[key])
        else:
            self._h.update(repr(value).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _make_app(kind: str):
    return {
        "bfs": BFSApp,
        "bc": BCApp,
        "sssp": SSSPApp,
        "cc": ConnectedComponentsApp,
        "pr": lambda: PageRankApp(max_iterations=PR_ITERATIONS),
    }[kind]()


def _run_queries(graph: CSRGraph, scheduler_factory, registry, queries,
                 answers, digest) -> tuple[float, int]:
    """Run ``(kind, source)`` queries; returns device seconds and edges.

    Each query gets its own pipeline.  A pipeline keeps the ordering a
    sampling-reorder run committed, and a later run's source (given in
    original ids) would then name another node.
    """
    device_s = 0.0
    edges = 0
    for kind, source in queries:
        pipeline = TraversalPipeline(graph, scheduler_factory(), metrics=registry)
        run = pipeline.run(_make_app(kind), source)
        device_s += run.seconds
        edges += run.edges_traversed
        answers.append((kind, source, run.result))
        digest.add((kind, source, run.seconds, run.iterations))
        digest.add(run.result)
    return device_s, edges


def _symmetric_rmat(scale: int, edge_factor: int, seed: int) -> CSRGraph:
    """Undirected R-MAT, as Graph500 uses it, stored in both directions."""
    raw = generators.rmat(scale, edge_factor, seed=seed)
    coo = raw.to_coo()
    return CSRGraph.from_edges(
        raw.num_nodes, coo.src, coo.dst, symmetric=True, drop_self_loops=True
    )


def _registry_counters(registry: MetricsRegistry | None) -> dict[str, float]:
    return dict(registry.counters) if registry is not None else {}


class _Workload:
    """Defaults for workloads without a request trace or rate ladder."""

    #: request objects of the trace (serve spans report their indices)
    requests: list = []
    REFERENCE_RATE: int | None = None

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def ladder(self) -> dict[int, PassResult]:
        return {}


class AnalyticsRmat(_Workload):
    """BFS, BC, SSSP, PR-10 and CC on a symmetric R-MAT scale-17 graph."""

    name = "analytics_rmat"
    SCALE = 17
    #: edge factor before symmetrization; about 1M directed edges after
    EDGE_FACTOR = 4
    BFS_SOURCES = 4
    BC_SOURCES = 2
    SSSP_SOURCES = 4

    def build(self) -> None:
        self.graph = _symmetric_rmat(self.SCALE, self.EDGE_FACTOR, self.seed)
        # Sources come from the giant component, so a pass's work does
        # not swing with whether a seed happens to pick a tiny island.
        giant = oracles.largest_component(self.graph)
        rng = np.random.default_rng(self.seed)
        picks = [int(s) for s in rng.choice(
            giant, self.BFS_SOURCES + self.BC_SOURCES + self.SSSP_SOURCES,
            replace=False,
        )]
        kinds = (["bfs"] * self.BFS_SOURCES + ["bc"] * self.BC_SOURCES
                 + ["sssp"] * self.SSSP_SOURCES)
        self.queries = list(zip(kinds, picks)) + [("pr", None), ("cc", None)]

    def run_pass(self, registry: MetricsRegistry | None = None) -> PassResult:
        answers: list = []
        digest = _Digest()
        device_s, edges = _run_queries(
            self.graph, SageScheduler, registry, self.queries, answers, digest
        )
        return PassResult(
            device_s=device_s, edges=edges, queries=len(self.queries),
            errors=0, digest=digest.hexdigest(), answers=answers,
            counters=_registry_counters(registry),
        )

    def check(self, result: PassResult) -> tuple[int, list[str]]:
        problems: list[str] = []
        for kind, source, answer in result.answers:
            if kind == "bfs":
                problems += oracles.check_bfs(self.graph, source, answer)
            elif kind == "bc":
                problems += oracles.check_bc(self.graph, source, answer)
            elif kind == "sssp":
                problems += oracles.check_sssp(self.graph, source, answer)
            elif kind == "pr":
                problems += oracles.check_pr(self.graph, PR_ITERATIONS, answer)
            else:
                problems += oracles.check_cc(self.graph, answer)
        return len(result.answers), problems


class ReorderSocial(_Workload):
    """Gorder, LLP and RCM on the twitter stand-in, then traversals on each.

    The same BFS sources plus PR-10 run on the original ordering, on each
    reordered graph, and with SAGE's own sampling-based reordering on the
    original ordering.  ``device_s`` therefore carries ordering quality.
    """

    name = "reorder_social"
    SCALE = 0.5
    BFS_SOURCES = 4
    METHODS = ("gorder", "llp", "rcm")

    def build(self) -> None:
        # The stand-in is a fixed graph; bypass the dataset memo so every
        # set-up repetition pays for generation.  The seed picks sources.
        self.graph = datasets.twitter_like.__wrapped__(self.SCALE).graph
        rng = np.random.default_rng(self.seed)
        candidates = np.flatnonzero(self.graph.out_degrees() > 0)
        self.sources = [int(s) for s in rng.choice(
            candidates, self.BFS_SOURCES, replace=False
        )]

    def _queries(self, perm: np.ndarray | None):
        mapped = self.sources if perm is None else [int(perm[s]) for s in self.sources]
        return [("bfs", s) for s in mapped] + [("pr", None)]

    def run_pass(self, registry: MetricsRegistry | None = None) -> PassResult:
        answers: dict[str, Any] = {}
        digest = _Digest()
        device_s = 0.0
        edges = 0
        queries = 0
        variants: list[tuple[str, np.ndarray | None]] = [("original", None)]
        for method in self.METHODS:
            perm = getattr(reorder, f"{method}_order")(self.graph)
            variants.append((method, perm))
        for label, perm in variants:
            graph = self.graph if perm is None else self.graph.permute(perm)
            runs: list = []
            d, e = _run_queries(graph, SageScheduler, registry,
                                self._queries(perm), runs, digest)
            device_s, edges, queries = device_s + d, edges + e, queries + len(runs)
            answers[label] = (perm, runs)
        runs = []
        d, e = _run_queries(
            self.graph, lambda: SageScheduler(sampling_reorder=True), registry,
            self._queries(None), runs, digest,
        )
        device_s, edges, queries = device_s + d, edges + e, queries + len(runs)
        answers["sampling_reorder"] = (None, runs)
        return PassResult(
            device_s=device_s, edges=edges, queries=queries, errors=0,
            digest=digest.hexdigest(), answers=answers,
            counters=_registry_counters(registry),
        )

    def check(self, result: PassResult) -> tuple[int, list[str]]:
        problems: list[str] = []
        checks = 0
        n = self.graph.num_nodes
        _, base = result.answers["original"]
        for (_, source, answer) in base[:-1]:
            problems += oracles.check_bfs(self.graph, source, answer)
            checks += 1
        base_pr = base[-1][2]["pagerank"]
        problems += oracles.check_pr(self.graph, PR_ITERATIONS, base[-1][2])
        checks += 1
        for label, (perm, runs) in result.answers.items():
            if label == "original":
                continue
            if perm is not None:
                checks += 1
                if not reorder.is_permutation(perm, n):
                    problems.append(f"{label}: ordering is not a permutation")
                    continue
            # Reordered answers are indexed by new ids; read them back
            # through the permutation.  SAGE's own reordering already
            # reports original ids.
            back = (lambda a: a) if perm is None else (lambda a: a[perm])
            for (_, _, want), (_, _, got) in zip(base[:-1], runs[:-1]):
                problems += oracles.equal(
                    f"{label}.bfs.dist", back(got["dist"]), want["dist"]
                )
                checks += 1
            problems += oracles.close(
                f"{label}.pr.pagerank", back(runs[-1][2]["pagerank"]), base_pr
            )
            checks += 1
        return checks, problems


class ServeSkewed(_Workload):
    """Open-loop skewed traffic through the two-replica cluster simulator."""

    name = "serve_skewed"
    SCALE = 14
    #: edge factor before symmetrization; about 120k directed edges after
    EDGE_FACTOR = 4
    NUM_QUERIES = 1000
    #: even blend of the shipped traversal and sampling mixes:
    #: bfs .4, pr .05, sssp .05, walk .25, node2vec .1, khop .1, sppr .05
    MIX = {**{k: v / 2 for k, v in DEFAULT_MIX.items()},
           **{k: v / 2 for k, v in SAMPLING_MIX.items()}}
    HOT_SET = 32
    #: cache hits answer at virtual latency 0; at this share of hot
    #: queries they stay under half of the responses, so the median
    #: latency is a served request's
    HOT_FRACTION = 0.5
    #: fixed rate ladder around the admission cliff (queries per second)
    RATES = (1000, 3000, 6000, 12000)
    REFERENCE_RATE = 3000
    REPLICAS = 2
    #: p99 latency limit: twice the simulator's shipped batch window
    SLO_P99_S = 2 * inspect.signature(
        cluster.simulate_cluster_open_loop
    ).parameters["batch_window"].default
    SLO_ERROR_RATE = 0.01
    #: OK responses re-run through run_direct, per checked rate
    CHECK_SAMPLE = 32

    def build(self) -> None:
        self.graph = _symmetric_rmat(self.SCALE, self.EDGE_FACTOR, self.seed)
        # Sources come from the giant component, where every query does
        # comparable work, so seeds move the work per pass little.
        active = oracles.largest_component(self.graph)
        # Exact per-kind counts in a seeded order: a random mix would let
        # the share of expensive kinds (SSSP) swing the work per seed.
        requests = []
        for i, (kind, share) in enumerate(sorted(self.MIX.items())):
            requests += generate_queries(
                "g", active.size, round(share * self.NUM_QUERIES),
                mix={kind: 1.0}, seed=self.seed * 101 + i,
            )
        order = np.random.default_rng(self.seed).permutation(len(requests))
        requests = skew_sources(
            [requests[i] for i in order], hot_set_size=self.HOT_SET,
            hot_fraction=self.HOT_FRACTION, num_nodes=active.size,
            seed=self.seed,
        )
        self.requests = [
            r if r.source is None
            else dataclasses.replace(r, source=int(active[r.source]))
            for r in requests
        ]
        self.arrivals = {
            rate: open_loop_arrivals(len(self.requests), rate, seed=self.seed)
            for rate in self.RATES
        }
        self.updates = self._updates()

    def _updates(self) -> list:
        return []

    def _graphs(self) -> dict[str, Any]:
        return {"g": self.graph}

    def simulate(self, rate: int, registry: MetricsRegistry | None = None):
        return cluster.simulate_cluster_open_loop(
            self._graphs(), self.requests, self.arrivals[rate], SageScheduler,
            num_replicas=self.REPLICAS, updates=self.updates or None,
            executor=BatchExecutor(SageScheduler, metrics=registry),
            metrics=registry,
        )

    def _summarize(self, rate: int, registry: MetricsRegistry | None) -> PassResult:
        responses, report = self.simulate(rate, registry)
        digest = _Digest()
        ok_latency = []
        for response in responses:
            digest.add((response.status.value, response.latency_seconds,
                        response.batch_id))
            if response.status is QueryStatus.OK:
                ok_latency.append(response.latency_seconds)
                digest.add(response.result)
        errors = len(responses) - len(ok_latency)
        # Latency over OK responses only: the report's own percentiles
        # include shed responses at latency 0 (see PROVENANCE.md).
        lat = np.asarray(ok_latency)
        virtual = {
            "latency_p50_s": float(np.percentile(lat, 50)) if lat.size else 0.0,
            "latency_p99_s": float(np.percentile(lat, 99)) if lat.size else 0.0,
            "latency_samples": float(lat.size),
            "error_rate": errors / len(responses),
        }
        digest.add(virtual)
        digest.add(report.sim_seconds_total)
        counters = _registry_counters(registry)
        counters.update({
            "report.batches": float(report.num_batches),
            "report.batch_occupancy_mean": report.batch_occupancy_mean,
            "report.cache_hit_ratio": report.cache_hit_ratio,
            "report.replica_occupancy_mean": report.replica_occupancy_mean,
            "report.shed": float(report.shed),
            "report.throttled": float(report.throttled),
            "report.graph_updates": float(report.graph_updates),
        })
        return PassResult(
            device_s=report.sim_seconds_total,
            edges=int(counters.get("gpusim.active_edges", 0)),
            queries=len(responses), errors=errors,
            digest=digest.hexdigest(), answers=responses,
            virtual=virtual, counters=counters,
        )

    def run_pass(self, registry: MetricsRegistry | None = None) -> PassResult:
        return self._summarize(self.REFERENCE_RATE, registry)

    def ladder(self) -> dict[int, PassResult]:
        """Every rate of the ladder, once (virtual-clock figures only)."""
        return {rate: self._summarize(rate, None) for rate in self.RATES}

    def _versions(self) -> tuple[list[CSRGraph], np.ndarray]:
        """Every graph version the trace can see, and when each begins."""
        return [self.graph], np.zeros(1)

    def check(self, result: PassResult, rate: int | None = None) -> tuple[int, list[str]]:
        """A seeded sample of OK responses must equal ``run_direct``.

        A response may come from any graph version current between its
        arrival and its completion (batches execute against the version
        current at dispatch; cache hits are answered at arrival).
        """
        rate = self.REFERENCE_RATE if rate is None else rate
        versions, starts = self._versions()
        arrivals = self.arrivals[rate]
        ok = [i for i, r in enumerate(result.answers) if r.status is QueryStatus.OK]
        rng = np.random.default_rng(self.seed + rate)
        sample = sorted(rng.choice(ok, min(self.CHECK_SAMPLE, len(ok)), replace=False))
        problems: list[str] = []
        for i in sample:
            response, request = result.answers[i], self.requests[i]
            first = int(np.searchsorted(starts, arrivals[i], side="right")) - 1
            last = int(np.searchsorted(
                starts, arrivals[i] + response.latency_seconds, side="right"
            )) - 1
            label = f"rate {rate} request {i} ({request.app})"
            for version in versions[first:last + 1]:
                oracle = run_direct(version, request, SageScheduler)
                if not oracles.bit_identical(label, response.result, oracle.result):
                    break
            else:
                problems.append(f"{label}: matches run_direct on no graph version")
        return len(sample), problems


class ServeUpdates(ServeSkewed):
    """The serve_skewed trace at its reference rate plus edge-insert batches."""

    name = "serve_updates"
    UPDATE_BATCHES = 10
    UPDATE_EDGES = 64

    def _updates(self) -> list:
        # A fixed cadence across the trace; the seed picks the edges.
        span = float(self.arrivals[self.REFERENCE_RATE][-1])
        times = span * np.arange(1, self.UPDATE_BATCHES + 1) / (self.UPDATE_BATCHES + 1)
        rng = np.random.default_rng(self.seed + 1)
        n = self.graph.num_nodes
        return [
            (float(t), "g",
             rng.integers(0, n, self.UPDATE_EDGES, dtype=np.int64),
             rng.integers(0, n, self.UPDATE_EDGES, dtype=np.int64))
            for t in times
        ]

    def _graphs(self) -> dict[str, Any]:
        # Updates mutate the handle, so every pass starts from the base graph.
        return {"g": DynamicGraph(self.graph)}

    def _versions(self) -> tuple[list[CSRGraph], np.ndarray]:
        replay = DynamicGraph(self.graph)
        versions = [self.graph]
        for _, _, src, dst in self.updates:
            replay.insert_edges(src, dst)
            replay.flush()
            versions.append(replay.graph)
        starts = np.concatenate([[0.0], [u[0] for u in self.updates]])
        return versions, starts

    def ladder(self) -> dict[int, PassResult]:
        return {}


WORKLOADS = {
    cls.name: cls
    for cls in (AnalyticsRmat, ReorderSocial, ServeSkewed, ServeUpdates)
}
