"""Multi-GPU traversal runner (paper Figure 9).

Nodes are partitioned across devices; every iteration each GPU expands
its share of the frontier, then boundary-crossing frontier updates are
exchanged over the peer link and the devices synchronize.  The paper's
observation that "using two GPUs does not always lead to better
performance" falls out of the model: per-iteration kernels shrink, but
the exchange + synchronization cost is paid every iteration.

Bulk-synchronous engines (Gunrock-style, SAGE) pay the full barrier;
Groute's asynchronous model overlaps communication with compute and pays
a reduced coordination cost (``async_mode=True``).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.apps.base import App
from repro.core.frontier import FrontierQueue
from repro.core.pipeline import RunResult
from repro.core.scheduler import Scheduler
from repro.errors import ConvergenceError, InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.gpusim.device import Device
from repro.gpusim.memory import distinct_count
from repro.gpusim.profiler import Profiler
from repro.gpusim.spec import LinkSpec, NVLINK2
from repro.gpusim.streams import KERNEL, TraceNode, kernel_occupancy
from repro.obs import NULL_REGISTRY, MetricsRegistry

#: bulk-synchronous barrier cost per iteration (all-device sync).
SYNC_BARRIER_US = 1.5
#: Groute-style asynchronous coordination cost per iteration.
ASYNC_COORD_US = 0.8
#: bytes per exchanged frontier update (node id + payload value).
BYTES_PER_MESSAGE = 8


class MultiGpuRunner:
    """Runs one application across ``k`` simulated GPUs."""

    def __init__(
        self,
        scheduler_factory: Callable[[], Scheduler],
        assignment: np.ndarray,
        *,
        num_gpus: int = 2,
        link: LinkSpec = NVLINK2,
        async_mode: bool = False,
        name: str | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if num_gpus < 1:
            raise InvalidParameterError("num_gpus must be >= 1")
        self.assignment = np.asarray(assignment, dtype=np.int64)
        if self.assignment.size and (
            self.assignment.max() >= num_gpus or self.assignment.min() < 0
        ):
            raise InvalidParameterError("assignment references unknown GPU")
        self.num_gpus = num_gpus
        self.link = link
        self.async_mode = async_mode
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        # Each simulated GPU reports into its own registry — mirroring a
        # per-device collector in a real deployment — and the per-device
        # registries are merged into the run registry under gpu<i>.*.
        self.device_metrics = [
            MetricsRegistry(enabled=self.metrics.enabled)
            for _ in range(num_gpus)
        ]
        self.schedulers = [scheduler_factory() for _ in range(num_gpus)]
        for scheduler, registry in zip(self.schedulers, self.device_metrics):
            scheduler.set_metrics(registry)
        self.devices = [Device(s.spec) for s in self.schedulers]
        base = self.schedulers[0].name
        self.name = name or f"{base}-x{num_gpus}"

    def run(
        self,
        graph: CSRGraph,
        app: App,
        source: int | None = None,
        *,
        max_iterations: int = 100_000,
    ) -> RunResult:
        """Execute ``app`` across the GPUs; returns makespan timing."""
        metrics = self.metrics
        app.setup(graph, source)
        for scheduler, registry in zip(self.schedulers, self.device_metrics):
            scheduler.set_metrics(registry)
            scheduler.reset(graph)
        queue = FrontierQueue(app.initial_frontier())
        seconds = 0.0
        comm_seconds = 0.0
        edges_traversed = 0
        messages = 0
        iterations = 0
        node_trace: list[TraceNode] = []
        run_span = metrics.span(
            "multigpu.run", runner=self.name, app=app.name,
            num_gpus=self.num_gpus, async_mode=self.async_mode,
        )
        with run_span:
            while not queue.empty:
                if iterations >= max_iterations:
                    raise ConvergenceError(
                        f"{app.name} exceeded {max_iterations} iterations"
                    )
                frontier = queue.current
                # One device owns every node: no partition to split by.
                owners = (
                    self.assignment[frontier] if self.num_gpus > 1 else None
                )
                gpu_seconds = np.zeros(self.num_gpus)
                gpu_timings = []
                all_src: list[np.ndarray] = []
                all_dst: list[np.ndarray] = []
                all_pos: list[np.ndarray] = []
                remote_updates = 0
                it_span = metrics.span(
                    "iteration", index=iterations,
                    frontier_size=int(frontier.size),
                )
                with it_span:
                    for gpu in range(self.num_gpus):
                        local = (
                            frontier if owners is None
                            else frontier[owners == gpu]
                        )
                        if local.size == 0:
                            continue
                        edge_src, edge_dst, edge_pos = (
                            graph.expand_frontier(local)
                        )
                        degrees = (graph.offsets[local + 1]
                                   - graph.offsets[local])
                        stats = self.schedulers[gpu].kernel_stats(
                            local, degrees, edge_dst, graph, app
                        )
                        with metrics.span("kernel", gpu=gpu) as k_span:
                            timing = self.devices[gpu].run_kernel(stats)
                            k_span.set("cycles", timing.cycles)
                            k_span.set("dram_bytes", timing.dram_bytes)
                        spec = self.devices[gpu].spec
                        gpu_seconds[gpu] = spec.cycles_to_seconds(
                            timing.cycles
                        )
                        gpu_timings.append(timing)
                        if owners is not None:
                            remote = edge_dst[self.assignment[edge_dst] != gpu]
                            # Engines aggregate frontier updates per node
                            # before shipping: a remote node is announced
                            # once, not once per incoming edge.
                            remote_updates += distinct_count(remote)
                        all_src.append(edge_src)
                        all_dst.append(edge_dst)
                        all_pos.append(edge_pos)
                        edges_traversed += int(edge_dst.size)
                    if len(all_src) == 1:
                        edge_src, edge_dst, edge_pos = (
                            all_src[0], all_dst[0], all_pos[0]
                        )
                    elif all_src:
                        edge_src = np.concatenate(all_src)
                        edge_dst = np.concatenate(all_dst)
                        edge_pos = np.concatenate(all_pos)
                    else:
                        edge_src = edge_dst = edge_pos = np.empty(
                            0, dtype=np.int64
                        )

                    exchange = self._exchange_seconds(remote_updates)
                    if self.async_mode:
                        # Asynchronous engines overlap communication with
                        # the slowest device's compute.
                        iter_seconds = max(
                            float(gpu_seconds.max(initial=0.0)), exchange
                        ) + ASYNC_COORD_US * 1e-6
                    else:
                        iter_seconds = (
                            float(gpu_seconds.max(initial=0.0)) + exchange
                            + (SYNC_BARRIER_US * 1e-6
                               if self.num_gpus > 1 else 0.0)
                        )
                    it_span.set("exchange_seconds", exchange)
                    it_span.set("remote_updates", remote_updates)
                    # With one device the iteration is exactly one kernel,
                    # so the trace can carry its honest occupancy; the
                    # multi-device makespan (kernels + exchange + barrier)
                    # is opaque to overlap and pinned at full occupancy.
                    occupancy = (
                        kernel_occupancy(gpu_timings[0])
                        if self.num_gpus == 1 and len(gpu_timings) == 1
                        else 1.0
                    )
                    node_trace.append(TraceNode(
                        KERNEL, iter_seconds, occupancy=occupancy,
                        iteration=iterations,
                    ))
                    seconds += iter_seconds
                    comm_seconds += exchange
                    messages += remote_updates

                    next_frontier = app.process_level(
                        edge_src, edge_dst,
                        edge_pos if app.needs_edge_positions else None,
                    )
                    queue.publish_next(next_frontier)
                    queue.swap()
                    iterations += 1

            run_span.set("simulated_seconds", seconds)
            run_span.set("comm_seconds", comm_seconds)
            metrics.count("multigpu.messages", messages)
            metrics.count("multigpu.comm_seconds", comm_seconds)
            metrics.count("multigpu.iterations", iterations)

        profiler = Profiler()
        for gpu, device in enumerate(self.devices):
            profiler = profiler.merged_with(device.profiler)
            self.device_metrics[gpu].fold_profiler(device.profiler)
            metrics.merge(self.device_metrics[gpu], prefix=f"gpu{gpu}.")
            self.device_metrics[gpu].reset()
        metrics.fold_profiler(profiler)
        result = RunResult(
            app_name=app.name,
            scheduler_name=self.name,
            seconds=seconds,
            iterations=iterations,
            edges_traversed=edges_traversed,
            result=app.result(),
            profiler=profiler,
            node_trace=node_trace,
        )
        result.extras["comm_seconds"] = comm_seconds
        result.extras["messages"] = float(messages)
        return result

    def _exchange_seconds(self, remote_updates: int) -> float:
        if self.num_gpus == 1 or remote_updates == 0:
            return 0.0
        payload = remote_updates * BYTES_PER_MESSAGE
        # One aggregated buffer per peer pair; engines batch messages.
        requests = self.num_gpus - 1
        return self.link.transfer_seconds(payload, requests=requests)
