"""Span tracing and exact device-cycle attribution for the traced run.

:class:`Tracer` wraps public functions of the ``repro`` layers from
outside the package, so the program under test is unchanged: every
wrapped call becomes a span with a name, start, end and parent id, and
its *self time* is the span's duration minus the time its child spans
cover.  Wrappers only time the call and pass arguments and results
through untouched; the harness checks that answers and device/virtual
metrics of traced passes equal the untraced ones.

:class:`KernelAttribution` rides on the ``Device.run_kernel`` wrapper.
The cost model scores a kernel as ``max(compute, memory) + overhead +
launch``; compute and memory cycles therefore overlap, and only the one
that bounds the kernel counts towards its time.  Each kernel's ``max``
term is assigned to ``memory_bound_cycles`` or ``compute_bound_cycles``,
so the four parts partition the kernel's cycles.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any


class KernelAttribution:
    """Per-kernel split of simulated cycles into four disjoint parts."""

    def __init__(self) -> None:
        self.memory_bound: list[float] = []
        self.compute_bound: list[float] = []
        self.overhead: list[float] = []
        self.launch: list[float] = []
        self.cycles: list[float] = []
        self.kernel_seconds: list[float] = []
        self.non_kernel_seconds: list[float] = []
        self.dram_bytes: list[float] = []
        self.active_edges = 0
        self.issued_lane_cycles = 0
        #: kernels whose cycles differ from the sum of their parts
        self.inexact_kernels = 0

    def record(self, spec: Any, stats: Any, timing: Any) -> None:
        bound = max(timing.compute_cycles, timing.memory_cycles)
        if bound + timing.overhead_cycles + timing.launch_cycles != timing.cycles:
            self.inexact_kernels += 1
        if timing.bound == "memory":
            self.memory_bound.append(bound)
            self.compute_bound.append(0.0)
        else:
            self.compute_bound.append(bound)
            self.memory_bound.append(0.0)
        self.overhead.append(timing.overhead_cycles)
        self.launch.append(timing.launch_cycles)
        self.cycles.append(timing.cycles)
        self.kernel_seconds.append(spec.cycles_to_seconds(timing.cycles))
        self.dram_bytes.append(timing.dram_bytes)
        self.active_edges += int(stats.active_edges)
        self.issued_lane_cycles += int(stats.issued_lane_cycles)

    @property
    def kernels(self) -> int:
        return len(self.cycles)

    def totals(self) -> dict[str, float]:
        """Exactly rounded sums (``math.fsum``) of every part."""
        return {
            "memory_bound_cycles": math.fsum(self.memory_bound),
            "compute_bound_cycles": math.fsum(self.compute_bound),
            "overhead_cycles": math.fsum(self.overhead),
            "launch_cycles": math.fsum(self.launch),
            "total_cycles": math.fsum(self.cycles),
            "kernel_s": math.fsum(self.kernel_seconds),
            "non_kernel_s": math.fsum(self.non_kernel_seconds),
            "dram_bytes": math.fsum(self.dram_bytes),
        }

    def check(self, device_s: float) -> list[str]:
        """Problems with the attribution (empty when it is exact).

        Each kernel's parts must add to its cycles with the cost model's
        own float operations, bit for bit.  Summed over kernels, the
        parts and the cycles are both exactly rounded sums of the same
        reals, so they may differ only by that final rounding; likewise
        kernel plus non-kernel seconds against ``device_s``.
        """
        problems = []
        if self.inexact_kernels:
            problems.append(
                f"{self.inexact_kernels} kernels' cycles differ from "
                "max(compute, memory) + overhead + launch"
            )
        t = self.totals()
        parts = math.fsum(
            self.memory_bound + self.compute_bound + self.overhead + self.launch
        )
        if not math.isclose(parts, t["total_cycles"], rel_tol=1e-12):
            problems.append(
                f"cycle parts sum to {parts!r}, total_cycles is "
                f"{t['total_cycles']!r}"
            )
        seconds = t["kernel_s"] + t["non_kernel_s"]
        if not math.isclose(seconds, device_s, rel_tol=1e-9, abs_tol=1e-15):
            problems.append(
                f"kernel + non-kernel seconds {seconds!r} do not "
                f"reproduce device_s {device_s!r}"
            )
        return problems


class Tracer:
    """Wraps layer functions, records spans and per-name self time."""

    def __init__(self) -> None:
        self._patches: list[tuple[Any, str, Any]] = []
        self._stack: list[list[Any]] = []
        self._next_id = 0
        self.record_spans = False
        #: finished spans: (id, name, start, end, parent id, self, args)
        self.spans: list[tuple[int, str, float, float, int | None, float,
                               dict[str, Any]]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.kernels = KernelAttribution()
        #: id(request object) -> index in the workload's request list
        self.request_ids: dict[int, int] = {}

    # -- spans -----------------------------------------------------------

    def _open(self, name: str, args: dict[str, Any] | None) -> list[Any]:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        # [id, name, start, parent, child time, args]
        frame = [self._next_id, name, 0.0, parent, 0.0, args]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _close(self, frame: list[Any]) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[2]
        own = duration - frame[4]
        if self._stack:
            self._stack[-1][4] += duration
        self.self_s[frame[1]] += own
        self.calls[frame[1]] += 1
        if self.record_spans:
            self.spans.append((frame[0], frame[1], frame[2], end, frame[3],
                               own, frame[5] or {}))

    @contextlib.contextmanager
    def span(self, name: str, args: dict[str, Any] | None = None) -> Iterator[None]:
        """A span opened by the benchmark itself (e.g. one whole pass)."""
        frame = self._open(name, args)
        try:
            yield
        finally:
            self._close(frame)

    # -- wrapping --------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        args_of: Callable[..., dict[str, Any]] | None = None,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a timing wrapper until :meth:`uninstall`.

        ``args_of(*args)`` adds attributes to the span; ``after(result,
        *args)`` sees the call's result (used for kernel attribution).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = tracer._open(name, args_of(*args) if args_of else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(frame)
            if after is not None:
                after(result, *args)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write_chrome_trace(self, path: Path) -> None:
        """Spans as Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        origin = min((s[2] for s in self.spans), default=0.0)
        events = []
        for span_id, name, start, end, parent, own, args in self.spans:
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent,
                         "self_us": own * 1e6, **args},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
            encoding="utf-8",
        )


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the workloads reach."""
    import repro.apps  # noqa: F401  (defines every App subclass to wrap)
    import repro.reorder as reorder
    from repro.apps.base import App
    from repro.core import engine
    from repro.core.pipeline import TraversalPipeline
    from repro.core.reorder import SamplingReorderer
    from repro.core import scheduler as core_scheduler
    from repro.graph.csr import CSRGraph
    from repro.gpusim.device import Device
    from repro.multigpu.runner import MultiGpuRunner
    from repro.serve import cluster
    from repro.serve.cache import GraphStore, ResultCache
    from repro.serve.executor import BatchExecutor

    kernels = tracer.kernels

    def attribute(timing: Any, device: Any, stats: Any) -> None:
        kernels.record(device.spec, stats, timing)

    def non_kernel(_: Any, device: Any, seconds: float) -> None:
        kernels.non_kernel_seconds.append(float(seconds))

    def batch_ids(_executor: Any, _graph: Any, requests: Any) -> dict[str, Any]:
        return {"request_ids": [tracer.request_ids.get(id(r)) for r in requests]}

    tracer.wrap(CSRGraph, "expand_frontier", "graph.expand_frontier")
    tracer.wrap(CSRGraph, "permute", "graph.permute")
    tracer.wrap(GraphStore, "apply_edges", "serve.store_apply_edges")
    tracer.wrap(engine.SageScheduler, "kernel_stats", "core.kernel_stats")
    tracer.wrap(engine, "decompose_frontier", "core.decompose_frontier")
    tracer.wrap(TraversalPipeline, "run", "core.pipeline_run")
    tracer.wrap(SamplingReorderer, "compute_round", "core.reorder_round")
    for module in (engine, core_scheduler):
        tracer.wrap(module, "segmented_distinct_sectors",
                    "gpusim.segmented_distinct_sectors")
    tracer.wrap(Device, "run_kernel", "gpusim.run_kernel", after=attribute)
    tracer.wrap(Device, "add_seconds", "gpusim.add_seconds", after=non_kernel)
    for cls in _subclasses(App):
        for attr, name in (("process_level", "apps.process_level"),
                           ("setup", "apps.setup")):
            if attr in cls.__dict__:
                tracer.wrap(cls, attr, name)
    for method in ("gorder_order", "llp_order", "rcm_order"):
        tracer.wrap(reorder, method, "reorder." + method.split("_")[0])
    tracer.wrap(MultiGpuRunner, "run", "multigpu.run")
    tracer.wrap(BatchExecutor, "execute", "serve.execute", args_of=batch_ids)
    tracer.wrap(ResultCache, "get", "serve.cache_get")
    tracer.wrap(ResultCache, "put", "serve.cache_put")
    tracer.wrap(ResultCache, "apply_delta", "serve.cache_apply_delta")
    tracer.wrap(cluster, "simulate_cluster_open_loop", "serve.loop")


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return list(dict.fromkeys(out))
