"""Kernel hazard sanitizer tests.

Two halves of the contract:

* **detection** — every seeded hazard class is flagged with the right
  structured finding code;
* **cleanliness** — every workload of the perf-trajectory smoke suite
  passes with zero findings, and enabling the sanitizer leaves the
  simulated timing and the non-sanitizer metrics bit-identical.
"""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from repro.analysis import FINDING_CODES, Finding, Sanitizer, SanitizerError
from repro.apps import BFSApp, PageRankApp
from repro.cli import main
from repro.core import SageScheduler, TraversalPipeline, run_app
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.gpusim.cost import KernelStats
from repro.gpusim.device import Device
from repro.gpusim.spec import GPUSpec
from repro.obs import MetricsRegistry

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def load_bench_trajectory():
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory", BENCH_DIR / "bench_trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _begin(graph, app) -> Sanitizer:
    sanitizer = Sanitizer()
    sanitizer.begin_run(graph, app)
    return sanitizer


def _codes(findings: list[Finding]) -> list[str]:
    return [finding.code for finding in findings]


class TestSeededHazards:
    """Each hazard class, seeded directly into a check call."""

    def test_write_write_hazard_in_nonatomic_app(self, tiny_graph):
        sanitizer = _begin(tiny_graph, BFSApp())
        frontier = np.array([0, 1], dtype=np.int64)
        degrees = np.array([3, 2], dtype=np.int64)
        # destination 2 written twice inside node 0's work unit
        edge_dst = np.array([1, 2, 2, 3, 0], dtype=np.int64)
        found = sanitizer.check_level(0, frontier, degrees, edge_dst)
        assert "write_write_hazard" in _codes(found)
        hazard = next(f for f in found if f.code == "write_write_hazard")
        assert hazard.work_unit == 0
        assert hazard.details["destinations"] == [2]

    def test_cross_unit_duplicates_are_legitimate(self, tiny_graph):
        sanitizer = _begin(tiny_graph, BFSApp())
        frontier = np.array([0, 1], dtype=np.int64)
        degrees = np.array([2, 2], dtype=np.int64)
        # both units write 2 — concurrent units, not a hazard
        edge_dst = np.array([1, 2, 2, 3], dtype=np.int64)
        assert sanitizer.check_level(0, frontier, degrees, edge_dst) == []

    def test_atomic_app_tolerates_duplicates(self, tiny_graph):
        sanitizer = _begin(tiny_graph, PageRankApp())
        frontier = np.array([0], dtype=np.int64)
        degrees = np.array([3], dtype=np.int64)
        edge_dst = np.array([2, 2, 2], dtype=np.int64)
        assert sanitizer.check_level(0, frontier, degrees, edge_dst) == []

    def test_oob_vertex_index(self, tiny_graph):
        sanitizer = _begin(tiny_graph, BFSApp())
        frontier = np.array([0], dtype=np.int64)
        degrees = np.array([2], dtype=np.int64)
        edge_dst = np.array([1, 99], dtype=np.int64)  # 99 >= num_nodes
        found = sanitizer.check_level(0, frontier, degrees, edge_dst)
        assert "oob_vertex_index" in _codes(found)
        oob = next(f for f in found if f.code == "oob_vertex_index")
        assert 99 in oob.details["examples"]

    def test_oob_edge_index(self, tiny_graph):
        sanitizer = _begin(tiny_graph, BFSApp())
        frontier = np.array([0], dtype=np.int64)
        degrees = np.array([1], dtype=np.int64)
        edge_dst = np.array([1], dtype=np.int64)
        edge_pos = np.array([tiny_graph.num_edges + 5], dtype=np.int64)
        found = sanitizer.check_level(0, frontier, degrees, edge_dst, edge_pos)
        assert "oob_edge_index" in _codes(found)

    def test_dtype_overflow_on_narrowed_batch(self):
        # 8192 nodes: byte addresses at 8 B/value exceed int16's 32767
        graph = rmat(13, edge_factor=2, seed=3)
        sanitizer = Sanitizer()
        sanitizer.begin_run(graph, BFSApp(), value_bytes=8)
        frontier = np.array([0], dtype=np.int64)
        degrees = np.array([1], dtype=np.int64)
        edge_dst = np.array([100], dtype=np.int16)
        found = sanitizer.check_level(0, frontier, degrees, edge_dst)
        assert "dtype_overflow" in _codes(found)

    def test_wide_dtype_does_not_overflow(self):
        graph = rmat(13, edge_factor=2, seed=3)
        sanitizer = Sanitizer()
        sanitizer.begin_run(graph, BFSApp(), value_bytes=8)
        frontier = np.array([0], dtype=np.int64)
        degrees = np.array([1], dtype=np.int64)
        edge_dst = np.array([100], dtype=np.int64)
        assert sanitizer.check_level(0, frontier, degrees, edge_dst) == []

    def test_frontier_duplicates(self, tiny_graph):
        sanitizer = _begin(tiny_graph, BFSApp())
        frontier = np.array([1, 1, 2], dtype=np.int64)
        degrees = np.array([1, 1, 2], dtype=np.int64)
        edge_dst = np.array([2, 2, 0, 3], dtype=np.int64)
        found = sanitizer.check_level(0, frontier, degrees, edge_dst)
        assert "frontier_duplicates" in _codes(found)

    def test_nonmonotone_level_revisit(self, tiny_graph):
        sanitizer = _begin(tiny_graph, BFSApp())
        one = np.array([1], dtype=np.int64)
        sanitizer.check_level(0, np.array([0], dtype=np.int64), one, one)
        # node 0 settled at level 0; re-entering the frontier is flagged
        found = sanitizer.check_level(
            1, np.array([0], dtype=np.int64), one, one
        )
        assert "nonmonotone_level" in _codes(found)

    def test_invalid_permutation(self, tiny_graph):
        sanitizer = _begin(tiny_graph, BFSApp())
        sanitizer.check_commit(np.array([0, 0, 1, 2]), tiny_graph.num_nodes)
        assert _codes(sanitizer.findings) == ["invalid_permutation"]
        sanitizer.check_commit(np.array([3, 2, 1, 0]), tiny_graph.num_nodes)
        assert len(sanitizer.findings) == 1  # valid perm adds nothing

    def test_work_unit_gap(self, tiny_graph):
        sanitizer = _begin(tiny_graph, BFSApp())
        sanitizer.check_work_units(
            np.array([4]), np.array([1]), total_edges=6
        )
        assert _codes(sanitizer.findings) == ["work_unit_gap"]

    def test_cost_table_mismatch_on_foreign_batch(self):
        # Two graphs with the same degrees but different adjacency: the
        # other graph's batch is not this graph's expansion of [0].
        src = np.zeros(40, dtype=np.int64)
        graph = CSRGraph.from_edges(64, src, np.arange(40))
        other = CSRGraph.from_edges(64, src, np.r_[0:20, 44:64])
        frontier = np.array([0], dtype=np.int64)
        degrees = graph.offsets[frontier + 1] - graph.offsets[frontier]
        app = BFSApp()
        app.setup(graph, 0)
        for batch_of, want in ((graph, []), (other, ["cost_table_mismatch"])):
            sanitizer = _begin(graph, app)
            scheduler = SageScheduler()
            scheduler.set_sanitizer(sanitizer)
            scheduler.reset(graph)
            edge_dst = batch_of.expand_frontier(frontier)[1]
            scheduler.kernel_stats(frontier, degrees, edge_dst, graph, app)
            assert _codes(sanitizer.findings) == want
        (finding,) = sanitizer.findings
        assert set(finding.details) == {"value_sectors"}

    def test_kernel_stats_inconsistent(self, tiny_graph):
        sanitizer = _begin(tiny_graph, BFSApp())
        stats = KernelStats(active_edges=10, issued_lane_cycles=5)
        sanitizer.check_kernel_stats(stats, GPUSpec())
        assert "kernel_stats_inconsistent" in _codes(sanitizer.findings)

    def test_device_hook_audits_batches(self, tiny_graph):
        sanitizer = _begin(tiny_graph, BFSApp())
        device = Device(sanitizer=sanitizer)
        device.run_kernel(
            KernelStats(active_edges=4, issued_lane_cycles=8,
                        concurrency_warps=0.0)
        )
        assert "kernel_stats_inconsistent" in _codes(sanitizer.findings)

    def test_fail_fast_raises(self, tiny_graph):
        sanitizer = Sanitizer(fail_fast=True)
        sanitizer.begin_run(tiny_graph, BFSApp())
        with pytest.raises(SanitizerError, match="frontier_duplicates"):
            sanitizer.check_level(
                0,
                np.array([1, 1], dtype=np.int64),
                np.array([1, 1], dtype=np.int64),
                np.array([2, 2], dtype=np.int64),
            )

    def test_max_findings_caps_storage_not_counting(self, tiny_graph):
        sanitizer = Sanitizer(max_findings=2)
        sanitizer.begin_run(tiny_graph, BFSApp())
        for _ in range(5):
            sanitizer.check_commit(np.array([0]), tiny_graph.num_nodes)
        assert len(sanitizer.findings) == 2
        assert sanitizer.total_findings == 5
        assert not sanitizer.clean


class TestCleanRuns:
    """The real pipeline and suite produce zero findings."""

    def test_every_smoke_workload_is_clean(self):
        bench = load_bench_trajectory()
        sanitizer = Sanitizer()
        for name, runner in bench._workloads(True, sanitizer).items():
            runner()
            assert sanitizer.clean, (
                f"{name}: {sanitizer.format_summary()}"
            )
        assert sanitizer.levels_checked > 0
        assert sanitizer.kernels_checked > 0

    def test_reordering_run_is_clean(self, skewed_graph):
        sanitizer = Sanitizer()
        result = TraversalPipeline(
            skewed_graph,
            SageScheduler(sampling_reorder=True),
            sanitizer=sanitizer,
        ).run(PageRankApp(max_iterations=10), 0)
        assert sanitizer.clean, sanitizer.format_summary()
        assert result.iterations > 0

    def test_out_of_core_run_is_clean(self, skewed_graph):
        from repro.outofcore.runners import SageOutOfCoreRunner

        sanitizer = Sanitizer()
        runner = SageOutOfCoreRunner(device_fraction=0.25)
        runner.set_sanitizer(sanitizer)
        runner.run(skewed_graph, BFSApp(), 0)
        assert sanitizer.clean, sanitizer.format_summary()
        assert sanitizer.levels_checked > 0


class TestZeroPerturbation:
    """--sanitize must not move a single simulated number."""

    def test_timing_and_metrics_bit_identical(self, skewed_graph):
        plain = MetricsRegistry()
        sanitized = MetricsRegistry()
        r1 = run_app(skewed_graph, BFSApp(), SageScheduler(), source=0,
                     metrics=plain)
        r2 = TraversalPipeline(
            skewed_graph,
            SageScheduler(),
            metrics=sanitized,
            sanitizer=Sanitizer(),
        ).run(BFSApp(), 0)
        assert r1.seconds == r2.seconds
        assert r1.iterations == r2.iterations
        assert r1.edges_traversed == r2.edges_traversed
        np.testing.assert_array_equal(r1.result["dist"], r2.result["dist"])
        c1 = plain.report()["counters"]
        c2 = {k: v for k, v in sanitized.report()["counters"].items()
              if not k.startswith("sanitizer.")}
        assert c1 == c2

    def test_sanitizer_counters_flow_into_obs(self, skewed_graph):
        metrics = MetricsRegistry()
        TraversalPipeline(
            skewed_graph,
            SageScheduler(),
            metrics=metrics,
            sanitizer=Sanitizer(),
        ).run(BFSApp(), 0)
        counters = metrics.report()["counters"]
        assert counters["sanitizer.levels_checked"] > 0
        assert counters["sanitizer.edges_checked"] > 0
        assert counters["sanitizer.kernels_checked"] > 0

    def test_finding_counters_by_code(self, tiny_graph):
        metrics = MetricsRegistry()
        sanitizer = Sanitizer(metrics=metrics)
        sanitizer.begin_run(tiny_graph, BFSApp())
        sanitizer.check_commit(np.array([0]), tiny_graph.num_nodes)
        counters = metrics.report()["counters"]
        assert counters["sanitizer.findings"] == 1.0
        assert counters["sanitizer.invalid_permutation"] == 1.0


class TestReporting:
    def test_report_schema_and_json(self, tiny_graph, tmp_path):
        sanitizer = _begin(tiny_graph, BFSApp())
        sanitizer.check_commit(np.array([0]), tiny_graph.num_nodes)
        report = sanitizer.report()
        assert report["schema_version"] == 1
        assert report["clean"] is False
        assert report["counts_by_code"] == {"invalid_permutation": 1}
        path = sanitizer.write_json(tmp_path / "findings.json")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["findings"][0]["code"] == "invalid_permutation"

    def test_every_code_is_documented(self):
        for code, meaning in FINDING_CODES.items():
            assert code.replace("_", "").isalnum()
            assert meaning

    def test_format_summary_mentions_codes(self, tiny_graph):
        sanitizer = _begin(tiny_graph, BFSApp())
        sanitizer.check_commit(np.array([0]), tiny_graph.num_nodes)
        summary = sanitizer.format_summary()
        assert "FINDINGS" in summary
        assert "invalid_permutation" in summary


class TestCLI:
    def test_run_sanitize_clean(self, capsys):
        assert main(["run", "--dataset", "brain", "--scale", "0.05",
                     "--app", "bfs", "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "sanitizer:" in out
        assert "clean" in out

    def test_run_sanitize_report_written(self, tmp_path, capsys):
        report = tmp_path / "sanitizer.json"
        assert main(["run", "--dataset", "brain", "--scale", "0.05",
                     "--app", "bfs", "--sanitize-report",
                     str(report)]) == 0
        loaded = json.loads(report.read_text(encoding="utf-8"))
        assert loaded["clean"] is True
        assert loaded["levels_checked"] > 0

    def test_ligra_rejects_sanitize(self, capsys):
        assert main(["run", "--dataset", "brain", "--scale", "0.05",
                     "--app", "bfs", "--scheduler", "ligra",
                     "--sanitize"]) == 2

    def test_bench_trajectory_sanitize_flag(self, capsys):
        bench = load_bench_trajectory()
        assert bench.main(["--smoke", "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "sanitizer: clean" in out
