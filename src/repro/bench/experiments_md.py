"""EXPERIMENTS.md generator.

Collates the result tables written by ``pytest benchmarks/`` under
``benchmarks/results/`` into a single markdown report that records, for
every table and figure of the paper, what the paper observed and what
this reproduction measured.  Regenerate with::

    python -m repro.bench.experiments_md [--results DIR] [--out FILE]

The per-experiment commentary is fixed (it states the paper's claims and
which of them the benchmark suite asserts); the numbers are whatever the
latest benchmark run produced.
"""

from __future__ import annotations

import argparse
import pathlib

HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction of every table and figure in the evaluation of
*Self-adaptive Graph Traversal on GPUs* (SIGMOD 2021).  All timings are
**simulated** (see DESIGN.md §5 for the cost model); the reproduction
target is the *shape* of each comparison — who wins, by roughly what
factor, where the crossovers fall — not the absolute numbers from the
authors' RTX 8000 testbed.  Every "holds?" claim below is asserted by the
corresponding module under `benchmarks/`; regenerate the numbers with::

    pytest benchmarks/ --benchmark-only -s
    python -m repro.bench.experiments_md
"""

#: (results-file stem, section title, paper expectation, what we assert)
SECTIONS: list[tuple[str, str, str, str]] = [
    (
        "table1",
        "Table 1 — dataset statistics",
        "Five graphs spanning web (uk-2002), biology (brain, avg degree "
        "683, near-uniform) and social networks (ljournal / twitter / "
        "friendster, power-law; twitter has super-hubs with multi-million "
        "out-degree).",
        "Scaled stand-ins preserve the relative structure: brain has the "
        "largest average degree and near-zero degree Gini; twitter is the "
        "most skewed with hub degrees >10x the mean; uk-2002 keeps "
        "crawl-order id locality. Asserted in "
        "`benchmarks/test_table1_datasets.py`.",
    ),
    (
        "table2",
        "Table 2 — reordering time consumption",
        "RCM 17.4-654.6 s, LLP 135.5-4343.5 s, Gorder 45.1-15207.7 s "
        "(hours on the billion-edge social graphs) vs SAGE "
        "0.0394-1.4956 s *per round*: the per-round cost is 3-5 orders "
        "of magnitude below full preprocessing.",
        "The asserted shape holds: one SAGE round costs less than Gorder "
        "and less than LLP on every dataset, and Gorder costs more than "
        "RCM on every social graph; LLP sits above RCM. The gap is far "
        "smaller than the paper's: Gorder costs 1.4-1.7x a SAGE round on "
        "brain (the tightest margin) and 4.9-8.4x on the other four "
        "(ranges over eight runs), and LLP now costs more than Gorder "
        "(Known deviations #2). Asserted in "
        "`benchmarks/test_table2_reorder_cost.py`.",
    ),
    (
        "table3",
        "Table 3 — Tiled Partitioning overhead",
        "TP costs a bounded share of runtime: 2-19% for BFS, 2-10% for "
        "BC, 0.3-8.5% for PR (PR's full-frontier iterations amortize the "
        "scheduling work).",
        "Overheads land in the same band (1-13%), BFS pays the largest "
        "share, PR no more than BFS, and brain (regular, few huge "
        "iterations) pays the least. Asserted in "
        "`benchmarks/test_table3_tp_overhead.py`.",
    ),
    (
        "fig6",
        "Figure 6 — SAGE under different node orderings",
        "Reordering barely moves uk-2002/brain but lifts the social "
        "graphs (up to +36% BFS / +80% BC / +109% PR on twitter). Gorder "
        "is the strongest preprocessing order; LLP is notably good for "
        "PR; SAGE's Sampling-based Reordering reaches ~95% of Gorder's "
        "speed within a few cheap rounds and keeps closing the gap.",
        "All four shapes hold: brain moves <5% under every order and "
        "Gorder/SAGE leave uk-2002 within a few percent (RCM/LLP can "
        "even *hurt* uk-2002 by ~15% — they destroy the crawl order's "
        "native locality); social graphs gain up to ~35% (PR on "
        "friendster); Gorder leads the preprocessing orders with LLP "
        "strongest on PR; sage_50 reaches ~93-97% of Gorder's speed "
        "(sage_5 ~85-95%) at 12-71% of its cost per round (Table 2). "
        "Margins against the assertions: Gorder beats original by "
        "+16% or more on the social rows (twitter BFS the least); "
        "sage_50 beats sage_1 by +12% or more (friendster BFS) against "
        "a 0.98x floor and original by +11% or more (twitter BFS); "
        "brain moves at most 3.5% (BC) against a 35% bound. These "
        "numbers are simulated, so they change only with the "
        "permutations. Asserted in "
        "`benchmarks/test_fig6_reordering.py`.",
    ),
    (
        "fig7",
        "Figure 7 — SAGE vs PGP approaches (with/without Gorder)",
        "GPU methods beat Ligra by a large margin; Tigr's UDT wins on "
        "skewed social graphs but *loses* on the already-regular brain; "
        "Gorder helps the baselines mainly on social graphs; SAGE is "
        "best or highly competitive everywhere with no preprocessing.",
        "All four shapes hold: every dataset's best GPU method beats "
        "Ligra by 3-8x; thread-per-node is always worst; Tigr > B40C on "
        "social graphs but not on brain; SAGE wins most cells and stays "
        "within 20% of the winner otherwise (the winner then being "
        "Gunrock+Gorder, which pays the Table-2 preprocessing bill SAGE "
        "avoids). Asserted in `benchmarks/test_fig7_pgp_comparison.py`.",
    ),
    (
        "fig8",
        "Figure 8 — out-of-core BFS (SAGE vs Subway)",
        "With the graph exceeding device memory, SAGE's tile-aligned "
        "on-demand access + resident tiles matches or beats Subway's "
        "planned subgraph preloading on every dataset.",
        "SAGE matches or beats Subway on >=3 of 5 datasets (largest "
        "margin on brain, where Subway's per-iteration full-edge-list "
        "extraction scan hurts most); naive page-granular UM never wins. "
        "Asserted in `benchmarks/test_fig8_out_of_core.py`.",
    ),
    (
        "fig9",
        "Figure 9 — multi-GPU BFS",
        "Two GPUs are not automatically faster (per-iteration exchange + "
        "synchronization); metis pre-partitioning helps the baselines; "
        "SAGE achieves the best multi-GPU performance, especially on "
        "brain and uk-2002, with no pre-partitioning.",
        "Holds with one scale-driven deviation: bulk-synchronous 2-GPU "
        "runs lose to 1 GPU on every dataset because our graphs are "
        "~10^4x smaller, so per-iteration kernels (microseconds) cannot "
        "amortize the fixed exchange/barrier cost the way the paper's "
        "millisecond kernels do. Asynchronous coordination (Groute, and "
        "SAGE's stealable resident tiles) recovers it: SAGE-2GPU leads "
        "every 2-GPU field and is competitive with or better than 1 GPU "
        "on the dense graphs. Asserted in "
        "`benchmarks/test_fig9_multi_gpu.py`.",
    ),
    (
        "fig10",
        "Figure 10 — ablation study",
        "TP lifts every dataset (skew handling is the first-order "
        "concern, biggest on twitter); RTS adds the most on brain "
        "(latency hiding) and twitter (inter-SM balance); SR pays off on "
        "the social graphs, where node order has locality to recover.",
        "Monotone base < +TP < +TP+RTS on all 15 dataset/app cells; the "
        "largest RTS jumps are on brain (~12x over TP for BFS) and the "
        "hub-heavy graphs; SR gains concentrate on "
        "ljournal/twitter/friendster (up to +25% for PR) and are neutral "
        "to slightly negative on uk-2002/brain — exactly the paper's "
        "split. Asserted in `benchmarks/test_fig10_ablation.py`.",
    ),
]

EXTENSION_SECTIONS: list[tuple[str, str, str]] = [
    (
        "ablation_min_tile",
        "MIN_TILE_SIZE sweep",
        "SAGE's smallest cooperative tile: smaller tiles shrink scan-"
        "gathered fragments but deepen the binary partition; the paper's "
        "default region (8-32) is flat, so the choice is robust.",
    ),
    (
        "ablation_alignment",
        "Tile alignment",
        "Section 5.3's sector alignment: removing it costs every "
        "unaligned gather one straddling transaction; alignment never "
        "hurts.",
    ),
    (
        "ablation_compressed",
        "Compressed adjacency traversal",
        "The authors' [41] trade: gap+varint CSR shrinks adjacency "
        "traffic 2.4-4x for a per-edge decode cost; traversal on the "
        "compressed image is on par or faster for memory-bound runs.",
    ),
    (
        "ablation_push_pull",
        "Push vs pull PageRank",
        "The atomics ablation: the gather formulation eliminates atomic "
        "conflicts entirely and lands within ~20% of push either way.",
    ),
    (
        "sweep_device_fraction",
        "Out-of-core device-memory sweep",
        "Figure 8 at one budget, swept: SAGE's on-demand pool gains with "
        "residency while Subway (which re-ships the active subgraph "
        "every round) is flat.",
    ),
    (
        "sweep_gpu_scaling",
        "GPU-count scaling",
        "Figure 9 generalized to 1-8 GPUs: scaling peaks early and "
        "degrades as per-iteration exchange dominates — the paper's "
        "'efficient multi-GPU graph analysis remains open'.",
    ),
    (
        "calibration",
        "Cost-model calibration",
        "Internal consistency: the analytic placement rules behind every "
        "figure, replayed through the discrete-event simulator — both "
        "regimes agree within ~1%, and the stealing speedup column is "
        "Figure 10's RTS effect measured a second, independent way.",
    ),
    (
        "session",
        "Time-to-insight query session",
        "The Section-1 argument end to end: SAGE's whole session "
        "completes before the Gorder profile finishes preprocessing. "
        "The margin is narrow at this scale: the 30-query SAGE session "
        "takes 0.10-0.15 s of host time against 0.23-0.37 s of Gorder "
        "setup (ranges over eight runs; asserted in "
        "`benchmarks/test_time_to_insight.py`).",
    ),
]

FOOTER = """\
## Known deviations (and why they are scale artifacts, not model gaps)

1. **Absolute GTEPS** are simulator outputs at 10^3-10^4x smaller graphs;
   only relative comparisons are meaningful.
2. **Table 2 gap compression**: Gorder costs O(w * |E|) score updates
   plus one O(|V|) vectorised argmax per placement.  On stand-ins
   10^3-10^4x smaller than the paper's graphs that is only 1.4-8.4x a
   SAGE round (eight runs), not the paper's ~10^4x.  The tightest ratio
   is brain's, 1.4-1.7x: with 1600 nodes Gorder has few placements to
   make, while 256k edges give each round many sampled pairs to sort.
   Gorder's argmax term grows as |V|^2, faster than a round's
   O(|E| log |E|) sort, so the gap should widen with scale (not
   measured here).  Two more effects at this scale: LLP costs more than
   Gorder on every stand-in, whereas the paper has Gorder as the
   costliest method on the social graphs (no benchmark asserts that
   order); and the time-to-insight session beats Gorder's setup by
   about 2.5x, not by hours.
3. **Figure 9 bulk-synchronous 2-GPU slowdowns**: with microsecond
   kernels, fixed per-iteration coordination dominates; the paper's
   larger graphs sit past the crossover. The async engines show the
   crossover behaviour at our scale.
4. **Figure 6 convergence**: SAGE's sampled rounds plateau at ~95% of
   Gorder rather than matching it exactly by round ~94; the damped
   commit rule (see `repro/core/reorder.py`) trades the last few percent
   for stability at small |V|.
"""


def generate(results_dir: pathlib.Path) -> str:
    """Build the EXPERIMENTS.md content from a results directory."""
    parts = [HEADER]
    for stem, title, paper, measured in SECTIONS:
        parts.append(f"\n## {title}\n")
        parts.append(f"**Paper:** {paper}\n")
        parts.append(f"**Measured (holds?):** {measured}\n")
        result_file = results_dir / f"{stem}.txt"
        if result_file.exists():
            body = result_file.read_text(encoding="utf-8").rstrip()
            parts.append(f"\n```\n{body}\n```\n")
        else:
            parts.append(
                "\n*(no results yet — run `pytest benchmarks/"
                f"test_{stem}*.py --benchmark-only -s`)*\n"
            )
    parts.append("\n## Extension experiments (beyond the paper)\n")
    for stem, title, note in EXTENSION_SECTIONS:
        result_file = results_dir / f"{stem}.txt"
        parts.append(f"\n### {title}\n")
        parts.append(note + "\n")
        if result_file.exists():
            body = result_file.read_text(encoding="utf-8").rstrip()
            parts.append(f"\n```\n{body}\n```\n")
    parts.append("\n" + FOOTER)
    return "\n".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--results", type=pathlib.Path,
        default=pathlib.Path("benchmarks/results"),
        help="directory holding the benchmark result tables",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("EXPERIMENTS.md"),
        help="output markdown file",
    )
    args = parser.parse_args(argv)
    args.out.write_text(generate(args.results), encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
