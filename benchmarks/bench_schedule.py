"""Scheduling benchmark: vectorized placement vs the reference loop.

The market-facing half of the extract→aggregate→schedule loop on its own:
220 aggregated flex-offers placed over a week-long wind-surplus target.
Asserts the vectorized greedy engine meets the ``schedule`` preset's
speedup gate over the ``engine="reference"`` per-start loop with identical
placements and ``rtol=1e-9`` cost/energy
equivalence, that the stochastic improver is bitwise identical across
engines, and refreshes the repository's ``BENCH_schedule.json`` baseline.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench import PRESETS, equivalence_failures, run_preset

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_schedule.json"


def test_schedule_speedup_and_equivalence(report):
    preset = PRESETS["schedule"]
    bench_report, result = run_preset("schedule", out_path=BENCH_JSON)
    report(
        "Schedule engine — 220 aggregates x 1 week target",
        preset.rows(bench_report, result),
    )
    report(
        "Schedule engine — summary",
        [
            {
                "aggregates": bench_report["workload"]["aggregates"],
                "target_kwh": bench_report["target"]["total_kwh"],
                "greedy_speedup": f"{bench_report['greedy']['speedup']}x",
                "improve_speedup": f"{bench_report['improve']['speedup']}x",
                "improvement": bench_report["greedy"]["improvement"],
            }
        ],
    )

    workload = bench_report["workload"]
    assert workload["aggregates"] >= 200

    # The two engines must make identical placements and agree on cost and
    # slice energies to rtol=1e-9 (they differ only in summation order);
    # the stochastic improver consumes the generator identically under both
    # engines, so it must agree bitwise.
    assert equivalence_failures(bench_report) == []
    # The vectorized placement search must beat the reference loop.
    assert preset.gate_failures(bench_report) == []
    # Scheduling must actually track the target (the greedy win over
    # scheduling nothing is the BIOMA 2012 shape).
    assert bench_report["greedy"]["improvement"] > 0.3
    assert result.cost < result.baseline_cost
    assert BENCH_JSON.exists()
