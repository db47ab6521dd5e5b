"""Zoned-market benchmark: the vectorized engine on sharded zone markets.

The 220-offer suite sharded into four zone markets (half explicitly
assigned by routing key, half hash-sharded).  Asserts the vectorized
engine meets the ``zones`` preset's speedup gate over the
``engine="reference"`` per-start loop with identical placements (cost
within 1e-9) and that every aggregate is scheduled in exactly one zone —
then refreshes the repository's ``BENCH_zones.json`` baseline.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench import PRESETS, equivalence_failures, report_tables, run_preset

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_zones.json"


def test_zones_speedup_and_equivalence(report):
    preset = PRESETS["zones"]
    bench_report = run_preset("zones", out_path=BENCH_JSON)
    for title, rows in report_tables(bench_report):
        report(f"Zoned market — 220 aggregates x 4 zones x 1 week targets, {title}", rows)

    workload = bench_report["workload"]
    assert workload["aggregates"] >= 200
    assert workload["zones"] == 4
    # Both assignment paths must actually be exercised.
    assert 0 < workload["mapped_keys"] < workload["aggregates"]

    # Identical placements to the reference loop (cost to 1e-9), and every
    # offer lands in exactly one zone.
    assert equivalence_failures(bench_report) == []
    # The acceptance gate over the reference full-re-scoring loop on the
    # 220-offer suite.
    assert preset.gate_failures(bench_report) == []
    # Every zone received a non-trivial share of the shard.
    assert all(zone["offers"] > 0 for zone in bench_report["zones"])
    assert bench_report["greedy"]["improvement"] > 0
    assert BENCH_JSON.exists()
