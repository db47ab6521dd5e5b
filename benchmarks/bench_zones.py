"""Zoned-market benchmark: the vectorized engine on sharded zone markets.

The 220-offer suite sharded into four zone markets (half explicitly
assigned by routing key, half hash-sharded).  Asserts the vectorized
engine is ≥2× the ``engine="reference"`` per-start loop with identical
placements (cost within 1e-9), that every aggregate is
scheduled in exactly one zone, and that the ``schedule_zones(workers=2)``
process-pool fan-out reproduces the sequential report exactly — then
refreshes the repository's ``BENCH_zones.json`` baseline.
"""

from __future__ import annotations

from pathlib import Path

from repro.scheduling import run_zones_benchmark, zones_table_rows

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_zones.json"


def test_zones_speedup_and_equivalence(report):
    bench_report, result = run_zones_benchmark(out_path=BENCH_JSON)
    report(
        "Zoned market — 220 aggregates x 4 zones x 1 week targets",
        zones_table_rows(bench_report),
    )
    greedy = bench_report["greedy"]
    report(
        "Zoned market — engine timings",
        [
            {
                "engine": name,
                "seconds": greedy[f"{name}_seconds"],
            }
            for name in ("reference", "vectorized")
        ],
    )

    workload = bench_report["workload"]
    assert workload["aggregates"] >= 200
    assert workload["zones"] == 4
    # Both assignment paths must actually be exercised.
    assert 0 < workload["mapped_keys"] < workload["aggregates"]

    equivalence = bench_report["equivalence"]
    # Identical placements to the reference loop (cost to 1e-9).
    assert equivalence["reference_identical_placements"] is True
    assert equivalence["cost_match"] is True
    # Zones are independent: the process-pool fan-out reproduces the
    # sequential report exactly, and every offer lands in exactly one zone.
    assert equivalence["workers_match_sequential"] is True
    assert equivalence["zone_partition"] is True
    # The acceptance gate: ≥2x over the reference full-re-scoring loop on
    # the 220-offer suite.
    assert greedy["speedup_vs_reference"] >= 2.0
    # Every zone received a non-trivial share of the shard.
    assert all(zone["offers"] > 0 for zone in bench_report["zones"])
    assert result.cost < result.baseline_cost
    assert BENCH_JSON.exists()
