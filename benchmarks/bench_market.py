"""Market-clearing benchmark: batched bid derivation vs scalar reference.

The priced 220-aggregate suite (EV-fleet-scale profiles, four price-banded
zones, 25 kWh couplings) cleared under both engines.  Asserts the
vectorized engine meets the ``market`` preset's speedup gate over the
``engine="reference"`` scalar loops with *identical* acceptance sets, bitwise-equal clearing prices, quantities and
payments, welfare reconciled at 1e-9, and payments equal to revenue
(budget balance) — then refreshes the repository's ``BENCH_market.json``
baseline.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench import PRESETS, equivalence_failures, run_preset

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_market.json"


def test_market_speedup_and_equivalence(report):
    preset = PRESETS["market"]
    bench_report, result = run_preset("market", out_path=BENCH_JSON)
    report(
        "Market clearing — 220 aggregates x 4 zones x 8 market slices",
        preset.rows(bench_report, result),
    )
    clearing = bench_report["clearing"]
    report(
        "Market clearing — engine timings",
        [
            {"engine": name, "seconds": clearing[f"{name}_seconds"]}
            for name in ("reference", "vectorized")
        ],
    )

    workload = bench_report["workload"]
    assert workload["aggregates"] >= 200
    assert workload["zones"] == 4
    # Both assignment paths must actually be exercised.
    assert 0 < workload["mapped_keys"] < workload["aggregates"]
    # Fleet-scale profiles: this is where batched derivation matters.
    assert workload["avg_profile_slices"] >= 20

    # The engine contract: decisions are made on bitwise-identical floats,
    # so acceptance sets, settlements and prices cannot diverge; welfare
    # (the valuation integral) is the only engine-specific arithmetic; and
    # uniform pricing settles every bid at the slice price (budget balance).
    assert equivalence_failures(bench_report) == []

    # The acceptance gate over the reference scalar loops.
    assert preset.gate_failures(bench_report) == []

    # The auction does real work on this suite: every disposition occurs.
    assert clearing["accepted"] > 0
    assert clearing["partial"] > 0
    assert clearing["rejected"] > 0
    assert clearing["migrated"] > 0
    assert result.welfare_eur > 0
    assert BENCH_JSON.exists()
