"""Scale-out benchmark: the real pipeline at two fleet sizes.

A small-ladder run of the ``scale`` preset (the committed
``BENCH_scale.json`` carries the 100/1k/3k ladder).  Every rung simulates
its fleet, then runs ``peak-based`` extraction, grouping, aggregation and
placement through ``FleetPipeline``.  Asserts that each rung places every
aggregate, that the ``workers=2`` re-run of the smallest rung matches the
in-process run exactly, and the preset's scaling gate: household-weeks/s
at the largest rung stays at least half the smallest rung's.

Kept below the committed baseline's sizes so the run stays fast;
``repro bench --suite scale --out BENCH_scale.json`` refreshes the real
ladder.
"""

from __future__ import annotations

from repro.bench import PRESETS, equivalence_failures, report_tables, run_preset


def test_scale_ladder_extracts_and_scales(report):
    preset = PRESETS["scale"]
    bench_report = run_preset("scale", sizes=(100, 400))
    for title, rows in report_tables(bench_report):
        report(f"Scale-out — simulate, then extract->aggregate->schedule, {title}", rows)

    for rung in bench_report["ladder"]:
        assert rung["offers"] > 0
        assert rung["household_weeks_per_second"] > 0
        assert rung["placed"] + rung["unplaced"] == rung["aggregates"]

    # workers=2 matches in process, and the scaling gate holds.
    assert equivalence_failures(bench_report) == []
    assert preset.gate_failures(bench_report) == []
