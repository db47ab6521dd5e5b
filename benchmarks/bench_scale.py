"""Scale-out benchmark: aggregate+schedule only, on a synthetic stream.

A small-ladder run of the three scale-out claims (the committed
``BENCH_scale.json`` carries the full 1k/10k/100k ladder).  The ladder
feeds one synthetic offer per household straight into aggregation:
simulation and extraction never run.

* streaming throughput — households/second through
  stream → aggregate (``keep_members=False``) → schedule;
* shared-memory fan-out — dispatching workers a buffer name + row range
  beats pickling matrix slices by ≥2× on one fleet matrix;
* O(chunk) aggregation memory — tripling the household count barely moves
  the streaming aggregator's tracemalloc peak, and the streaming path
  stays under materializing the offer list.

Kept deliberately below the committed baseline's sizes so the tier-1 run
stays fast; ``repro bench --suite scale --out BENCH_scale.json``
refreshes the real ladder.
"""

from __future__ import annotations

from repro.bench import PRESETS, equivalence_failures, run_preset


def test_scale_throughput_fanout_and_memory(report):
    preset = PRESETS["scale"]
    bench_report, _ = run_preset("scale", sizes=(500, 2_000), fanout_households=4_000)
    report(
        "Scale-out — stream -> aggregate -> schedule (aggregate+schedule only)",
        preset.rows(bench_report, None),
    )

    for rung in bench_report["throughput"]:
        assert rung["households_per_second"] > 0
        assert rung["placed"] + rung["unplaced"] == rung["aggregates"]

    # Shared-memory fan-out: same results, and the preset's speedup gate
    # over pickling.
    assert equivalence_failures(bench_report) == []
    assert preset.gate_failures(bench_report) == []

    # Streaming aggregation peak memory is chunk-bound, not offer-bound.
    streaming = bench_report["streaming"]
    assert streaming["peak_is_chunk_bound"] is True
    assert streaming["peak_growth_at_3x_households"] < 2.0

