"""Scale-out benchmark: the million-household path, measured end to end.

A small-ladder run of the three scale-out claims (the committed
``BENCH_scale.json`` carries the full 1k/10k/100k ladder):

* streaming throughput — households/second through the full
  stream → aggregate (``keep_members=False``) → schedule loop;
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

from repro.pipeline import run_scale_benchmark, scale_table_rows


def test_scale_throughput_fanout_and_memory(report):
    bench_report = run_scale_benchmark(sizes=(500, 2_000), fanout_households=4_000)
    report(
        "Scale-out — stream -> aggregate -> schedule",
        scale_table_rows(bench_report),
    )

    for rung in bench_report["throughput"]:
        assert rung["households_per_second"] > 0
        assert rung["placed"] + rung["unplaced"] == rung["aggregates"]

    # Shared-memory fan-out: same results, ≥2x faster than pickling.
    assert bench_report["equivalence"]["fanout_results_identical"] is True
    assert bench_report["fanout"]["meets_min_speedup"] is True

    # Streaming aggregation peak memory is chunk-bound, not offer-bound.
    streaming = bench_report["streaming"]
    assert streaming["peak_is_chunk_bound"] is True
    assert streaming["peak_growth_at_3x_households"] < 2.0

