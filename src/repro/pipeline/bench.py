"""The fleet-pipeline benchmark: batched engine vs the sequential loop.

Measures the 20-household × 7-day workload (configurable) over the full
extract→aggregate→schedule loop (the schedule stage places the fleet
aggregates on a deterministic wind target) three ways:

* **baseline** — the seed-shaped sequential per-household loop running the
  ``engine="reference"`` matcher and scheduler (the original
  implementations, kept for exactly this purpose);
* **pipeline** — :class:`repro.pipeline.FleetPipeline` over the vectorized
  engines, with per-stage wall-clock capture;
* **equivalence** — the batched result must equal the sequential run of
  the same engines exactly (offer ids and schedule placements included),
  and must match the reference engine's offers within a small relative
  tolerance (FFT vs direct correlation round-off).

The resulting report is written to ``BENCH_fleet.json`` so the repository
carries a refreshable speedup baseline; re-run via ``repro bench`` or
``pytest benchmarks/bench_fleet_pipeline.py``.
"""

from __future__ import annotations

import json
import platform
import time
from datetime import datetime
from pathlib import Path

import numpy as np

from repro.api.registry import create_extractor
from repro.pipeline.fleet import (
    FleetPipeline,
    FleetResult,
    fleet_schedule_target,
    offers_equivalent,
    results_identical,
    run_sequential,
)
from repro.scheduling.greedy import ScheduleConfig
from repro.simulation.dataset import generate_fleet
from repro.workloads.scenarios import SCENARIO_START

#: Relative tolerance for reference-vs-vectorized offer energies.  The two
#: engines differ only in float round-off (FFT vs direct correlation).
FIDELITY_RTOL = 1e-9


def run_fleet_benchmark(
    n_households: int = 20,
    days: int = 7,
    seed: int = 13,
    workers: int | None = None,
    chunk_size: int = 8,
    out_path: Path | str | None = None,
) -> tuple[dict, FleetResult]:
    """Run the fleet benchmark; returns the report dict and timed result.

    When ``out_path`` is given the report is also written there as JSON
    (the repository's ``BENCH_fleet.json`` baseline).
    """
    t0 = time.perf_counter()
    fleet = generate_fleet(n_households, SCENARIO_START, days, seed=seed)
    simulate_seconds = time.perf_counter() - t0
    target = fleet_schedule_target(fleet, seed=seed)

    vectorized = create_extractor("frequency-based", engine="vectorized")
    reference = create_extractor("frequency-based", engine="reference")
    schedule_vectorized = ScheduleConfig(engine="vectorized")
    schedule_reference = ScheduleConfig(engine="reference")

    # Equivalence pass first: it doubles as a warm-up (template caches,
    # numpy/scipy imports) so neither timed run pays one-off costs.
    sequential_vectorized = run_sequential(
        fleet, vectorized, target=target, schedule_config=schedule_vectorized
    )
    pipeline = FleetPipeline(
        vectorized, chunk_size=chunk_size, workers=workers, schedule=schedule_vectorized
    )
    pipeline_result = pipeline.run(fleet, target=target)
    batched_equals_sequential = results_identical(
        pipeline_result, sequential_vectorized
    )

    # Timed baseline: the sequential per-household loop on the reference
    # engines (matching and scheduling) — the seed's execution shape.
    t0 = time.perf_counter()
    baseline_result = run_sequential(
        fleet, reference, target=target, schedule_config=schedule_reference
    )
    baseline_seconds = time.perf_counter() - t0

    # Timed batched run (fresh pipeline object; caches stay warm, as they
    # would across fleets in a long-lived service).
    t0 = time.perf_counter()
    timed_result = FleetPipeline(
        vectorized, chunk_size=chunk_size, workers=workers, schedule=schedule_vectorized
    ).run(fleet, target=target)
    pipeline_seconds = time.perf_counter() - t0

    reference_matches = offers_equivalent(
        baseline_result.offers, timed_result.offers, rtol=FIDELITY_RTOL
    )
    speedup = baseline_seconds / pipeline_seconds if pipeline_seconds > 0 else float("inf")

    report = {
        "workload": {
            "households": n_households,
            "days": days,
            "seed": seed,
            "extractor": vectorized.name,
            "chunk_size": chunk_size,
            "workers": workers,
        },
        "simulate_seconds": round(simulate_seconds, 4),
        "baseline": {
            "engine": "reference",
            "shape": "sequential per-household loop",
            "wall_seconds": round(baseline_seconds, 4),
            "offers": len(baseline_result.offers),
        },
        "pipeline": {
            "engine": "vectorized",
            "shape": "FleetPipeline (chunked batches)",
            "wall_seconds": round(pipeline_seconds, 4),
            "stages": {
                stage: round(seconds, 4)
                for stage, seconds in timed_result.timings.seconds.items()
            },
            "offers": len(timed_result.offers),
            "aggregates": len(timed_result.aggregates),
            "extracted_kwh": round(timed_result.total_extracted_kwh, 6),
        },
        "schedule": {
            "target_kwh": round(target.total(), 6),
            "placed": len(timed_result.schedule.schedules),
            "unplaced": len(timed_result.schedule.unplaced),
            "cost": round(timed_result.schedule.cost, 6),
            "improvement": round(timed_result.schedule.improvement, 6),
        },
        "speedup": round(speedup, 2),
        "equivalence": {
            "batched_equals_sequential": batched_equals_sequential,
            "reference_matches_vectorized": reference_matches,
            "fidelity_rtol": FIDELITY_RTOL,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "generated": datetime.now().isoformat(timespec="seconds"),
        },
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(report, indent=2) + "\n")
    return report, timed_result


def stage_table_rows(report: dict, result: FleetResult) -> list[dict]:
    """Human-readable rows for the CLI/bench stage table."""
    rows = result.timings.rows()
    rows.append(
        {
            "stage": "TOTAL (pipeline wall)",
            "seconds": report["pipeline"]["wall_seconds"],
            "share": "100%",
        }
    )
    rows.append(
        {
            "stage": "sequential reference loop",
            "seconds": report["baseline"]["wall_seconds"],
            "share": f"{report['speedup']}x slower",
        }
    )
    return rows


# ---------------------------------------------------------------------- #
# Scale benchmark: streaming aggregation + scheduling ladder
# ---------------------------------------------------------------------- #

#: The committed ``BENCH_scale.json`` ladder: throughput is measured at
#: each fleet size, in households/second over the full stream→aggregate→
#: schedule loop.
SCALE_SIZES = (1_000, 10_000, 100_000)

#: Fleet size of the shared-memory vs pickling dispatch comparison.
SCALE_FANOUT_HOUSEHOLDS = 10_000

#: The acceptance gate on that comparison: passing buffer names must beat
#: pickling the matrices by at least this factor.
SCALE_FANOUT_MIN_SPEEDUP = 2.0


def scale_offer_stream(count: int, axis, seed: int = 0):
    """A lazy stream of ``count`` synthetic household offers on ``axis``.

    One offer per household, the post-extraction shape the scale ladder
    feeds straight into :func:`~repro.aggregation.streaming.aggregate_stream`:
    profile spans of 3–8 intervals, start anchors uniform over the axis,
    start-time flexibility of 2–24 hours.  A generator, deliberately —
    offers are built one at a time and become garbage as soon as the
    aggregator folds them, which is what keeps the streaming path's peak
    memory O(chunk) however large ``count`` grows.
    """
    from repro.flexoffer.model import FlexOffer, ProfileSlice

    rng = np.random.default_rng(seed)
    spans = rng.integers(3, 9, size=count)
    anchors = rng.integers(0, max(1, axis.length - 16), size=count)
    flexes = rng.integers(8, 97, size=count)
    for index in range(count):
        earliest = axis.start + int(anchors[index]) * axis.resolution
        slices = tuple(
            ProfileSlice(float(level), float(level) * 1.8)
            for level in rng.uniform(0.2, 0.8, int(spans[index]))
        )
        yield FlexOffer(
            earliest_start=earliest,
            latest_start=earliest + int(flexes[index]) * axis.resolution,
            slices=slices,
            resolution=axis.resolution,
            offer_id=f"hh-{seed}-{index}",
        )


def _throughput_rung(households: int, days: int, seed: int) -> dict:
    """One ladder rung: stream → aggregate → schedule, timed."""
    from repro.aggregation.streaming import aggregate_stream
    from repro.scheduling.greedy import greedy_schedule
    from repro.simulation.res import simulate_wind_production
    from repro.timeseries.axis import FIFTEEN_MINUTES, TimeAxis

    axis = TimeAxis(SCENARIO_START, FIFTEEN_MINUTES, 96 * days)
    begin = time.perf_counter()
    aggregates = list(
        aggregate_stream(
            scale_offer_stream(households, axis, seed=seed),
            epoch=axis.start,
            keep_members=False,
        )
    )
    aggregate_seconds = time.perf_counter() - begin

    offers = [aggregate.offer for aggregate in aggregates]
    target = simulate_wind_production(axis, np.random.default_rng(seed))
    begin = time.perf_counter()
    result = greedy_schedule(offers, target)
    schedule_seconds = time.perf_counter() - begin

    total = aggregate_seconds + schedule_seconds
    return {
        "households": households,
        "aggregates": len(aggregates),
        "aggregate_seconds": round(aggregate_seconds, 4),
        "schedule_seconds": round(schedule_seconds, 4),
        "total_seconds": round(total, 4),
        "households_per_second": round(households / total, 1),
        "placed": len(result.schedules),
        "unplaced": len(result.unplaced),
    }


def _fanout_pickled_worker(rows: np.ndarray) -> float:
    """Pickling-path dispatch probe: the matrix slice crossed the boundary."""
    return float(rows.sum())


def _fanout_shared_worker(spec, lo: int, hi: int) -> float:
    """Shared-memory dispatch probe: only (name, shape, dtype, range) crossed."""
    from repro.pipeline.sharedmem import SharedFleetBuffer

    with SharedFleetBuffer.attach(spec) as buffer:
        return float(buffer.array[lo:hi].sum())


def _fanout_comparison(
    households: int, days: int, seed: int, repeats: int = 3
) -> tuple[dict, bool]:
    """Shared-memory vs pickling worker dispatch on one fleet matrix.

    Times the *dispatch* of a ``households × intervals`` metered matrix to
    a worker pool with identical trivial per-chunk work, so the measured
    gap is serialization, the thing shared memory removes.  One warm pool
    serves both paths; best-of-``repeats`` per path, interleaved.  Returns
    ``(section, results_identical)``.
    """
    from concurrent.futures import ProcessPoolExecutor

    from repro.pipeline.sharedmem import SharedFleetBuffer

    rng = np.random.default_rng(seed)
    matrix = rng.uniform(0.0, 2.0, size=(households, 96 * days))
    chunk = max(1, households // 16)
    bounds = [
        (lo, min(lo + chunk, households)) for lo in range(0, households, chunk)
    ]

    best_pickled = float("inf")
    best_shared = float("inf")
    with ProcessPoolExecutor(max_workers=2) as pool:
        list(pool.map(_fanout_pickled_worker, [matrix[:1]]))  # warm the pool
        with SharedFleetBuffer.create(matrix) as buffer:
            spec = buffer.spec
            for _ in range(repeats):
                begin = time.perf_counter()
                pickled_sums = list(
                    pool.map(
                        _fanout_pickled_worker,
                        (matrix[lo:hi] for lo, hi in bounds),
                    )
                )
                best_pickled = min(best_pickled, time.perf_counter() - begin)

                begin = time.perf_counter()
                shared_sums = list(
                    pool.map(
                        _fanout_shared_worker,
                        (spec for _ in bounds),
                        (lo for lo, _ in bounds),
                        (hi for _, hi in bounds),
                    )
                )
                best_shared = min(best_shared, time.perf_counter() - begin)
    speedup = best_pickled / best_shared if best_shared > 0 else float("inf")
    return {
        "households": households,
        "matrix_mb": round(matrix.nbytes / 2**20, 1),
        "jobs": len(bounds),
        "pickled_seconds": round(best_pickled, 4),
        "shared_seconds": round(best_shared, 4),
        "speedup": round(speedup, 2),
        "meets_min_speedup": speedup >= SCALE_FANOUT_MIN_SPEEDUP,
    }, pickled_sums == shared_sums


def _streaming_peak_mb(households: int, days: int, seed: int, materialize: bool) -> float:
    """Peak traced memory (MiB) of one aggregation pass over the stream."""
    import tracemalloc

    from repro.aggregation.streaming import aggregate_stream
    from repro.timeseries.axis import FIFTEEN_MINUTES, TimeAxis

    axis = TimeAxis(SCENARIO_START, FIFTEEN_MINUTES, 96 * days)
    stream = scale_offer_stream(households, axis, seed=seed)
    tracemalloc.start()
    if materialize:
        # The batch path's memory shape: every offer alive at once.
        offers = list(stream)
        aggregates = list(
            aggregate_stream(offers, epoch=axis.start, keep_members=True)
        )
        del offers
    else:
        aggregates = list(
            aggregate_stream(stream, epoch=axis.start, keep_members=False)
        )
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del aggregates
    return peak / 2**20


def _streaming_section(days: int, seed: int) -> dict:
    """The O(chunk) proof: streaming peak stays flat as the fleet triples.

    Tracemalloc peaks for the streaming path at two fleet sizes (3× apart)
    and for the materialized batch path at the smaller size.  O(offers)
    would triple the peak; O(chunk + accumulators) barely moves it.
    """
    small, large = 10_000, 30_000
    streaming_small = _streaming_peak_mb(small, days, seed, materialize=False)
    streaming_large = _streaming_peak_mb(large, days, seed, materialize=False)
    materialized_small = _streaming_peak_mb(small, days, seed, materialize=True)
    growth = streaming_large / streaming_small if streaming_small > 0 else float("inf")
    return {
        "households_small": small,
        "households_large": large,
        "streaming_peak_mb_small": round(streaming_small, 2),
        "streaming_peak_mb_large": round(streaming_large, 2),
        "materialized_peak_mb_small": round(materialized_small, 2),
        "peak_growth_at_3x_households": round(growth, 2),
        "peak_is_chunk_bound": growth < 2.0
        and streaming_small < materialized_small,
    }


def run_scale_benchmark(
    sizes: tuple[int, ...] = SCALE_SIZES,
    days: int = 30,
    seed: int = 23,
    fanout_households: int = SCALE_FANOUT_HOUSEHOLDS,
    out_path: Path | str | None = None,
) -> dict:
    """Run the scale-out benchmark; returns (and optionally writes) the report.

    Three sections, matching the scale-out layer's three claims, plus the
    equivalence booleans:

    * ``throughput`` — households/second at each ladder size over the full
      stream → aggregate (``keep_members=False``) → schedule loop;
    * ``fanout`` — shared-memory worker dispatch vs pickling dispatch on
      one fleet matrix, gated at ≥ :data:`SCALE_FANOUT_MIN_SPEEDUP`;
    * ``streaming`` — tracemalloc proof that the streaming aggregator's
      peak memory is O(chunk), not O(offers);
    * ``equivalence`` — ``fanout_results_identical``: both dispatch paths
      returned the same per-chunk sums.
    """
    throughput = [_throughput_rung(size, days, seed) for size in sizes]
    fanout, fanout_identical = _fanout_comparison(fanout_households, 7, seed)
    streaming = _streaming_section(days, seed)
    report = {
        "workload": {
            "sizes": list(sizes),
            "days": days,
            "seed": seed,
            "grouping": "default GroupingParams, keep_members=False",
        },
        "throughput": throughput,
        "fanout": fanout,
        "streaming": streaming,
        "equivalence": {"fanout_results_identical": fanout_identical},
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "generated": datetime.now().isoformat(timespec="seconds"),
        },
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(report, indent=2) + "\n")
    return report


def scale_table_rows(report: dict) -> list[dict]:
    """Human-readable rows for the CLI scale table."""
    rows = [
        {
            "stage": f"{rung['households']} households",
            "seconds": rung["total_seconds"],
            "share": f"{rung['households_per_second']}/s",
        }
        for rung in report["throughput"]
    ]
    fanout = report["fanout"]
    rows.append(
        {
            "stage": f"fan-out {fanout['households']} hh "
            f"({fanout['matrix_mb']} MB)",
            "seconds": fanout["shared_seconds"],
            "share": f"{fanout['speedup']}x vs pickling",
        }
    )
    return rows
