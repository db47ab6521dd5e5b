"""The market-scale scheduling benchmark: vectorized vs reference engine.

The paper's end goal is *scheduled* flexibility: thousands of consumers are
aggregated "before the actual scheduling" (paper §6) and the aggregates are
placed against a target series (Tušar et al., BIOMA 2012).  This benchmark
measures that market-facing half of the loop on its own: hundreds of
aggregated flex-offers placed over a week-long RES-surplus target, the
vectorized placement engine against the ``engine="reference"`` per-start
loop, plus the stochastic improvement pass under both engines.

The resulting report is written to ``BENCH_schedule.json`` so the
repository carries a refreshable speedup baseline; re-run via
``repro bench --suite schedule`` or ``pytest benchmarks/bench_schedule.py``.

The zoned companion (:func:`build_zoned_workload`,
:func:`run_zones_benchmark` → ``BENCH_zones.json``, ``repro bench --suite
zones``) shards the same 220-offer suite across four zone markets and
measures the zone-sharded scheduler under the same two engines.
"""

from __future__ import annotations

import json
import platform
import time
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from repro.aggregation.aggregate import AggregatedFlexOffer, aggregate_group
from repro.flexoffer.generators import RandomGeneratorConfig, random_flexoffer
from repro.flexoffer.model import offer_id_scope
from repro.scheduling.greedy import ScheduleConfig, ScheduleResult, greedy_schedule
from repro.scheduling.stochastic import improve_schedule
from repro.simulation.res import simulate_wind_production
from repro.timeseries.axis import axis_for_days
from repro.timeseries.series import TimeSeries
from repro.workloads.scenarios import SCENARIO_START

#: Relative tolerance for reference-vs-vectorized schedule costs.  The two
#: engines differ only in float summation order on the gain reductions.
SCHEDULE_FIDELITY_RTOL = 1e-9

#: Timing repetitions per engine; the minimum is reported (robust against
#: scheduler noise on shared CI machines).
_TIMING_REPEATS = 3


def build_schedule_workload(
    n_aggregates: int = 220,
    members_per_aggregate: int = 3,
    days: int = 7,
    seed: int = 17,
) -> tuple[list[AggregatedFlexOffer], TimeSeries]:
    """A deterministic market-scale workload: aggregates + week target.

    Random household-scale offers (12–48 h of start flexibility) are drawn
    on the week's metering axis; each group clusters members within the
    grouping grid's default 2-hour start tolerance (shifted copies of a
    base offer), matching the shape :func:`repro.aggregation.grouping
    .group_offers` produces on real fleets.  The target is simulated wind
    production rescaled so its total matches the fleet's maximum flexible
    energy.
    """
    from dataclasses import replace

    from repro.flexoffer.model import next_offer_id

    axis = axis_for_days(SCENARIO_START, days)
    rng = np.random.default_rng(seed)
    config = RandomGeneratorConfig(
        time_flexibility_min=timedelta(hours=12),
        time_flexibility_max=timedelta(hours=48),
    )
    aggregates: list[AggregatedFlexOffer] = []
    with offer_id_scope("schedule-bench"):
        for _ in range(n_aggregates):
            base = random_flexoffer(axis, rng, config)
            members = [base]
            for _ in range(members_per_aggregate - 1):
                offset = int(rng.integers(0, 9))  # within the 2 h grouping grid
                shifted = base.shifted(axis.resolution * offset)
                if shifted.latest_start + shifted.duration > axis.end:
                    shifted = base
                member = replace(
                    shifted.scaled(float(rng.uniform(0.6, 1.4))),
                    offer_id=next_offer_id("rand"),
                )
                members.append(member)
            aggregates.append(aggregate_group(members))
    target = simulate_wind_production(axis, np.random.default_rng(seed + 1))
    flexible = sum(a.offer.profile_energy_max for a in aggregates)
    if target.total() > 0:
        target = target * (flexible / target.total())
    return aggregates, target


def _timed(fn, repeats: int = _TIMING_REPEATS):
    """Run ``fn`` ``repeats`` times; return (min seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_schedule_benchmark(
    n_aggregates: int = 220,
    members_per_aggregate: int = 3,
    days: int = 7,
    seed: int = 17,
    improve_iterations: int = 2000,
    out_path: Path | str | None = None,
) -> tuple[dict, ScheduleResult]:
    """Run the scheduling benchmark; returns the report dict and the
    vectorized greedy result.

    When ``out_path`` is given the report is also written there as JSON
    (the repository's ``BENCH_schedule.json`` baseline).
    """
    aggregates, target = build_schedule_workload(
        n_aggregates, members_per_aggregate, days, seed
    )
    offers = [a.offer for a in aggregates]
    reference_config = ScheduleConfig(engine="reference")

    # Warm-up (numpy dispatch, axis caches) before any timed pass.
    greedy_schedule(offers[:8], target)
    greedy_schedule(offers[:8], target, config=reference_config)

    reference_seconds, reference_result = _timed(
        lambda: greedy_schedule(offers, target, config=reference_config)
    )
    vectorized_seconds, vectorized_result = _timed(
        lambda: greedy_schedule(offers, target)
    )
    speedup = (
        reference_seconds / vectorized_seconds
        if vectorized_seconds > 0
        else float("inf")
    )

    placements_identical = [
        (s.offer.offer_id, s.start) for s in reference_result.schedules
    ] == [(s.offer.offer_id, s.start) for s in vectorized_result.schedules]
    cost_match = bool(
        np.isclose(
            reference_result.cost,
            vectorized_result.cost,
            rtol=SCHEDULE_FIDELITY_RTOL,
        )
    )
    energies_reference = [
        e for s in reference_result.schedules for e in s.slice_energies
    ]
    energies_vectorized = [
        e for s in vectorized_result.schedules for e in s.slice_energies
    ]
    energies_match = bool(
        np.allclose(
            energies_reference,
            energies_vectorized,
            rtol=SCHEDULE_FIDELITY_RTOL,
            atol=1e-12,
        )
    )

    improve_reference_seconds, improve_reference = _timed(
        lambda: improve_schedule(
            vectorized_result,
            np.random.default_rng(seed),
            iterations=improve_iterations,
            engine="reference",
        )
    )
    improve_vectorized_seconds, improve_vectorized = _timed(
        lambda: improve_schedule(
            vectorized_result,
            np.random.default_rng(seed),
            iterations=improve_iterations,
            engine="vectorized",
        )
    )
    improve_identical = [
        (s.start, s.slice_energies) for s in improve_reference.schedules
    ] == [(s.start, s.slice_energies) for s in improve_vectorized.schedules]
    improve_speedup = (
        improve_reference_seconds / improve_vectorized_seconds
        if improve_vectorized_seconds > 0
        else float("inf")
    )

    report = {
        "workload": {
            "aggregates": len(aggregates),
            "member_offers": sum(a.size for a in aggregates),
            "days": days,
            "seed": seed,
            "order": "least-flexible-first",
        },
        "target": {
            "kind": "wind",
            "total_kwh": round(target.total(), 6),
            "intervals": target.axis.length,
        },
        "greedy": {
            "reference_seconds": round(reference_seconds, 4),
            "vectorized_seconds": round(vectorized_seconds, 4),
            "speedup": round(speedup, 2),
            "placed": len(vectorized_result.schedules),
            "unplaced": len(vectorized_result.unplaced),
            "cost": round(vectorized_result.cost, 6),
            "improvement": round(vectorized_result.improvement, 6),
        },
        "improve": {
            "iterations": improve_iterations,
            "reference_seconds": round(improve_reference_seconds, 4),
            "vectorized_seconds": round(improve_vectorized_seconds, 4),
            "speedup": round(improve_speedup, 2),
            "cost": round(improve_vectorized.cost, 6),
            "identical": improve_identical,
        },
        "equivalence": {
            "placements_identical": placements_identical,
            "cost_match": cost_match,
            "energies_match": energies_match,
            "fidelity_rtol": SCHEDULE_FIDELITY_RTOL,
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
    return report, vectorized_result


def build_zoned_workload(
    n_aggregates: int = 220,
    members_per_aggregate: int = 3,
    days: int = 7,
    seed: int = 17,
    zones: int = 4,
):
    """The 220-offer suite sharded into a deterministic zoned market.

    Reuses :func:`build_schedule_workload`'s aggregates; the market is
    ``zones`` named zones, each with its own wind profile (seeded
    ``seed + 100 + zone index``) scaled to an equal slice of the fleet's
    flexible energy and its own price band.  Half the aggregates are
    routed through the explicit assignment mapping (round-robin by routing
    key), the rest through the hash-shard fallback, so the benchmark
    exercises both policy paths.  Returns ``(aggregates, zoned_target)``.
    """
    from repro.scheduling.zones import ZonedTarget, make_market_zones, routing_key

    aggregates, target = build_schedule_workload(
        n_aggregates, members_per_aggregate, days, seed
    )
    flexible = sum(a.offer.profile_energy_max for a in aggregates)
    market_zones = make_market_zones(
        target.axis, zones, seed + 100, flexible / max(zones, 1)
    )
    assignment = {
        routing_key(aggregate): market_zones[index % zones].name
        for index, aggregate in enumerate(aggregates[: n_aggregates // 2])
    }
    return aggregates, ZonedTarget(zones=market_zones, assignment=assignment)


def run_zones_benchmark(
    n_aggregates: int = 220,
    members_per_aggregate: int = 3,
    days: int = 7,
    seed: int = 17,
    zones: int = 4,
    out_path: Path | str | None = None,
):
    """Benchmark the zone-sharded scheduler: vectorized vs reference engine.

    Times :func:`~repro.scheduling.zones.schedule_zones` on the 220-offer
    suite under the reference and vectorized engines, gates the vectorized
    engine ≥2× over the reference per-start loop with identical placements
    (cost within :data:`SCHEDULE_FIDELITY_RTOL`), and proves the
    ``workers=2`` process-pool fan-out produces a report identical to the
    sequential path.  Returns ``(report_dict, vectorized_result)``;
    ``out_path`` writes the repository's ``BENCH_zones.json`` baseline.
    """
    from repro.scheduling.zones import assign_zones, schedule_zones

    aggregates, zoned = build_zoned_workload(
        n_aggregates, members_per_aggregate, days, seed, zones
    )
    buckets = assign_zones(aggregates, zoned)

    # Warm-up (numpy dispatch, axis caches) before any timed pass.
    for engine in ("reference", "vectorized"):
        schedule_zones(aggregates[:8], zoned, ScheduleConfig(engine=engine))

    reference_seconds, reference_result = _timed(
        lambda: schedule_zones(aggregates, zoned, ScheduleConfig(engine="reference"))
    )
    vectorized_seconds, vectorized_result = _timed(
        lambda: schedule_zones(aggregates, zoned, ScheduleConfig(engine="vectorized"))
    )

    def _starts(result):
        return [
            (s.offer.offer_id, s.start) for r in result.results for s in r.schedules
        ]

    reference_identical_starts = _starts(reference_result) == _starts(
        vectorized_result
    )
    cost_match = bool(
        np.isclose(
            reference_result.cost,
            vectorized_result.cost,
            rtol=SCHEDULE_FIDELITY_RTOL,
        )
    )

    fanned = schedule_zones(
        aggregates, zoned, ScheduleConfig(engine="vectorized"), workers=2
    )
    workers_match = fanned == vectorized_result

    routed = vectorized_result.assignment()
    aggregate_ids = [a.offer.offer_id for a in aggregates]
    partition_ok = sorted(routed) == sorted(aggregate_ids)

    speedup_vs_reference = (
        reference_seconds / vectorized_seconds
        if vectorized_seconds > 0
        else float("inf")
    )

    report = {
        "workload": {
            "aggregates": len(aggregates),
            "member_offers": sum(a.size for a in aggregates),
            "days": days,
            "seed": seed,
            "zones": len(zoned.zones),
            "mapped_keys": len(zoned.assignment),
        },
        "zones": [
            {
                "name": zone.name,
                "offers": len(buckets[zone.name]),
                "target_kwh": round(zone.target.total(), 6),
                "price_floor": zone.price_floor,
                "price_cap": zone.price_cap,
            }
            for zone in zoned.zones
        ],
        "greedy": {
            "reference_seconds": round(reference_seconds, 4),
            "vectorized_seconds": round(vectorized_seconds, 4),
            "speedup_vs_reference": round(speedup_vs_reference, 2),
            "placed": len(vectorized_result.schedules),
            "unplaced": len(vectorized_result.unplaced),
            "cost": round(vectorized_result.cost, 6),
            "improvement": round(vectorized_result.improvement, 6),
            "value_eur": round(vectorized_result.market_value, 6),
        },
        "equivalence": {
            "reference_identical_placements": reference_identical_starts,
            "cost_match": cost_match,
            "workers_match_sequential": workers_match,
            "zone_partition": partition_ok,
            "fidelity_rtol": SCHEDULE_FIDELITY_RTOL,
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
    return report, vectorized_result


def run_uncertainty_benchmark(
    n_aggregates: int = 220,
    members_per_aggregate: int = 3,
    days: int = 7,
    seed: int = 17,
    out_path: Path | str | None = None,
):
    """Benchmark robust (quantile-fan) scheduling against point scheduling.

    Places the 220-aggregate suite twice on the vectorized engine — once
    against the point target, once against the synthetic quantile fan
    under CVaR risk — and reports the wall-time *overhead* of robust mode
    (gated ≤2× point scheduling: scoring a 3-scenario fan must stay in
    the same complexity class as the point path).  The equivalence block
    proves the robust reference scan and the batched robust path place
    bitwise identically, and that robust decisions are deterministic
    across runs.  The realized block scores both schedules against every
    scenario of the fan with :func:`~repro.scheduling.robust
    .evaluate_realized` — the robust schedule should not be beaten on the
    risk-weighted average it optimises.  Returns ``(report_dict,
    robust_result)``; ``out_path`` writes the repository's
    ``BENCH_uncertainty.json`` baseline.
    """
    from repro.scheduling.robust import (
        RobustConfig,
        evaluate_realized,
        quantile_weights,
        synthetic_fan,
    )

    #: The gate: robust placement may cost at most this many point passes.
    overhead_gate = 2.0

    aggregates, target = build_schedule_workload(
        n_aggregates, members_per_aggregate, days, seed
    )
    offers = [a.offer for a in aggregates]
    robust = RobustConfig(quantiles=(0.1, 0.5, 0.9), risk="cvar", alpha=0.3)
    robust_config = ScheduleConfig(robust=robust)
    scenarios = synthetic_fan(target, robust)
    weights = quantile_weights(robust.quantiles)

    # Warm-up (numpy dispatch, axis caches) before any timed pass.
    greedy_schedule(offers[:8], target)
    greedy_schedule(offers[:8], target, config=robust_config)

    point_seconds, point_result = _timed(lambda: greedy_schedule(offers, target))
    robust_seconds, robust_result = _timed(
        lambda: greedy_schedule(offers, target, config=robust_config)
    )
    overhead = (
        robust_seconds / point_seconds if point_seconds > 0 else float("inf")
    )

    def _placements(result):
        return [
            (s.offer.offer_id, s.start, s.slice_energies)
            for s in result.schedules
        ]

    reference_result = greedy_schedule(
        offers, target, config=ScheduleConfig(engine="reference", robust=robust)
    )
    reference_identical = _placements(reference_result) == _placements(
        robust_result
    )
    rerun_result = greedy_schedule(offers, target, config=robust_config)
    deterministic = _placements(rerun_result) == _placements(robust_result)

    point_costs = [
        evaluate_realized(point_result, scenario).realized_cost
        for scenario in scenarios
    ]
    robust_costs = [
        evaluate_realized(robust_result, scenario).realized_cost
        for scenario in scenarios
    ]
    point_expected = float(sum(w * c for w, c in zip(weights, point_costs)))
    robust_expected = float(sum(w * c for w, c in zip(weights, robust_costs)))

    report = {
        "workload": {
            "aggregates": len(aggregates),
            "member_offers": sum(a.size for a in aggregates),
            "days": days,
            "seed": seed,
            "quantiles": list(robust.quantiles),
            "risk": robust.risk,
            "alpha": robust.alpha,
            "sigma": robust.sigma,
        },
        "target": {
            "kind": "wind",
            "total_kwh": round(target.total(), 6),
            "intervals": target.axis.length,
        },
        "greedy": {
            "point_seconds": round(point_seconds, 4),
            "robust_seconds": round(robust_seconds, 4),
            "overhead": round(overhead, 2),
            "overhead_gate": overhead_gate,
            "meets_overhead_gate": bool(overhead <= overhead_gate),
            "placed": len(robust_result.schedules),
            "unplaced": len(robust_result.unplaced),
            "point_cost": round(point_result.cost, 6),
            "robust_cost": round(robust_result.cost, 6),
        },
        "realized": {
            "levels": list(robust.quantiles),
            "point_costs": [round(c, 6) for c in point_costs],
            "robust_costs": [round(c, 6) for c in robust_costs],
            "point_expected": round(point_expected, 6),
            "robust_expected": round(robust_expected, 6),
        },
        "equivalence": {
            "robust_reference_identical": reference_identical,
            "deterministic_across_runs": deterministic,
            "fidelity_rtol": SCHEDULE_FIDELITY_RTOL,
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
    return report, robust_result


def uncertainty_table_rows(report: dict) -> list[dict]:
    """Human-readable rows for the uncertainty CLI/bench table.

    One row per quantile level (realized cost of the point vs robust
    schedule against that scenario) plus a risk-weighted EXPECTED row.
    """
    realized = report["realized"]
    rows = [
        {
            "scenario": f"q{level:g}",
            "point_cost": round(point, 2),
            "robust_cost": round(robust, 2),
            "delta": round(robust - point, 2),
        }
        for level, point, robust in zip(
            realized["levels"], realized["point_costs"], realized["robust_costs"]
        )
    ]
    rows.append(
        {
            "scenario": "EXPECTED",
            "point_cost": round(realized["point_expected"], 2),
            "robust_cost": round(realized["robust_expected"], 2),
            "delta": round(
                realized["robust_expected"] - realized["point_expected"], 2
            ),
        }
    )
    return rows


def zones_table_rows(report: dict) -> list[dict]:
    """Human-readable rows for the zones CLI/bench table.

    One row per zone plus a TOTAL row; engine timings/speedups are printed
    separately (``_cmd_bench_zones``), not smuggled into a zone column.
    """
    rows = [
        {
            "zone": zone["name"],
            "offers": zone["offers"],
            "target_kwh": round(zone["target_kwh"], 1),
            "price_band": f"{zone['price_floor']}-{zone['price_cap']}",
        }
        for zone in report["zones"]
    ]
    rows.append(
        {
            "zone": "TOTAL",
            "offers": report["workload"]["aggregates"],
            "target_kwh": round(sum(z["target_kwh"] for z in report["zones"]), 1),
            "price_band": "—",
        }
    )
    return rows


def schedule_table_rows(report: dict) -> list[dict]:
    """Human-readable rows for the CLI/bench table."""
    greedy = report["greedy"]
    improve = report["improve"]
    return [
        {
            "phase": "greedy placement",
            "reference_s": greedy["reference_seconds"],
            "vectorized_s": greedy["vectorized_seconds"],
            "speedup": f"{greedy['speedup']}x",
            "detail": f"{greedy['placed']} placed / {greedy['unplaced']} unplaced",
        },
        {
            "phase": f"stochastic improve ({improve['iterations']} it)",
            "reference_s": improve["reference_seconds"],
            "vectorized_s": improve["vectorized_seconds"],
            "speedup": f"{improve['speedup']}x",
            "detail": f"cost {improve['cost']:.2f} (greedy {greedy['cost']:.2f})",
        },
    ]
