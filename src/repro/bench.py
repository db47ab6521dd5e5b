"""The ``repro bench`` harness: six benchmark suites as one preset table.

Each suite is a :class:`Preset` in :data:`PRESETS`: its name, description,
``BENCH_*.json`` artefact, canonical defaults, run function and speedup
gates.  :func:`run_preset` runs one at its defaults (overridable per
parameter), stamps the shared ``environment`` block and optionally writes
the report; :func:`report_tables` renders any report as console tables.
Every report carries an ``equivalence`` section of booleans;
:func:`equivalence_failures` names the false ones, and ``repro bench``
exits 1 on any.

* ``fleet`` — the extract→aggregate→schedule loop on a simulated fleet:
  :class:`~repro.pipeline.FleetPipeline` on the vectorized engines against
  the seed-shaped sequential loop on the ``engine="reference"`` matcher
  and scheduler.  Batched must equal sequential exactly, and the reference
  offers must match within :data:`FIDELITY_RTOL` (FFT vs direct
  correlation round-off).
* ``schedule`` — the market-facing half of the loop on its own: hundreds of
  aggregated offers placed over a week-long wind target, the vectorized
  placement engine and the stochastic improver against their reference
  loops (Tušar et al., BIOMA 2012).
* ``zones`` — the same suite sharded across four zone markets, half the
  aggregates explicitly routed and half hash-sharded.
* ``market`` — the suite priced: EV-fleet/heat-pump-scale offers cleared
  by merit order in four price-banded zones with a 25 kWh coupling.
  Acceptance sets must be identical, prices and quantities bitwise equal,
  welfare within :data:`FIDELITY_RTOL`.
* ``scale`` — the real pipeline at growing fleet sizes: each rung
  simulates a fleet (set-up) and runs ``peak-based`` extraction, grouping,
  aggregation and placement through
  :class:`~repro.pipeline.FleetPipeline`, reporting household-weeks/s;
  the smallest rung re-run with ``workers=2`` must match in process.
* ``uncertainty`` — robust (quantile-fan, CVaR) placement against point
  placement: the wall-time overhead, bitwise reference equivalence and the
  realized cost of both schedules in every scenario of the fan.
"""

from __future__ import annotations

import json
import platform
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from pathlib import Path
from types import MappingProxyType

import numpy as np

from repro.aggregation.aggregate import AggregatedFlexOffer, aggregate_group
from repro.flexoffer.generators import RandomGeneratorConfig, random_flexoffer
from repro.flexoffer.model import next_offer_id, offer_id_scope
from repro.scheduling.greedy import ScheduleConfig, greedy_schedule
from repro.scheduling.zones import ZonedTarget, make_market_zones, routing_key
from repro.simulation.res import simulate_wind_production
from repro.timeseries.axis import TimeAxis, axis_for_days
from repro.timeseries.series import TimeSeries
from repro.workloads.scenarios import SCENARIO_START

#: Relative tolerance of every reference-vs-vectorized comparison.  The
#: engines differ only in float round-off: FFT vs direct correlation,
#: summation order on the gain reductions, and the closed-form vs
#: per-interval bid-curve integral.
FIDELITY_RTOL = 1e-9

#: Timing repetitions per engine; the minimum is reported (robust against
#: scheduler noise on shared CI machines).
_TIMING_REPEATS = 3


def _timed(fn, repeats: int = _TIMING_REPEATS):
    """Run ``fn`` ``repeats`` times; return (min seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _ratio(slow: float, fast: float) -> float:
    """``slow / fast``; infinite when the fast side took no measurable time."""
    return slow / fast if fast > 0 else float("inf")


def _close(a: float, b: float) -> bool:
    return bool(np.isclose(a, b, rtol=FIDELITY_RTOL))


def environment() -> dict:
    """The ``environment`` block every report ends with."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "generated": datetime.now().isoformat(timespec="seconds"),
    }


@dataclass(frozen=True)
class Gate:
    """A bound on one report number: a speedup floor or an overhead cap."""

    path: tuple[str, ...]  # the number's keys in the report
    bound: float
    upper: bool = False  # True: the number must stay <= bound

    def passes(self, value: float) -> bool:
        return value <= self.bound if self.upper else value >= self.bound

    def failure(self, report: Mapping) -> str | None:
        """A one-line verdict when ``report`` misses the gate, else None."""
        value = report
        for key in self.path:
            value = value[key]
        if self.passes(value):
            return None
        relation = "<=" if self.upper else ">="
        return f"{'.'.join(self.path)} = {value:g}, gate {relation} {self.bound:g}"


#: Robust placement may cost at most this many point passes: scoring a
#: 3-scenario fan must stay in the point path's complexity class.
OVERHEAD_GATE = Gate(("greedy", "overhead"), 2.0, upper=True)


def equivalence_failures(report: Mapping) -> list[str]:
    """The names of the report's false equivalence booleans."""
    return [name for name, value in report.get("equivalence", {}).items() if value is False]


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #

#: The offers the aggregate workloads draw, keyed by the workload whose
#: id scope (``"<key>-bench"``) they mint in.  ``schedule``: household
#: scale, 12–48 h of start flexibility.  ``market``: EV-fleet/heat-pump
#: scale (8–192 slices, 4–50 kWh, 6–36 h), where bid derivation and
#: valuation, which scale with profile length, earn the batched engine
#: its keep.
OFFER_SHAPES: Mapping[str, RandomGeneratorConfig] = MappingProxyType(
    {
        "schedule": RandomGeneratorConfig(
            time_flexibility_min=timedelta(hours=12),
            time_flexibility_max=timedelta(hours=48),
        ),
        "market": RandomGeneratorConfig(
            slices_min=8,
            slices_max=192,
            total_energy_min=4.0,
            total_energy_max=50.0,
            time_flexibility_min=timedelta(hours=6),
            time_flexibility_max=timedelta(hours=36),
        ),
    }
)


def build_aggregates(
    axis: TimeAxis,
    n_aggregates: int,
    members_per_aggregate: int,
    seed: int,
    shape: str = "schedule",
) -> list[AggregatedFlexOffer]:
    """Deterministic aggregates of random offers drawn on ``axis``.

    Each aggregate groups a base offer (:data:`OFFER_SHAPES` ``[shape]``)
    with ``members_per_aggregate - 1`` shifted, rescaled copies whose
    starts stay within the grouping grid's default 2-hour tolerance: the
    shape :func:`repro.aggregation.grouping.group_offers` produces on real
    fleets.
    """
    rng = np.random.default_rng(seed)
    config = OFFER_SHAPES[shape]
    aggregates: list[AggregatedFlexOffer] = []
    with offer_id_scope(f"{shape}-bench"):
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
    return aggregates


def _flexible_kwh(aggregates: list[AggregatedFlexOffer]) -> float:
    return sum(a.offer.profile_energy_max for a in aggregates)


def build_schedule_workload(
    n_aggregates: int = 220,
    members_per_aggregate: int = 3,
    days: int = 7,
    seed: int = 17,
) -> tuple[list[AggregatedFlexOffer], TimeSeries]:
    """Aggregates plus a week of simulated wind production as the target,
    rescaled so its total matches the fleet's maximum flexible energy."""
    axis = axis_for_days(SCENARIO_START, days)
    aggregates = build_aggregates(axis, n_aggregates, members_per_aggregate, seed)
    target = simulate_wind_production(axis, np.random.default_rng(seed + 1))
    if target.total() > 0:
        target = target * (_flexible_kwh(aggregates) / target.total())
    return aggregates, target


def build_zoned_workload(
    n_aggregates: int = 220,
    members_per_aggregate: int = 3,
    days: int = 7,
    seed: int = 17,
    zones: int = 4,
    shape: str = "schedule",
) -> tuple[list[AggregatedFlexOffer], ZonedTarget]:
    """Aggregates sharded into a deterministic zoned market.

    ``zones`` price-banded zones from :func:`make_market_zones` (seeded
    ``seed + 100``), each with an equal slice of the fleet's flexible
    energy.  The first half of the aggregates is routed through the
    explicit assignment mapping (round-robin by routing key), the rest
    through the hash-shard fallback, so both policy paths run.
    """
    axis = axis_for_days(SCENARIO_START, days)
    aggregates = build_aggregates(axis, n_aggregates, members_per_aggregate, seed, shape)
    market_zones = make_market_zones(
        axis, zones, seed + 100, _flexible_kwh(aggregates) / max(zones, 1)
    )
    assignment = {
        routing_key(aggregate): market_zones[index % zones].name
        for index, aggregate in enumerate(aggregates[: n_aggregates // 2])
    }
    return aggregates, ZonedTarget(zones=market_zones, assignment=assignment)


def _workload(aggregates: list[AggregatedFlexOffer], days: int, seed: int, **extra) -> dict:
    return {
        "aggregates": len(aggregates),
        "member_offers": sum(a.size for a in aggregates),
        **extra,
        "days": days,
        "seed": seed,
    }


def _wind_target(target: TimeSeries) -> dict:
    return {
        "kind": "wind",
        "total_kwh": round(target.total(), 6),
        "intervals": target.axis.length,
    }


# ---------------------------------------------------------------------- #
# fleet
# ---------------------------------------------------------------------- #


def run_fleet(households: int, days: int, seed: int, workers: int | None, chunk_size: int):
    """The fleet suite's report."""
    from repro.api.registry import create_extractor
    from repro.pipeline.fleet import (
        FleetPipeline,
        fleet_schedule_target,
        offers_equivalent,
        results_identical,
        run_sequential,
    )
    from repro.simulation.dataset import generate_fleet

    simulate_seconds, fleet = _timed(
        lambda: generate_fleet(households, SCENARIO_START, days, seed=seed), repeats=1
    )
    target = fleet_schedule_target(fleet, seed=seed)

    vectorized = create_extractor("frequency-based", engine="vectorized")
    reference = create_extractor("frequency-based", engine="reference")
    schedule_vectorized = ScheduleConfig(engine="vectorized")

    def batched():
        return FleetPipeline(
            vectorized, chunk_size=chunk_size, workers=workers, schedule=schedule_vectorized
        ).run(fleet, target=target)

    # Equivalence pass first: it doubles as a warm-up (template caches,
    # numpy/scipy imports) so neither timed run pays one-off costs.
    sequential_vectorized = run_sequential(
        fleet, vectorized, target=target, schedule_config=schedule_vectorized
    )
    batched_equals_sequential = results_identical(batched(), sequential_vectorized)

    # Timed baseline: the sequential per-household loop on the reference
    # engines (matching and scheduling), the seed's execution shape.
    baseline_seconds, baseline_result = _timed(
        lambda: run_sequential(
            fleet, reference, target=target, schedule_config=ScheduleConfig(engine="reference")
        ),
        repeats=1,
    )
    # Timed batched run (fresh pipeline object; caches stay warm, as they
    # would across fleets in a long-lived service).
    pipeline_seconds, timed_result = _timed(batched, repeats=1)

    reference_matches = offers_equivalent(
        baseline_result.offers, timed_result.offers, rtol=FIDELITY_RTOL
    )
    schedule = timed_result.schedule
    report = {
        "workload": {
            "households": households,
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
            "placed": len(schedule.schedules),
            "unplaced": len(schedule.unplaced),
            "cost": round(schedule.cost, 6),
            "improvement": round(schedule.improvement, 6),
        },
        "speedup": round(_ratio(baseline_seconds, pipeline_seconds), 2),
        "equivalence": {
            "batched_equals_sequential": batched_equals_sequential,
            "reference_matches_vectorized": reference_matches,
            "fidelity_rtol": FIDELITY_RTOL,
        },
    }
    return report



# ---------------------------------------------------------------------- #
# schedule
# ---------------------------------------------------------------------- #


#: Stochastic improvement steps timed per engine by the schedule suite (and
#: per zone by the zones suite).
IMPROVE_ITERATIONS = 2000


def run_schedule(aggregates: int, days: int, seed: int):
    """The schedule suite's report."""
    from repro.scheduling.stochastic import improve_schedule

    workload, target = build_schedule_workload(aggregates, days=days, seed=seed)
    offers = [a.offer for a in workload]
    reference_config = ScheduleConfig(engine="reference")

    # Warm-up (numpy dispatch, axis caches) before any timed pass.
    greedy_schedule(offers[:8], target)
    greedy_schedule(offers[:8], target, config=reference_config)

    reference_seconds, reference_result = _timed(
        lambda: greedy_schedule(offers, target, config=reference_config)
    )
    vectorized_seconds, vectorized_result = _timed(lambda: greedy_schedule(offers, target))

    placements_identical = [
        (s.offer.offer_id, s.start) for s in reference_result.schedules
    ] == [(s.offer.offer_id, s.start) for s in vectorized_result.schedules]
    energies_match = bool(
        np.allclose(
            [e for s in reference_result.schedules for e in s.slice_energies],
            [e for s in vectorized_result.schedules for e in s.slice_energies],
            rtol=FIDELITY_RTOL,
            atol=1e-12,
        )
    )

    def improve(engine: str):
        return lambda: improve_schedule(
            vectorized_result,
            np.random.default_rng(seed),
            iterations=IMPROVE_ITERATIONS,
            engine=engine,
        )

    improve_reference_seconds, improve_reference = _timed(improve("reference"))
    improve_vectorized_seconds, improve_vectorized = _timed(improve("vectorized"))
    improve_identical = [
        (s.start, s.slice_energies) for s in improve_reference.schedules
    ] == [(s.start, s.slice_energies) for s in improve_vectorized.schedules]

    report = {
        "workload": {**_workload(workload, days, seed), "order": "least-flexible-first"},
        "target": _wind_target(target),
        "greedy": {
            "reference_seconds": round(reference_seconds, 4),
            "vectorized_seconds": round(vectorized_seconds, 4),
            "speedup": round(_ratio(reference_seconds, vectorized_seconds), 2),
            "placed": len(vectorized_result.schedules),
            "unplaced": len(vectorized_result.unplaced),
            "cost": round(vectorized_result.cost, 6),
            "improvement": round(vectorized_result.improvement, 6),
        },
        "improve": {
            "iterations": IMPROVE_ITERATIONS,
            "reference_seconds": round(improve_reference_seconds, 4),
            "vectorized_seconds": round(improve_vectorized_seconds, 4),
            "speedup": round(_ratio(improve_reference_seconds, improve_vectorized_seconds), 2),
            "cost": round(improve_vectorized.cost, 6),
        },
        "equivalence": {
            "placements_identical": placements_identical,
            "cost_match": _close(reference_result.cost, vectorized_result.cost),
            "energies_match": energies_match,
            "improve_identical": improve_identical,
            "fidelity_rtol": FIDELITY_RTOL,
        },
    }
    return report



# ---------------------------------------------------------------------- #
# zones
# ---------------------------------------------------------------------- #


def run_zones(aggregates: int, days: int, seed: int, zones: int):
    """The zones suite's report."""
    from repro.scheduling.stochastic import improve_many, improve_schedule
    from repro.scheduling.zones import assign_zones, schedule_zones

    workload, zoned = build_zoned_workload(aggregates, days=days, seed=seed, zones=zones)
    buckets = assign_zones(workload, zoned)

    def place(engine: str):
        return schedule_zones(workload, zoned, ScheduleConfig(engine=engine))

    # Warm-up (numpy dispatch, axis caches) before any timed pass.
    for engine in ("reference", "vectorized"):
        schedule_zones(workload[:8], zoned, ScheduleConfig(engine=engine))

    reference_seconds, reference_result = _timed(lambda: place("reference"))
    vectorized_seconds, vectorized_result = _timed(lambda: place("vectorized"))

    def starts(result):
        return [(s.offer.offer_id, s.start) for r in result.results for s in r.schedules]

    # Improvement of the vectorized greedy zones: one sequential reference
    # run per zone against one lockstep run over every zone.
    greedy_zones = vectorized_result.results
    improve_reference_seconds, improve_reference = _timed(
        lambda: [
            improve_schedule(
                result,
                np.random.default_rng(seed),
                iterations=IMPROVE_ITERATIONS,
                engine="reference",
            )
            for result in greedy_zones
        ]
    )
    improve_lockstep_seconds, improve_lockstep = _timed(
        lambda: improve_many(
            greedy_zones,
            [np.random.default_rng(seed) for _ in greedy_zones],
            IMPROVE_ITERATIONS,
        )
    )

    def placements(results):
        return [[(s.start, s.slice_energies) for s in r.schedules] for r in results]

    improve_identical = placements(improve_reference) == placements(improve_lockstep)

    report = {
        "workload": {
            **_workload(workload, days, seed),
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
            "speedup_vs_reference": round(_ratio(reference_seconds, vectorized_seconds), 2),
            "placed": len(vectorized_result.schedules),
            "unplaced": len(vectorized_result.unplaced),
            "cost": round(vectorized_result.cost, 6),
            "improvement": round(vectorized_result.improvement, 6),
            "value_eur": round(vectorized_result.market_value, 6),
        },
        "improve": {
            "iterations": IMPROVE_ITERATIONS,
            "reference_seconds": round(improve_reference_seconds, 4),
            "lockstep_seconds": round(improve_lockstep_seconds, 4),
            "speedup": round(_ratio(improve_reference_seconds, improve_lockstep_seconds), 2),
            "cost": round(sum(result.cost for result in improve_lockstep), 6),
        },
        "equivalence": {
            "reference_identical_placements": starts(reference_result)
            == starts(vectorized_result),
            "cost_match": _close(reference_result.cost, vectorized_result.cost),
            "zone_partition": sorted(vectorized_result.assignment())
            == sorted(a.offer.offer_id for a in workload),
            "improve_identical": improve_identical,
            "fidelity_rtol": FIDELITY_RTOL,
        },
    }
    return report



# ---------------------------------------------------------------------- #
# market
# ---------------------------------------------------------------------- #


#: The market suite's clearing: 8 market slices per zone and a 25 kWh
#: inter-zone coupling, so the spill pass runs too.
MARKET_SLICES = 8
COUPLING_KWH = 25.0


def run_market(aggregates: int, days: int, seed: int, zones: int):
    """The market suite's report."""
    from repro.market.clearing import clear_zones
    from repro.market.model import MarketConfig

    workload, zoned = build_zoned_workload(
        aggregates, days=days, seed=seed, zones=zones, shape="market"
    )
    configs = {
        engine: MarketConfig(slices=MARKET_SLICES, coupling_kwh=COUPLING_KWH, engine=engine)
        for engine in ("reference", "vectorized")
    }

    # Warm-up (numpy dispatch, axis caches, per-aggregate profile-array
    # caches) before any timed pass.
    for config in configs.values():
        clear_zones(workload, zoned, config)

    reference_seconds, reference = _timed(
        lambda: clear_zones(workload, zoned, configs["reference"])
    )
    vectorized_seconds, result = _timed(
        lambda: clear_zones(workload, zoned, configs["vectorized"])
    )

    def decisions(clearing) -> list[tuple]:
        """Everything decision-bearing about every bid, in a canonical order."""
        return sorted(
            (o.offer_id, o.home_zone, o.zone, o.slice_index, o.status, o.reason)
            for o in clearing.outcomes
        )

    def settlements(clearing) -> list[tuple]:
        """Per-bid cleared quantity and payment (must be bitwise equal)."""
        return sorted((o.offer_id, o.quantity_kwh, o.payment_eur) for o in clearing.outcomes)

    report = {
        "workload": {
            **_workload(
                workload,
                days,
                seed,
                avg_profile_slices=round(
                    sum(len(a.offer.slices) for a in workload) / len(workload), 2
                ),
            ),
            "zones": len(zoned.zones),
            "mapped_keys": len(zoned.assignment),
        },
        "clearing": {
            "reference_seconds": round(reference_seconds, 4),
            "vectorized_seconds": round(vectorized_seconds, 4),
            "speedup": round(_ratio(reference_seconds, vectorized_seconds), 2),
            "market_slices": MARKET_SLICES,
            "coupling_kwh": COUPLING_KWH,
            "accepted": len(result.accepted),
            "partial": len(result.partial),
            "rejected": len(result.rejected),
            "migrated": len(result.migrated),
            "cleared_kwh": round(result.cleared_kwh, 6),
            "revenue_eur": round(result.revenue_eur, 6),
            "consumer_surplus_eur": round(result.consumer_surplus_eur, 6),
            "producer_surplus_eur": round(result.producer_surplus_eur, 6),
            "welfare_eur": round(result.welfare_eur, 6),
        },
        "zones": result.table_rows(),
        "equivalence": {
            "acceptance_identical": decisions(reference) == decisions(result),
            "settlements_identical": settlements(reference) == settlements(result),
            "prices_identical": all(
                ref.slice_prices == vec.slice_prices and ref.cleared_kwh == vec.cleared_kwh
                for ref, vec in zip(reference.zones, result.zones)
            ),
            "welfare_match": _close(reference.welfare_eur, result.welfare_eur)
            and _close(reference.consumer_surplus_eur, result.consumer_surplus_eur),
            "budget_balanced": _close(result.payments_eur, result.revenue_eur),
            "fidelity_rtol": FIDELITY_RTOL,
        },
    }
    return report



# ---------------------------------------------------------------------- #
# scale
# ---------------------------------------------------------------------- #

#: The scale ladder's extractor: household-level, as in the ``zoned-market``
#: workload, so the ladder reaches thousands of households.
SCALE_EXTRACTOR = "peak-based"

#: The stages each rung's pipeline wall covers (simulation is set-up).
SCALE_PATH = "extract->aggregate->schedule"

#: Household-weeks/s at the largest rung must stay at least this share of
#: the smallest rung's.
SCALING_GATE = Gate(("scaling", "ratio"), 0.5)


def run_scale(sizes: tuple[int, ...], days: int, seed: int):
    """The scale suite's report.

    Each rung simulates a fleet (set-up, timed apart) and runs it in
    process through :class:`~repro.pipeline.FleetPipeline`: ``peak-based``
    extraction, grouping, aggregation and placement on
    :func:`~repro.pipeline.fleet.fleet_schedule_target` with the default
    :class:`~repro.scheduling.greedy.ScheduleConfig`.  Household-weeks/s
    counts the pipeline wall only.  The smallest rung is re-run with
    ``workers=2``, whose result must equal the in-process one exactly.
    """
    from repro.api.registry import create_extractor
    from repro.pipeline.fleet import FleetPipeline, fleet_schedule_target, results_identical
    from repro.simulation.dataset import generate_fleet

    extractor = create_extractor(SCALE_EXTRACTOR)
    in_process = FleetPipeline(extractor, seed=seed, schedule=ScheduleConfig())
    fanned_out = FleetPipeline(extractor, workers=2, seed=seed, schedule=ScheduleConfig())
    ladder: list[dict] = []
    for households in sorted(sizes):
        simulate_seconds, fleet = _timed(
            lambda: generate_fleet(households, SCENARIO_START, days, seed=seed), repeats=1
        )
        target = fleet_schedule_target(fleet, seed=seed)
        if not ladder:
            in_process.run(list(fleet)[:2], target=target)  # warm-up: imports, caches
        seconds, result = _timed(lambda: in_process.run(fleet, target=target), repeats=1)
        if not ladder:
            workers_seconds, workers_result = _timed(
                lambda: fanned_out.run(fleet, target=target), repeats=1
            )
            workers = {
                "households": households,
                "workers": fanned_out.workers,
                "in_process_seconds": round(seconds, 4),
                "workers_seconds": round(workers_seconds, 4),
            }
            identical = results_identical(workers_result, result)
        household_weeks = households * days / 7
        ladder.append(
            {
                "households": households,
                "household_weeks": round(household_weeks, 4),
                "simulate_seconds": round(simulate_seconds, 4),
                "pipeline_seconds": round(seconds, 4),
                "household_weeks_per_second": round(_ratio(household_weeks, seconds), 1),
                "stages": {
                    stage: round(elapsed, 4)
                    for stage, elapsed in result.timings.seconds.items()
                },
                "offers": len(result.offers),
                "aggregates": len(result.aggregates),
                "placed": len(result.schedule.schedules),
                "unplaced": len(result.schedule.unplaced),
            }
        )
        del fleet, result  # one simulated fleet alive at a time
    rates = [rung["household_weeks_per_second"] for rung in ladder]
    report = {
        "workload": {
            "sizes": sorted(sizes),
            "days": days,
            "seed": seed,
            "extractor": extractor.name,
            "path": f"simulate (set-up), then {SCALE_PATH} through FleetPipeline",
        },
        "ladder": ladder,
        "workers": workers,
        "scaling": {"ratio": round(_ratio(rates[-1], rates[0]), 2), "gate": SCALING_GATE.bound},
        "equivalence": {"workers_match_in_process": identical},
    }
    return report



# ---------------------------------------------------------------------- #
# uncertainty
# ---------------------------------------------------------------------- #


def run_uncertainty(aggregates: int, days: int, seed: int):
    """The uncertainty suite's report.

    The robust schedule should not be beaten on the risk-weighted average
    of realized costs it optimises; the ``realized`` block scores both
    schedules against every scenario of the fan.
    """
    from repro.scheduling.robust import (
        RobustConfig,
        evaluate_realized,
        quantile_weights,
        synthetic_fan,
    )

    workload, target = build_schedule_workload(aggregates, days=days, seed=seed)
    offers = [a.offer for a in workload]
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
    overhead = _ratio(robust_seconds, point_seconds)

    def same_placements(config) -> bool:
        """Whether a fresh run under ``config`` places as the timed robust run."""
        rerun = greedy_schedule(offers, target, config=config)
        return [(s.offer.offer_id, s.start, s.slice_energies) for s in rerun.schedules] == [
            (s.offer.offer_id, s.start, s.slice_energies) for s in robust_result.schedules
        ]

    def realized(result) -> list[float]:
        return [evaluate_realized(result, scenario).realized_cost for scenario in scenarios]

    point_costs = realized(point_result)
    robust_costs = realized(robust_result)
    point_expected = float(sum(w * c for w, c in zip(weights, point_costs)))
    robust_expected = float(sum(w * c for w, c in zip(weights, robust_costs)))

    report = {
        "workload": {
            **_workload(workload, days, seed),
            "quantiles": list(robust.quantiles),
            "risk": robust.risk,
            "alpha": robust.alpha,
            "sigma": robust.sigma,
        },
        "target": _wind_target(target),
        "greedy": {
            "point_seconds": round(point_seconds, 4),
            "robust_seconds": round(robust_seconds, 4),
            "overhead": round(overhead, 2),
            "overhead_gate": OVERHEAD_GATE.bound,
            "meets_overhead_gate": OVERHEAD_GATE.passes(overhead),
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
            "robust_reference_identical": same_placements(
                ScheduleConfig(engine="reference", robust=robust)
            ),
            "deterministic_across_runs": same_placements(robust_config),
            "fidelity_rtol": FIDELITY_RTOL,
        },
    }
    return report


# ---------------------------------------------------------------------- #
# The preset table
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Preset:
    """One ``repro bench`` suite.

    ``defaults`` are the canonical parameters of the committed
    ``artefact``; ``run(**params)`` returns the suite's report, which
    :func:`report_tables` renders.
    """

    name: str
    description: str
    artefact: str
    defaults: Mapping[str, object]
    run: Callable[..., dict]
    gates: tuple[Gate, ...]

    def gate_failures(self, report: Mapping) -> list[str]:
        """One line per gate ``report`` misses (empty when all hold)."""
        return [failure for gate in self.gates if (failure := gate.failure(report))]


def _aggregate_defaults(**extra) -> Mapping[str, object]:
    return MappingProxyType({"aggregates": 220, "days": 7, "seed": 17, **extra})


PRESETS: Mapping[str, Preset] = MappingProxyType(
    {
        preset.name: preset
        for preset in (
            Preset(
                name="fleet",
                description="batched extract->aggregate->schedule pipeline vs "
                "the sequential loop",
                artefact="BENCH_fleet.json",
                defaults=MappingProxyType(
                    {"households": 20, "days": 7, "seed": 13, "workers": None, "chunk_size": 8}
                ),
                run=run_fleet,
                gates=(Gate(("speedup",), 5.0),),
            ),
            Preset(
                name="schedule",
                description="vectorized vs reference placement engine on "
                "aggregated offers",
                artefact="BENCH_schedule.json",
                defaults=_aggregate_defaults(),
                run=run_schedule,
                gates=(Gate(("greedy", "speedup"), 5.0),),
            ),
            Preset(
                name="zones",
                description="zone-sharded multi-market scheduling, vectorized "
                "vs reference engine; lockstep improver vs per-zone reference",
                artefact="BENCH_zones.json",
                defaults=_aggregate_defaults(zones=4),
                run=run_zones,
                gates=(Gate(("greedy", "speedup_vs_reference"), 2.0),),
            ),
            Preset(
                name="market",
                description="merit-order market clearing on the priced "
                "220-aggregate suite, batched vs reference bid derivation",
                artefact="BENCH_market.json",
                defaults=_aggregate_defaults(zones=4),
                run=run_market,
                gates=(Gate(("clearing", "speedup"), 3.0),),
            ),
            Preset(
                name="scale",
                description=f"the real pipeline at growing fleet sizes: simulate "
                f"(set-up), then peak-based {SCALE_PATH} through FleetPipeline; "
                "workers=2 must match in process",
                artefact="BENCH_scale.json",
                defaults=MappingProxyType(
                    {"sizes": (100, 1_000, 3_000), "days": 7, "seed": 23}
                ),
                run=run_scale,
                gates=(SCALING_GATE,),
            ),
            Preset(
                name="uncertainty",
                description="robust quantile-fan scheduling vs point scheduling: "
                "overhead gate, bitwise engine equivalence and per-quantile "
                "realized costs",
                artefact="BENCH_uncertainty.json",
                defaults=_aggregate_defaults(),
                run=run_uncertainty,
                gates=(OVERHEAD_GATE,),
            ),
        )
    }
)


def run_preset(name: str, out_path: Path | str | None = None, **params) -> dict:
    """Run preset ``name`` at its defaults overridden by ``params``.

    Returns the report, which ends with the :func:`environment` block and,
    when ``out_path`` is given, is also written there as JSON (the
    repository's ``BENCH_*.json`` baselines).
    """
    preset = PRESETS[name]
    report = preset.run(**{**preset.defaults, **params})
    report["environment"] = environment()
    if out_path is not None:
        Path(out_path).write_text(json.dumps(report, indent=2) + "\n")
    return report


def _flatten(node: Mapping, prefix: str = "") -> dict:
    """``node``'s leaves keyed by dotted path; lists count as leaves."""
    flat: dict = {}
    for key, value in node.items():
        if isinstance(value, Mapping):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def report_tables(report: Mapping) -> list[tuple[str, list[dict]]]:
    """A report as titled console tables, read from the report alone.

    Each list-of-records section (``zones``, ``ladder``) is its own table
    with nested dicts flattened to dotted columns; every other leaf outside
    ``environment``, the equivalence booleans among them, is one
    ``metric | value`` row of the closing ``metrics`` table.
    """
    tables: list[tuple[str, list[dict]]] = []
    metrics: list[dict] = []
    body = {key: value for key, value in report.items() if key != "environment"}
    for path, value in _flatten(body).items():
        if isinstance(value, list) and value and all(isinstance(r, Mapping) for r in value):
            tables.append((path, [_flatten(record) for record in value]))
        else:
            metrics.append({"metric": path, "value": value})
    return [*tables, ("metrics", metrics)]
