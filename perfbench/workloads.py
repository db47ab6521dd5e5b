"""The benchmark's workloads: set-up from a seed, one timed operation, checks.

Every workload runs in this one process with ``workers=None``.  Set-up
simulates the meter readings and synthesises the targets (simulation is
load generation); the timed operation receives only those readings and
ends with per-household schedules.  The targets are fixed market signals
(wind seed :data:`TARGET_SEED`), so the seed varies only the fleet.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from collections import Counter
from dataclasses import dataclass, field, replace
from datetime import timedelta
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from repro.aggregation.aggregate import disaggregate_schedule
from repro.aggregation.grouping import GroupingParams
from repro.api.registry import create_extractor
from repro.api.spec import (
    ExtractorSpec,
    PipelineSpec,
    RunSpec,
    ScenarioSpec,
    ScheduleSpec,
    SessionSpec,
)
from repro.evaluation.comparison import input_series_for
from repro.flexoffer.io import (
    aggregated_to_dict,
    any_schedule_to_dict,
    flexoffer_to_dict,
    schedule_to_dict,
)
from repro.flexoffer.validate import check_all
from repro.market.model import MarketConfig
from repro.pipeline.fleet import FleetPipeline, fleet_schedule_target, fleet_zoned_target
from repro.scheduling.greedy import ScheduleConfig
from repro.session.persistence import SessionJournal
from repro.session.replay import session_for_spec
from repro.session.state import FlexibilitySession
from repro.simulation.dataset import generate_fleet
from repro.timeseries.axis import FIFTEEN_MINUTES
from repro.workloads.scenarios import SCENARIO_START

#: Days of readings per household: every workload carries household-weeks.
DAYS = 7

#: Seed of the synthetic wind targets (the fleet helpers' default).
TARGET_SEED = 2

#: Tolerance of the disaggregation energy check (kWh).
ENERGY_TOLERANCE = 1e-9


def digest(payload: Any) -> str:
    """SHA-256 of a wire encoding; JSON floats round-trip, so equal digests
    mean bitwise-equal outputs."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _consumption_kwh(traces) -> float:
    return float(sum(trace.total.values.sum() for trace in traces))


def _window_problems(placement) -> list[str]:
    offer = placement.offer
    if offer.earliest_start <= placement.start <= offer.latest_start:
        return []
    return [
        f"{offer.offer_id}: start {placement.start} outside "
        f"[{offer.earliest_start}, {offer.latest_start}]"
    ]


# ---------------------------------------------------------------------- #
# Batch workloads: FleetPipeline.run, then schedule disaggregation
# ---------------------------------------------------------------------- #


@dataclass
class BatchCase:
    traces: list
    target: Any
    pipeline: FleetPipeline
    consumption_kwh: float

    @property
    def household_weeks(self) -> float:
        return len(self.traces) * DAYS / 7


@dataclass(frozen=True)
class BatchWorkload:
    """One ``FleetPipeline.run`` over the fleet plus ``disaggregate_schedule``
    on every placed aggregate."""

    name: str
    households: int
    extractor: str
    extractor_params: tuple[tuple[str, Any], ...] = ()
    max_group_size: int | None = None
    zones: int = 0
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)

    def setup(self, seed: int, households: int | None = None, workdir: Path | None = None) -> BatchCase:
        fleet = generate_fleet(households or self.households, SCENARIO_START, DAYS, seed=seed)
        if self.zones:
            target = fleet_zoned_target(fleet, seed=TARGET_SEED, zones=self.zones)
        else:
            target = fleet_schedule_target(fleet, seed=TARGET_SEED)
        grouping = (
            None if self.max_group_size is None else GroupingParams(max_group_size=self.max_group_size)
        )
        pipeline = FleetPipeline(
            create_extractor(self.extractor, **dict(self.extractor_params)),
            grouping=grouping,
            seed=seed,
            schedule=self.schedule,
        )
        case = BatchCase(list(fleet), target, pipeline, _consumption_kwh(fleet))
        # Warm-up on two households: lazy imports, template and FFT caches.
        self.release(self.run(replace(case, traces=case.traces[:2]))[1])
        return case

    def run(self, case: BatchCase, pause=None) -> tuple[list[float], tuple]:
        """The timed operation: ``([wall seconds], outputs)``."""
        t0 = perf_counter()
        result = case.pipeline.run(case.traces, case.target)
        by_id = {aggregate.offer.offer_id: aggregate for aggregate in result.aggregates}
        members = [
            disaggregate_schedule(by_id[placement.offer.offer_id], placement)
            for placement in result.schedule.schedules
        ]
        return [perf_counter() - t0], (result, members)

    def release(self, output) -> None:
        pass

    def latencies(self, output) -> dict[str, list[float]]:
        return {}

    def facts(self, case: BatchCase, output) -> dict[str, float]:
        result, _ = output
        clearing = getattr(result.schedule, "clearing", None)
        return {
            "imbalance_reduction": result.schedule.improvement,
            "residual_imbalance": result.schedule.cost / result.schedule.baseline_cost,
            "extracted_share": result.total_extracted_kwh / case.consumption_kwh,
            "market_welfare_eur": 0.0 if clearing is None else clearing.welfare_eur,
        }

    def digest(self, output) -> str:
        result, members = output
        return digest(
            {
                "households": [
                    [h.index, h.household_id, h.summary, [flexoffer_to_dict(o) for o in h.offers]]
                    for h in result.households
                ],
                "aggregates": [aggregated_to_dict(a) for a in result.aggregates],
                "schedule": any_schedule_to_dict(result.schedule),
                "members": [[schedule_to_dict(p) for p in parts] for parts in members],
            }
        )

    def check(self, case: BatchCase, output) -> list[str]:
        result, members = output
        problems = list(check_all(result.offers))
        by_id = {aggregate.offer.offer_id: aggregate for aggregate in result.aggregates}
        for placement, parts in zip(result.schedule.schedules, members):
            problems += _window_problems(placement)
            aggregate = by_id[placement.offer.offer_id]
            expected = placement.interval_energies()
            summed = np.zeros(expected.size)
            for offset, part in zip(aggregate.member_offsets, parts):
                problems += _window_problems(part)
                energies = part.interval_energies()
                summed[offset : offset + energies.size] += energies
            gap = float(np.max(np.abs(summed - expected), initial=0.0))
            if gap > ENERGY_TOLERANCE:
                problems.append(
                    f"{placement.offer.offer_id}: member energies miss the aggregate by {gap} kWh"
                )
        clearing = getattr(result.schedule, "clearing", None)
        if clearing is not None:
            if not math.isclose(
                clearing.payments_eur, clearing.revenue_eur, rel_tol=1e-9, abs_tol=1e-9
            ):
                problems.append(
                    f"payments {clearing.payments_eur} EUR != revenue {clearing.revenue_eur} EUR"
                )
            routed = Counter(
                offer_id
                for zone in result.schedule.results
                for offer_id in [s.offer.offer_id for s in zone.schedules]
                + [o.offer_id for o in zone.unplaced]
            )
            if set(routed) != set(by_id) or any(n != 1 for n in routed.values()):
                problems.append("an aggregate is missing from the zones or in more than one")
        return problems


# ---------------------------------------------------------------------- #
# Session workload: journaled rolling-horizon ingest/replan/commit
# ---------------------------------------------------------------------- #


@dataclass
class SessionCase:
    traces: list
    spec: RunSpec
    readings: np.ndarray  # households x 15-minute intervals, the meter feed
    consumption_kwh: float
    workdir: Path
    journals: int = 0

    @property
    def household_weeks(self) -> float:
        return len(self.traces) * DAYS / 7


@dataclass
class SessionOutput:
    session: FlexibilitySession
    journal_dir: Path
    snapshots: list = field(default_factory=list)
    replan_s: list[float] = field(default_factory=list)
    ingest_s: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class SessionWorkload:
    """A journaled ``FlexibilitySession`` fed ``window`` of readings for the
    next ``dirty_share`` of the fleet per round, replanning every round and
    committing explicitly at each simulated midnight."""

    name: str
    households: int
    dirty_share: float = 0.2
    window: timedelta = timedelta(hours=6)
    commit_horizon: timedelta = timedelta(hours=6)
    improve_iterations: int = 200
    target_share: float = 0.25

    def setup(self, seed: int, households: int | None = None, workdir: Path | None = None) -> SessionCase:
        n = households or self.households
        fleet = generate_fleet(n, SCENARIO_START, DAYS, seed=seed)
        consumption = _consumption_kwh(fleet)
        spec = RunSpec(
            name=self.name,
            scenario=ScenarioSpec(households=n, days=DAYS, seed=seed, start=SCENARIO_START),
            extractors=(ExtractorSpec("peak-based", {"flexible_share": 0.05}),),
            pipeline=PipelineSpec(
                schedule=ScheduleSpec(
                    target="wind",
                    target_seed=TARGET_SEED,
                    target_kwh=self.target_share * consumption,
                    improve_iterations=self.improve_iterations,
                ),
                session=SessionSpec(
                    commit_horizon_minutes=int(self.commit_horizon / timedelta(minutes=1))
                ),
            ),
        )
        extractor = spec.extractors[0].create()
        readings = np.stack([input_series_for(extractor, trace).values for trace in fleet])
        case = SessionCase(list(fleet), spec, readings, consumption, Path(workdir))
        # Warm-up: a journaled two-household session over the whole week.
        self.release(self.run(replace(case, traces=case.traces[:2], readings=readings[:2]))[1])
        return case

    def run(self, case: SessionCase, pause=None) -> tuple[list[float], SessionOutput]:
        """The timed operation: ``(wall seconds per simulated day, outputs)``.

        ``pause()``, when given, is called between days, outside the timed
        stretches (the harness re-measures its reference kernel there).
        """
        households, intervals = case.readings.shape
        per_round = max(1, round(households * self.dirty_share))
        step = int(self.window / FIFTEEN_MINUTES)
        per_day = int(timedelta(days=1) / FIFTEEN_MINUTES)
        journal_dir = case.workdir / f"journal-{case.journals}"
        case.journals += 1
        session = session_for_spec(case.spec, fleet=case.traces)
        session.attach_journal(SessionJournal.create(journal_dir, spec=case.spec.to_dict()))
        out = SessionOutput(session, journal_dir)
        days: list[float] = []
        t0 = perf_counter()
        for first in range(0, intervals, step):
            for group in range(0, households, per_round):
                for household in range(group, min(group + per_round, households)):
                    t = perf_counter()
                    session.ingest(household, first, case.readings[household, first : first + step])
                    out.ingest_s.append(perf_counter() - t)
                t = perf_counter()
                out.snapshots.append(session.replan())
                out.replan_s.append(perf_counter() - t)
            if (first + step) % per_day == 0:
                session.commit(SCENARIO_START + FIFTEEN_MINUTES * (first + step))
                days.append(perf_counter() - t0)
                if pause is not None and first + step < intervals:
                    pause()
                t0 = perf_counter()
        return days, out

    def release(self, output: SessionOutput) -> None:
        output.session.journal.close()
        shutil.rmtree(output.journal_dir)

    def latencies(self, output: SessionOutput) -> dict[str, list[float]]:
        return {"replan": output.replan_s, "ingest": output.ingest_s}

    def facts(self, case: SessionCase, output: SessionOutput) -> dict[str, float]:
        final = output.session.snapshot()
        extracted = sum(h.summary.get("extracted_kwh", 0.0) for h in final.households)
        return {
            "imbalance_reduction": final.schedule.improvement,
            "residual_imbalance": final.schedule.cost / final.schedule.baseline_cost,
            "extracted_share": extracted / case.consumption_kwh,
            "market_welfare_eur": 0.0,
        }

    def digest(self, output: SessionOutput) -> str:
        return digest(output.session.snapshot().to_dict())

    def check(self, case: SessionCase, output: SessionOutput) -> list[str]:
        problems = []
        snapshots = output.snapshots + [output.session.snapshot()]
        for earlier, later in zip(snapshots, snapshots[1:]):
            kept = {p.offer.offer_id: p for p in later.committed}
            moved = [p.offer.offer_id for p in earlier.committed if kept.get(p.offer.offer_id) != p]
            if moved:
                problems.append(
                    f"committed placements {moved[:3]} changed between state versions "
                    f"{earlier.version} and {later.version}"
                )
        if not snapshots[-1].committed:
            problems.append("the session never committed a placement")
        resumed = FlexibilitySession.resume(output.journal_dir, fleet=case.traces)
        try:
            if digest(resumed.snapshot().to_dict()) != self.digest(output):
                problems.append("the session resumed from its journal differs from the live one")
        finally:
            resumed.journal.close()
        return problems


WORKLOADS: dict[str, BatchWorkload | SessionWorkload] = {
    workload.name: workload
    for workload in (
        BatchWorkload(
            name="fleet-week",
            households=100,
            extractor="frequency-based",
            schedule=ScheduleConfig(improve_iterations=2000),
        ),
        BatchWorkload(
            name="zoned-market",
            households=250,
            extractor="peak-based",
            extractor_params=(("flexible_share", 0.05),),
            max_group_size=2,
            zones=4,
            # The zoned default engine ("auto") plus merit-order clearing.
            schedule=ScheduleConfig(
                engine="auto",
                improve_iterations=2000,
                market=MarketConfig(slices=8, coupling_kwh=25),
            ),
        ),
        SessionWorkload(name="session-journaled", households=100),
    )
}
