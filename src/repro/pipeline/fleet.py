"""Batched fleet execution: disaggregate → extract → aggregate at scale.

The paper's MIRABEL vision concerns "flex-offers aggregated from thousands
consumers" (§6); the per-household extractors only pay off operationally
when they run over whole metered fleets.  :class:`FleetPipeline` is that
engine: it takes N households, runs the extraction stages as chunked
batches (optionally fanned out over worker processes), groups and
aggregates the resulting offers fleet-wide, and captures wall-clock per
stage.

Determinism contract: the pipeline seeds each household's generator from
its fleet index exactly like the sequential loop
(:func:`run_sequential`), and both mint offer ids inside per-household
:func:`~repro.flexoffer.model.offer_id_scope` namespaces (``h{index}`` for
extraction, ``fleet`` for the aggregation stage).  Batching, chunk sizes
and worker counts therefore never change the extracted offers — not even
their ids — only how fast they arrive.  The property test, the fleet
benchmark and the conformance matrix all assert this equivalence; use
:func:`results_identical` for the strict ids-included comparison and
:func:`offers_equivalent` for the id-free (or tolerance-relaxed) one.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.aggregation.aggregate import AggregatedFlexOffer, aggregate_all
from repro.aggregation.grouping import GroupingParams, group_offers
from repro.api.registry import create_extractor
from repro.errors import ValidationError
from repro.pipeline.dispatch import check_count, dispatch_chunks
from repro.testing import faults
from repro.evaluation.comparison import SEED_STRIDE, input_series_for
from repro.extraction.base import DayCheckpoint, DayTrail, FlexibilityExtractor
from repro.flexoffer.model import FlexOffer, offer_id_scope
from repro.scheduling.greedy import ScheduleConfig, ScheduleResult, greedy_schedule
from repro.scheduling.stochastic import improve_schedule
from repro.scheduling.zones import ZonedScheduleResult, ZonedTarget, schedule_zones
from repro.simulation.dataset import SimulatedDataset
from repro.simulation.household import HouseholdTrace
from repro.timeseries.series import TimeSeries

#: Pipeline stages, in execution order.  ``disaggregate`` is only non-zero
#: for extractors exposing the detect_many/formulate split (the appliance-level
#: approaches); household-level extractors do all their work in ``extract``;
#: ``schedule`` runs only when a target series is supplied (the market-
#: facing placement of the fleet aggregates against e.g. RES surplus).
STAGES: tuple[str, ...] = (
    "prepare",
    "disaggregate",
    "extract",
    "group",
    "aggregate",
    "schedule",
)



@dataclass
class StageTimings:
    """Per-stage wall-clock capture of one pipeline run.

    With a worker fan-out, ``disaggregate``/``extract`` are the *summed*
    in-worker seconds (CPU-time-like); ``fanout_wall`` then records the
    coordinator-observed wall time of the whole fan-out block.
    """

    seconds: dict[str, float] = field(default_factory=dict)

    def add(self, stage: str, elapsed: float) -> None:
        self.seconds[stage] = self.seconds.get(stage, 0.0) + elapsed

    def merge(self, other: dict[str, float]) -> None:
        for stage, elapsed in other.items():
            self.add(stage, elapsed)

    @property
    def total(self) -> float:
        """Total accounted seconds across the core stages."""
        return float(sum(self.seconds.get(stage, 0.0) for stage in STAGES))

    def rows(self) -> list[dict[str, float | str]]:
        """Stage table rows for reports (stage, seconds, share)."""
        total = self.total or 1.0
        rows: list[dict[str, float | str]] = []
        for stage in STAGES:
            elapsed = self.seconds.get(stage, 0.0)
            rows.append(
                {
                    "stage": stage,
                    "seconds": round(elapsed, 4),
                    "share": f"{elapsed / total:.1%}",
                }
            )
        for stage, elapsed in self.seconds.items():
            if stage not in STAGES:
                rows.append({"stage": stage, "seconds": round(elapsed, 4), "share": "—"})
        return rows


@dataclass(frozen=True)
class HouseholdOutput:
    """One household's share of a fleet run.

    ``trail`` is set only for day-local extractions run with checkpoints
    (see :func:`extract_households`); it is derived state, left out of
    comparisons.
    """

    index: int
    household_id: str
    offers: tuple[FlexOffer, ...]
    summary: dict[str, float]
    trail: DayTrail | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class FleetResult:
    """Everything a fleet run produced: offers, aggregates, timings.

    ``schedule`` is the market-facing placement of the fleet aggregates
    against a target — present only when the run was given one.  It is a
    :class:`~repro.scheduling.zones.ZonedScheduleResult` when the target
    was a zoned market, a plain
    :class:`~repro.scheduling.greedy.ScheduleResult` otherwise.
    """

    households: tuple[HouseholdOutput, ...]
    aggregates: tuple[AggregatedFlexOffer, ...]
    timings: StageTimings
    schedule: ScheduleResult | ZonedScheduleResult | None = None

    @property
    def offers(self) -> list[FlexOffer]:
        """All offers in household order (== sequential-loop order)."""
        return [offer for household in self.households for offer in household.offers]

    @property
    def total_extracted_kwh(self) -> float:
        """Fleet-wide extracted (profile-midpoint) energy."""
        return float(sum(h.summary.get("extracted_kwh", 0.0) for h in self.households))


def stamp_household(
    offers: tuple[FlexOffer, ...] | list[FlexOffer], household_id: str
) -> tuple[FlexOffer, ...]:
    """Stamp the owning household onto offers that carry no consumer id.

    The fleet pipeline knows which household each extraction ran for; the
    extractors themselves mostly do not (they see a bare series).  Offers
    leaving the pipeline therefore always carry their household identity —
    the metadata key the zone-assignment policy routes by
    (:func:`repro.scheduling.zones.routing_key`).  Offers that already
    name a consumer (e.g. a configured extractor) are left untouched.
    """
    return tuple(
        offer if offer.consumer_id else offer.with_consumer(household_id)
        for offer in offers
    )


def canonical_offer(offer: FlexOffer) -> tuple:
    """An offer's identity-free content, for cross-run comparison.

    Offer ids come from a process-global counter and differ between runs by
    construction; everything else an extractor emits is captured here.
    """
    return (
        offer.earliest_start,
        offer.latest_start,
        offer.resolution,
        offer.consumer_id,
        offer.appliance,
        offer.source,
        tuple((s.energy_min, s.energy_max, s.duration) for s in offer.slices),
        offer.total_energy_min,
        offer.total_energy_max,
    )


def _energies_close(a: float, b: float, rtol: float) -> bool:
    if rtol == 0.0:
        return a == b
    return bool(np.isclose(a, b, rtol=rtol, atol=1e-12))


def offers_equivalent(
    left: list[FlexOffer], right: list[FlexOffer], rtol: float = 0.0
) -> bool:
    """True when both offer lists match pairwise modulo offer ids.

    ``rtol`` relaxes the energy comparisons (0.0 demands bitwise equality);
    time attributes and slice structure must always match exactly.
    """
    if len(left) != len(right):
        return False
    if rtol == 0.0:
        # Bitwise path: offer identity is exactly canonical_offer, so the
        # two notions of equality cannot drift apart.
        return all(
            canonical_offer(a) == canonical_offer(b) for a, b in zip(left, right)
        )
    for a, b in zip(left, right):
        if canonical_offer(a)[:6] != canonical_offer(b)[:6]:
            return False
        if len(a.slices) != len(b.slices):
            return False
        for slice_a, slice_b in zip(a.slices, b.slices):
            if slice_a.duration != slice_b.duration:
                return False
            if not _energies_close(slice_a.energy_min, slice_b.energy_min, rtol):
                return False
            if not _energies_close(slice_a.energy_max, slice_b.energy_max, rtol):
                return False
        for total_a, total_b in (
            (a.total_energy_min, b.total_energy_min),
            (a.total_energy_max, b.total_energy_max),
        ):
            if (total_a is None) != (total_b is None):
                return False
            if total_a is not None and not _energies_close(total_a, total_b, rtol):
                return False
    return True


def results_identical(left: FleetResult, right: FleetResult) -> bool:
    """True when two fleet runs are *exactly* equal — offer ids included.

    Both run paths mint ids in deterministic per-household namespaces, so
    batched vs sequential (any chunk size, any worker count) must agree on
    everything except wall-clock timings.  This is the strict form of
    :func:`offers_equivalent`; the conformance matrix asserts it on every
    registered extractor.  When a schedule stage ran, its placements and
    demand plan are part of the contract too.
    """
    if len(left.households) != len(right.households):
        return False
    for a, b in zip(left.households, right.households):
        if (a.index, a.household_id, a.offers, a.summary) != (
            b.index,
            b.household_id,
            b.offers,
            b.summary,
        ):
            return False
    if left.aggregates != right.aggregates:
        return False
    if (left.schedule is None) != (right.schedule is None):
        return False
    return left.schedule is None or left.schedule == right.schedule


def fleet_schedule_target(
    fleet: SimulatedDataset | list[HouseholdTrace],
    seed: int = 2,
    share: float = 0.25,
) -> TimeSeries:
    """A deterministic RES-surplus target for a fleet's schedule stage.

    Simulated wind production on the fleet's metering axis, rescaled so its
    total energy is ``share`` of the fleet's total consumption — a target
    magnitude the extracted flexibility can meaningfully chase regardless
    of fleet size or season.
    """
    from repro.simulation.res import simulate_wind_production

    traces = list(fleet)
    if not traces:
        raise ValidationError("fleet must contain at least one household")
    axis = (
        fleet.metering_axis()
        if hasattr(fleet, "metering_axis")
        else traces[0].metered().axis
    )
    production = simulate_wind_production(axis, np.random.default_rng(seed))
    consumption = float(sum(trace.total.values.sum() for trace in traces))
    if production.total() > 0 and consumption > 0:
        production = production * (share * consumption / production.total())
    return production


def fleet_zoned_target(
    fleet: SimulatedDataset | list[HouseholdTrace],
    seed: int = 2,
    zones: int = 3,
    share: float = 0.25,
    mapped_fraction: float = 0.5,
) -> ZonedTarget:
    """A deterministic zoned market for a fleet's schedule stage.

    ``zones`` named zones (``zone-a``, ``zone-b``, ...), each with its own
    wind-production profile (seeded ``seed + zone index``) rescaled to an
    equal slice of ``share`` of the fleet's total consumption, and a
    per-zone price band.  The first ``mapped_fraction`` of the households
    is assigned round-robin through the explicit metadata policy; the rest
    routes through the hash-shard fallback — so both assignment paths are
    exercised on every fleet.
    """
    from repro.scheduling.zones import make_market_zones

    traces = list(fleet)
    if not traces:
        raise ValidationError("fleet must contain at least one household")
    if zones < 1:
        raise ValidationError("zones must be >= 1")
    axis = (
        fleet.metering_axis()
        if hasattr(fleet, "metering_axis")
        else traces[0].metered().axis
    )
    consumption = float(sum(trace.total.values.sum() for trace in traces))
    market_zones = make_market_zones(
        axis, zones, seed, share * consumption / zones
    )
    mapped = int(len(traces) * mapped_fraction)
    assignment = {
        trace.config.household_id: market_zones[index % zones].name
        for index, trace in enumerate(traces[:mapped])
    }
    return ZonedTarget(zones=market_zones, assignment=assignment)


def schedule_aggregates(
    aggregates: tuple[AggregatedFlexOffer, ...] | list[AggregatedFlexOffer],
    target: TimeSeries | ZonedTarget,
    config: ScheduleConfig | None = None,
) -> ScheduleResult | ZonedScheduleResult:
    """The pipeline's schedule stage: place fleet aggregates on a target.

    Greedy placement of every aggregate offer (paper [5]'s post-aggregation
    scheduling), optionally followed by ``config.improve_iterations`` of
    the stochastic hill climber seeded from ``config.improve_seed`` — all
    deterministic, so batched and sequential runs agree exactly.  A
    :class:`~repro.scheduling.zones.ZonedTarget` routes through
    :func:`~repro.scheduling.zones.schedule_zones` instead: aggregates are
    sharded into zones and each zone is scheduled independently.
    """
    if isinstance(target, ZonedTarget):
        return schedule_zones(aggregates, target, config)
    config = config if config is not None else ScheduleConfig()
    result = greedy_schedule(
        [aggregate.offer for aggregate in aggregates], target, config=config
    )
    if config.improve_iterations > 0:
        result = improve_schedule(
            result,
            np.random.default_rng(config.improve_seed),
            iterations=config.improve_iterations,
            engine=config.engine,
        )
    return result


# ---------------------------------------------------------------------- #
# Worker entry points (module-level so they pickle under multiprocessing)
# ---------------------------------------------------------------------- #

#: Per-worker extractor, installed once by the pool initializer so the
#: extractor (appliance database, warmed template/FFT caches) is pickled
#: once per worker instead of once per chunk, and its caches stay warm
#: across all chunks a worker processes.
_WORKER_EXTRACTOR: FlexibilityExtractor | None = None


def _init_worker(extractor: FlexibilityExtractor) -> None:
    # Offer ids need no per-worker fixup: extraction runs inside
    # per-household offer_id_scope namespaces, so the ids a worker mints
    # depend only on the household index — never on pids or fork order.
    global _WORKER_EXTRACTOR
    _WORKER_EXTRACTOR = extractor


def _run_chunk_in_worker(
    chunk_index: int, seed: int, jobs: list[tuple[int, str, TimeSeries]]
) -> tuple[list[HouseholdOutput], dict[str, float]]:
    """Run one chunk of ``(index, household_id, series)`` jobs in a worker.

    The jobs travel by value, pickled with the task.  Unpickling hands back
    writeable arrays, so each series is frozen again: an extractor that
    writes into its input then fails here exactly as it does on the
    read-only trace totals of the in-process path.
    """
    assert _WORKER_EXTRACTOR is not None, "worker pool initializer did not run"
    faults.fire("fleet-chunk", chunk_index)
    for _, _, series in jobs:
        series.values.flags.writeable = False
    return extract_households(_WORKER_EXTRACTOR, seed, jobs)


#: Households whose disaggregation runs in lockstep; one tile is detected
#: and formulated before the next, so only one tile's energy maps and
#: detections are alive at a time.
_TILE_WIDTH = 16


def extract_households(
    extractor: FlexibilityExtractor,
    seed: int,
    jobs: list[tuple[int, str, TimeSeries]],
    checkpoints: list[DayCheckpoint | None] | None = None,
    stop_days: list[int] | None = None,
) -> tuple[list[HouseholdOutput], dict[str, float]]:
    """Extract ``(index, household_id, series)`` jobs; returns outputs (in
    job order) plus stage seconds.

    The one place a household's extraction is seeded and scoped: household
    ``index`` draws from ``default_rng(seed + SEED_STRIDE·index)`` and mints
    its offer ids in ``offer_id_scope(f"h{index}")``, so the batch pipeline,
    session replans and snapshot restores produce bitwise-identical offers
    for the same input.  Extractors exposing ``detect_many``/``formulate``
    (the appliance-level approaches and ``peak-based``) detect each tile of
    :data:`_TILE_WIDTH` households in one batched call, then formulate them
    one by one.

    ``checkpoints`` resumes day-local extractions: a job with a
    :class:`~repro.extraction.base.DayCheckpoint` is detected and
    formulated from the checkpoint's day on, minting ids after the
    checkpoint's, and only its new offers get stamped; its generator is
    restored from the checkpoint, so it is not seeded.  When the list is
    given, each output also carries its run's
    :class:`~repro.extraction.base.DayTrail` (``None`` for extractors that
    are not day-local), from which the caller takes the next checkpoint.

    ``stop_days[i]`` says job ``i``'s series is zero from that day on
    (nothing was written there).  A day-local extractor detects and
    formulates only the days before it, which yields the offers and
    summary of the whole series; other extractors ignore it.
    """
    split = hasattr(extractor, "detect_many") and hasattr(extractor, "formulate")
    trails = checkpoints is not None
    if not getattr(extractor, "day_local", False):
        stop_days = None
    if checkpoints is None:
        checkpoints = [None] * len(jobs)
    timings = {"disaggregate": 0.0, "extract": 0.0}
    outputs: list[HouseholdOutput] = []
    # A resumed job's generator state is restored from its checkpoint, so
    # resumed jobs share one generator instead of seeding their own.
    resumed_rng = (
        np.random.default_rng(seed)
        if any(checkpoint is not None for checkpoint in checkpoints)
        else None
    )
    for first in range(0, len(jobs), _TILE_WIDTH):
        tile = jobs[first : first + _TILE_WIDTH]
        resumes = checkpoints[first : first + _TILE_WIDTH]
        if split:
            t0 = time.perf_counter()
            inputs = [series for _, _, series in tile]
            days = [0 if checkpoint is None else checkpoint.day for checkpoint in resumes]
            if stop_days is not None:
                stops = stop_days[first : first + _TILE_WIDTH]
                detected = extractor.detect_many(inputs, days, stops)
            elif any(days):
                detected = extractor.detect_many(inputs, days)
            else:
                detected = extractor.detect_many(inputs)
            timings["disaggregate"] += time.perf_counter() - t0
        for position, ((index, household_id, series), checkpoint) in enumerate(
            zip(tile, resumes)
        ):
            rng = (
                np.random.default_rng(seed + SEED_STRIDE * index)
                if checkpoint is None
                else resumed_rng
            )
            minted = 0 if checkpoint is None else checkpoint.ids_minted
            t0 = time.perf_counter()
            with offer_id_scope(f"h{index}", start=minted):
                if checkpoint is not None:
                    result = extractor.formulate(series, detected[position], rng, checkpoint)
                elif split:
                    result = extractor.formulate(series, detected[position], rng)
                else:
                    result = extractor.extract(series, rng)
            timings["extract"] += time.perf_counter() - t0
            offers = tuple(result.offers[:minted]) + stamp_household(
                result.offers[minted:], household_id
            )
            outputs.append(
                HouseholdOutput(
                    index=index,
                    household_id=household_id,
                    offers=offers,
                    summary=result.summary(),
                    trail=result.extras.get("trail") if trails else None,
                )
            )
    return outputs, timings


class FleetPipeline:
    """Chunked, optionally multiprocessing, fleet extraction engine.

    Parameters
    ----------
    extractor:
        Any :class:`FlexibilityExtractor`; appliance-level extractors that
        expose ``detect_many``/``formulate`` get their disaggregation stage
        timed (and fanned out) separately.  Defaults to the frequency-based
        appliance-level approach.
    grouping:
        Grid parameters for fleet-wide offer grouping before aggregation.
    chunk_size:
        Households per dispatched batch when fanning out; bounds
        task-submission overhead, the series bytes each task pickles and
        per-worker peak memory.  In-process runs extract the whole fleet
        in one pass (tile by tile).
    workers:
        ``None``/``1`` runs in-process; larger values fan chunks out over a
        process pool.  Results are independent of the worker count.  A dead
        worker rebuilds the pool and re-dispatches only the outstanding
        chunks; a chunk whose worker dies in every pool finishes in-process
        (see :func:`~repro.pipeline.dispatch.dispatch_chunks`).
    seed:
        Base seed; household ``i`` always draws from
        ``default_rng(seed + 7919·i)``, matching the evaluation harness.
    schedule:
        Configuration of the optional schedule stage (engine, placement
        order, stochastic-improvement budget); the stage itself runs only
        when :meth:`run` is given a target series.
    """

    def __init__(
        self,
        extractor: FlexibilityExtractor | None = None,
        grouping: GroupingParams | None = None,
        chunk_size: int = 8,
        workers: int | None = None,
        seed: int = 0,
        schedule: ScheduleConfig | None = None,
    ) -> None:
        check_count("chunk_size", chunk_size)
        check_count("workers", workers, optional=True)
        self.extractor = (
            extractor if extractor is not None else create_extractor("frequency-based")
        )
        self.grouping = grouping
        self.chunk_size = chunk_size
        self.workers = workers
        self.seed = seed
        self.schedule = schedule

    # ------------------------------------------------------------------ #
    # Stages
    # ------------------------------------------------------------------ #

    def _prepare(
        self, traces: list[HouseholdTrace]
    ) -> list[tuple[int, str, TimeSeries]]:
        """Pick each household's input series at the extractor's granularity."""
        return [
            (index, trace.config.household_id, input_series_for(self.extractor, trace))
            for index, trace in enumerate(traces)
        ]

    def run(
        self,
        fleet: SimulatedDataset | list[HouseholdTrace],
        target: TimeSeries | ZonedTarget | None = None,
    ) -> FleetResult:
        """Run the full batched pipeline over a fleet.

        Accepts a :class:`SimulatedDataset` or a plain list of traces and
        returns the per-household offers, the fleet-wide aggregated offers
        and the per-stage timings.  When ``target`` is given (e.g. RES
        surplus on the metering grid), the schedule stage places the fleet
        aggregates against it and the result carries a
        :class:`~repro.scheduling.greedy.ScheduleResult` — or a
        :class:`~repro.scheduling.zones.ZonedScheduleResult` when the
        target is a zoned market.
        """
        traces = list(fleet)
        if not traces:
            raise ValidationError("fleet must contain at least one household")
        timings = StageTimings()

        t0 = time.perf_counter()
        jobs = self._prepare(traces)
        timings.add("prepare", time.perf_counter() - t0)

        if self.workers is None or self.workers == 1 or len(jobs) <= self.chunk_size:
            # In process, chunks are no dispatch unit: one call keeps the
            # lockstep tiles full whatever the chunk size.
            outputs, chunk_timings = extract_households(self.extractor, self.seed, jobs)
            timings.merge(chunk_timings)
        else:
            t0 = time.perf_counter()
            outputs = self._fan_out(jobs, timings)
            timings.add("fanout_wall", time.perf_counter() - t0)
        return _finish(outputs, timings, self.grouping, target, self.schedule)

    def _fan_out(
        self, jobs: list[tuple[int, str, TimeSeries]], timings: StageTimings
    ) -> list[HouseholdOutput]:
        """Run the chunks through the fault-tolerant dispatcher.

        Each chunk carries its jobs by value, so the fan-out needs no
        lifecycle code and works under any process start method.  Worker
        loss is survived by :func:`~repro.pipeline.dispatch.dispatch_chunks`
        (pool rebuild, outstanding-only re-dispatch, in-process
        degradation), while a chunk that *raises* still propagates with the
        not-yet-started chunks cancelled.
        """
        chunks = [
            jobs[first : first + self.chunk_size]
            for first in range(0, len(jobs), self.chunk_size)
        ]
        results = dispatch_chunks(
            [(index, self.seed, chunk) for index, chunk in enumerate(chunks)],
            _run_chunk_in_worker,
            lambda: ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(self.extractor,),
            ),
            # Degraded chunks recompute in process from the same jobs —
            # same seeds, same id scopes, bitwise-same outputs.
            lambda index: extract_households(self.extractor, self.seed, chunks[index]),
            label="fleet extraction",
        )
        outputs: list[HouseholdOutput] = []
        for chunk_outputs, chunk_timings in results:
            outputs.extend(chunk_outputs)
            timings.merge(chunk_timings)
        return outputs


def _finish(
    outputs: list[HouseholdOutput],
    timings: StageTimings,
    grouping: GroupingParams | None,
    target: TimeSeries | ZonedTarget | None,
    schedule_config: ScheduleConfig | None,
) -> FleetResult:
    """Group, aggregate and (given a target) schedule the fleet's offers."""
    all_offers = [offer for household in outputs for offer in household.offers]
    t0 = time.perf_counter()
    groups = group_offers(all_offers, grouping)
    timings.add("group", time.perf_counter() - t0)

    t0 = time.perf_counter()
    with offer_id_scope("fleet"):
        aggregates = aggregate_all(groups)
    timings.add("aggregate", time.perf_counter() - t0)

    schedule: ScheduleResult | ZonedScheduleResult | None = None
    if target is not None:
        t0 = time.perf_counter()
        schedule = schedule_aggregates(aggregates, target, schedule_config)
        timings.add("schedule", time.perf_counter() - t0)

    return FleetResult(
        households=tuple(outputs),
        aggregates=tuple(aggregates),
        timings=timings,
        schedule=schedule,
    )


def run_sequential(
    fleet: SimulatedDataset | list[HouseholdTrace],
    extractor: FlexibilityExtractor | None = None,
    grouping: GroupingParams | None = None,
    seed: int = 0,
    target: TimeSeries | ZonedTarget | None = None,
    schedule_config: ScheduleConfig | None = None,
) -> FleetResult:
    """The plain per-household loop the batched engine must reproduce.

    One household at a time, no chunking, no stage split — the shape of the
    seed pipeline.  Kept as the equivalence oracle for the property test
    and the benchmark.
    """
    traces = list(fleet)
    if not traces:
        raise ValidationError("fleet must contain at least one household")
    extractor = extractor if extractor is not None else create_extractor("frequency-based")
    timings = StageTimings()
    outputs: list[HouseholdOutput] = []
    t0 = time.perf_counter()
    for index, trace in enumerate(traces):
        rng = np.random.default_rng(seed + SEED_STRIDE * index)
        series = input_series_for(extractor, trace)
        with offer_id_scope(f"h{index}"):
            result = extractor.extract(series, rng)
        outputs.append(
            HouseholdOutput(
                index=index,
                household_id=trace.config.household_id,
                offers=stamp_household(result.offers, trace.config.household_id),
                summary=result.summary(),
            )
        )
    timings.add("extract", time.perf_counter() - t0)
    return _finish(outputs, timings, grouping, target, schedule_config)
