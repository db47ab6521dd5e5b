"""Zone-sharded multi-market scheduling: model, driver, engine, wire format.

Covers the tentpole contract of the zones subsystem:

* :class:`ZonedTarget`/:class:`MarketZone` validation and the assignment
  policy (explicit household mapping, deterministic hash-shard fallback);
* :func:`schedule_zones` — zone partition, per-zone independence, and the
  ``workers=N`` process-pool fan-out reproducing the sequential report
  *exactly*;
* the vectorized placement engine (which the legacy ``"incremental"``
  name selects) — placement-identical to the reference loop on real
  fleet aggregates, including the gap-ridden and DST fall-back
  conformance scenarios;
* the zone wire format — spec and report round trips, a pinned golden for
  the zoned encoding, and backward-compatible loads of pre-zone goldens.
"""

from __future__ import annotations

import json
from dataclasses import replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ExtractorSpec,
    FlexibilityService,
    PipelineSpec,
    RunReport,
    RunSpec,
    ScenarioSpec,
    ScheduleSpec,
    ZoneSpec,
)
from repro.api.registry import create_extractor
from repro.api.spec import MarketSpec
from repro.errors import SchedulingError, SpecError
from repro.flexoffer.io import (
    any_schedule_from_dict,
    any_schedule_to_dict,
    zoned_result_from_dict,
    zoned_result_to_dict,
)
from repro.flexoffer.model import FlexOffer, ProfileSlice
from repro.flexoffer.schedule import ScheduledFlexOffer, schedules_to_series
from repro.pipeline.fleet import FleetPipeline, fleet_zoned_target
from repro.scheduling.greedy import ScheduleConfig, ScheduleResult, greedy_schedule
from repro.scheduling.stochastic import improve_many, improve_schedule, improve_scope
from repro.scheduling.zones import (
    MarketZone,
    ZonedScheduleResult,
    ZonedTarget,
    assign_zone,
    assign_zones,
    hash_shard,
    routing_key,
    schedule_zones,
)
from repro.simulation.res import simulate_wind_production
from repro.timeseries.axis import TimeAxis, axis_for_days
from repro.timeseries.series import TimeSeries
from repro.workloads import scenarios as w

GOLDEN = Path(__file__).parent / "data" / "golden"
START = datetime(2012, 3, 5)


def flat_zone(name: str, level: float = 0.5, length: int = 96) -> MarketZone:
    axis = TimeAxis(start=START, resolution=timedelta(minutes=15), length=length)
    return MarketZone(
        name=name,
        target=TimeSeries.full(axis, level, name=f"{name}-target"),
        price_floor=0.05,
        price_cap=0.15,
    )


@pytest.fixture(scope="module")
def fleet_aggregates():
    """Real fleet aggregates with household consumer metadata."""
    fleet = w.zoned_market_fleet()
    extractor = create_extractor("peak-based", flexible_share=0.05)
    result = FleetPipeline(extractor, chunk_size=3).run(fleet)
    return fleet, result.aggregates


class TestZonedTargetModel:
    def test_zone_validation(self):
        with pytest.raises(SchedulingError, match="non-empty"):
            flat_zone("")
        with pytest.raises(SchedulingError, match="price_cap"):
            MarketZone("z", flat_zone("z").target, price_floor=0.2, price_cap=0.1)
        with pytest.raises(SchedulingError, match=">= 0"):
            MarketZone("z", flat_zone("z").target, price_floor=-0.1)

    def test_zoned_target_validation(self):
        with pytest.raises(SchedulingError, match="at least one zone"):
            ZonedTarget(zones=())
        with pytest.raises(SchedulingError, match="duplicate zone names"):
            ZonedTarget(zones=(flat_zone("a"), flat_zone("a")))
        with pytest.raises(SchedulingError, match="unknown zone"):
            ZonedTarget(zones=(flat_zone("a"),), assignment={"hh-1": "mars"})

    def test_zone_names_stay_printable_past_26(self):
        from repro.scheduling.zones import zone_name

        assert zone_name(0) == "zone-a"
        assert zone_name(25) == "zone-z"
        assert zone_name(26) == "zone-27"
        assert zone_name(40) == "zone-41"

    def test_lookup_and_price_mid(self):
        zoned = ZonedTarget(zones=(flat_zone("a"), flat_zone("b")))
        assert zoned.names == ("a", "b")
        assert zoned.zone("b").name == "b"
        assert zoned.zone("a").price_mid == pytest.approx(0.1)
        with pytest.raises(SchedulingError, match="unknown zone"):
            zoned.zone("c")


class TestAssignmentPolicy:
    def test_explicit_mapping_wins_over_hash(self, fleet_aggregates):
        fleet, aggregates = fleet_aggregates
        household = routing_key(aggregates[0])
        zoned = ZonedTarget(
            zones=(flat_zone("a"), flat_zone("b")),
            assignment={household: "b"},
        )
        assert assign_zone(aggregates[0], zoned) == "b"

    def test_mapped_member_wins_over_leading_unmapped_member(self):
        # Grouping can merge offers of different households into one
        # aggregate; an explicitly assigned household must pull the whole
        # aggregate to its zone even when an unmapped household's offer
        # leads the group (an aggregate is one indivisible offer).
        from dataclasses import replace as dc_replace

        from repro.aggregation.aggregate import aggregate_group
        from repro.flexoffer.model import next_offer_id

        leader = FlexOffer(
            earliest_start=START,
            latest_start=START + timedelta(hours=2),
            slices=(ProfileSlice(0.2, 0.8),),
            consumer_id="hh-unmapped",
        )
        follower = dc_replace(
            leader, offer_id=next_offer_id(), consumer_id="hh-mapped"
        )
        aggregate = aggregate_group([leader, follower])
        zoned = ZonedTarget(
            zones=(flat_zone("a"), flat_zone("b")),
            assignment={"hh-mapped": "b"},
        )
        assert routing_key(aggregate) == "hh-unmapped"
        assert assign_zone(aggregate, zoned) == "b"

    def test_hash_shard_is_deterministic_and_total(self):
        names = ("a", "b", "c")
        for key in ("hh-0000", "hh-0001", "weird key", ""):
            assert hash_shard(key, names) == hash_shard(key, names)
            assert hash_shard(key, names) in names

    def test_routing_key_prefers_consumer_metadata(self, fleet_aggregates):
        fleet, aggregates = fleet_aggregates
        household_ids = {t.config.household_id for t in fleet.traces}
        assert all(routing_key(a) in household_ids for a in aggregates)

    def test_partition_preserves_order_and_covers_everything(
        self, fleet_aggregates
    ):
        _, aggregates = fleet_aggregates
        zoned = fleet_zoned_target(w.zoned_market_fleet(), zones=3)
        buckets = assign_zones(aggregates, zoned)
        assert set(buckets) == set(zoned.names)
        flattened = [a.offer.offer_id for bucket in buckets.values() for a in bucket]
        assert sorted(flattened) == sorted(a.offer.offer_id for a in aggregates)
        for bucket in buckets.values():
            positions = [aggregates.index(a) for a in bucket]
            assert positions == sorted(positions)


class TestScheduleZones:
    @pytest.fixture(scope="class")
    def zoned(self):
        return fleet_zoned_target(w.zoned_market_fleet(), zones=3)

    def test_every_offer_scheduled_in_exactly_one_zone(
        self, fleet_aggregates, zoned
    ):
        _, aggregates = fleet_aggregates
        result = schedule_zones(aggregates, zoned)
        routed = result.assignment()
        assert sorted(routed) == sorted(a.offer.offer_id for a in aggregates)
        for aggregate in aggregates:
            assert routed[aggregate.offer.offer_id] == assign_zone(
                aggregate, zoned
            )

    def test_summary_sums_zones(self, fleet_aggregates, zoned):
        _, aggregates = fleet_aggregates
        result = schedule_zones(aggregates, zoned)
        summary = result.summary()
        assert summary["schedule_zones"] == 3.0
        assert summary["schedule_placed"] == float(
            sum(len(r.schedules) for r in result.results)
        )
        assert result.cost == pytest.approx(
            sum(r.cost for r in result.results)
        )
        assert result.market_value == pytest.approx(
            sum(
                z.price_mid * r.scheduled_energy
                for z, r in zip(result.zones, result.results)
            )
        )
        assert len(result.zone_rows()) == 3

    def test_empty_zone_is_legal(self, fleet_aggregates):
        _, aggregates = fleet_aggregates
        # Route everything explicitly to one zone; the other stays empty.
        assignment = {routing_key(a): "a" for a in aggregates}
        zoned = ZonedTarget(
            zones=(flat_zone("a"), flat_zone("b")), assignment=assignment
        )
        result = schedule_zones(aggregates, zoned)
        assert result.zone_result("b").schedules == []
        assert len(result.schedules) + len(result.unplaced) == len(aggregates)

    def test_robust_config_is_refused(self, fleet_aggregates, zoned):
        # Zoned markets keep point scheduling (ScheduleSpec says so too);
        # a robust config must not silently run per zone.
        from repro.scheduling.robust import RobustConfig

        _, aggregates = fleet_aggregates
        config = ScheduleConfig(robust=RobustConfig(risk="cvar"))
        with pytest.raises(SchedulingError, match="robust placement .* plain targets"):
            schedule_zones(aggregates, zoned, config)


class TestIncrementalEngine:
    """``engine="incremental"`` runs the vectorized engine; its placements
    match the reference loop's, scenario by scenario."""

    def _aggregates_on(self, fleet):
        extractor = create_extractor("peak-based", flexible_share=0.05)
        result = FleetPipeline(extractor, chunk_size=3).run(fleet)
        return [a.offer for a in result.aggregates]

    @pytest.mark.parametrize(
        "fleet_builder",
        [w.gap_ridden_fleet, w.dst_fallback_fleet],
        ids=["gap-ridden-metering", "dst-fallback-week"],
    )
    def test_bitwise_identical_on_conformance_scenarios(self, fleet_builder):
        fleet = fleet_builder()
        offers = self._aggregates_on(fleet)
        axis = fleet.metering_axis()
        target = simulate_wind_production(axis, np.random.default_rng(5))
        flexible = sum(o.profile_energy_max for o in offers)
        if target.total() > 0 and flexible > 0:
            target = target * (flexible / target.total())
        vectorized = greedy_schedule(offers, target)
        reference = greedy_schedule(
            offers, target, config=ScheduleConfig(engine="reference")
        )
        assert greedy_schedule(
            offers, target, config=ScheduleConfig(engine="incremental")
        ) == vectorized
        assert [(s.offer.offer_id, s.start) for s in vectorized.schedules] == [
            (s.offer.offer_id, s.start) for s in reference.schedules
        ]
        assert [o.offer_id for o in vectorized.unplaced] == [
            o.offer_id for o in reference.unplaced
        ]
        assert vectorized.cost == pytest.approx(reference.cost, rel=1e-9)

    def test_identical_on_offers_off_the_axis_grid(self):
        # The same degenerate terrain the vectorized engine is tested on:
        # off-grid anchors, horizon spill-over, fully outside offers.
        axis = axis_for_days(START, 1)
        target = TimeSeries(
            axis, np.random.default_rng(4).uniform(0, 1, axis.length)
        )
        offers = [
            FlexOffer(
                earliest_start=START + timedelta(minutes=7),
                latest_start=START + timedelta(hours=26),
                slices=(ProfileSlice(0.2, 0.8, 3), ProfileSlice(0.1, 0.5, 2)),
            ),
            FlexOffer(
                earliest_start=START - timedelta(hours=2),
                latest_start=START + timedelta(hours=1),
                slices=(ProfileSlice(0.5, 1.0),),
            ),
            FlexOffer(
                earliest_start=START + timedelta(days=2),
                latest_start=START + timedelta(days=3),
                slices=(ProfileSlice(0.5, 1.0),),
            ),
        ]
        vectorized = greedy_schedule(offers, target)
        reference = greedy_schedule(
            offers, target, config=ScheduleConfig(engine="reference")
        )
        assert [s.start for s in vectorized.schedules] == [
            s.start for s in reference.schedules
        ]
        for fast, slow in zip(vectorized.schedules, reference.schedules):
            np.testing.assert_allclose(
                fast.slice_energies, slow.slice_energies, rtol=1e-12
            )
        assert [o.offer_id for o in vectorized.unplaced] == [
            o.offer_id for o in reference.unplaced
        ]

    def test_identical_on_every_order(self, fleet_aggregates):
        _, aggregates = fleet_aggregates
        offers = [a.offer for a in aggregates]
        target = simulate_wind_production(
            axis_for_days(START, 5), np.random.default_rng(7)
        )
        for order in ("least-flexible-first", "largest-first", "as-given"):
            vectorized = greedy_schedule(offers, target, order=order)
            reference = greedy_schedule(
                offers,
                target,
                order=order,
                config=ScheduleConfig(engine="reference"),
            )
            assert [s.start for s in vectorized.schedules] == [
                s.start for s in reference.schedules
            ]


def golden_zoned_result() -> ZonedScheduleResult:
    """A handcrafted zoned result with fully deterministic values."""
    axis = TimeAxis(start=START, resolution=timedelta(minutes=15), length=8)
    offer = FlexOffer(
        earliest_start=START,
        latest_start=START + timedelta(minutes=30),
        slices=(ProfileSlice(0.2, 0.8), ProfileSlice(0.1, 0.4)),
        offer_id="golden-zone-offer",
    )
    schedule = ScheduledFlexOffer(offer, START, (0.5, 0.25))
    stranded = FlexOffer(
        earliest_start=START + timedelta(days=2),
        latest_start=START + timedelta(days=3),
        slices=(ProfileSlice(0.5, 1.0),),
        offer_id="golden-stranded-offer",
    )
    north = ScheduleResult(
        schedules=[schedule],
        demand=schedules_to_series([schedule], axis),
        target=TimeSeries.full(axis, 0.5, name="north-target"),
        unplaced=[],
    )
    south = ScheduleResult(
        schedules=[],
        demand=schedules_to_series([], axis),
        target=TimeSeries.full(axis, 0.25, name="south-target"),
        unplaced=[stranded],
    )
    return ZonedScheduleResult(
        zones=(
            MarketZone("north", north.target, price_floor=0.05, price_cap=0.15),
            MarketZone("south", south.target, price_floor=0.1, price_cap=0.3),
        ),
        results=(north, south),
    )


class TestZoneWireFormat:
    def test_zoned_encoding_matches_golden(self):
        encoded = zoned_result_to_dict(golden_zoned_result())
        golden = json.loads((GOLDEN / "zoned_result_golden.json").read_text())
        assert encoded == golden

    def test_zoned_round_trip_is_lossless(self):
        result = golden_zoned_result()
        reloaded = zoned_result_from_dict(zoned_result_to_dict(result))
        assert reloaded == result
        # Serialise→parse→serialise is a fixed point through JSON proper.
        text = json.dumps(zoned_result_to_dict(result))
        assert json.dumps(zoned_result_to_dict(zoned_result_from_dict(json.loads(text)))) == text

    def test_dispatcher_discriminates_by_zones_key(self):
        zoned = golden_zoned_result()
        assert isinstance(
            any_schedule_from_dict(any_schedule_to_dict(zoned)),
            ZonedScheduleResult,
        )
        single = zoned.results[0]
        assert isinstance(
            any_schedule_from_dict(any_schedule_to_dict(single)), ScheduleResult
        )

    def test_old_single_market_report_golden_still_loads(self):
        # Pre-zone reports carry no "zones" key anywhere; they must keep
        # loading byte-for-byte through the extended wire format.
        golden = json.loads(
            (Path(__file__).parent / "data" / "run_report_golden.json").read_text()
        )
        report = RunReport.from_dict(golden)
        assert report.to_dict() == golden


ZONED_SPEC = RunSpec(
    kind="fleet",
    name="zoned-spec-test",
    scenario=ScenarioSpec(households=4, days=2, seed=11),
    extractors=(ExtractorSpec("peak-based", {"flexible_share": 0.05}),),
    pipeline=PipelineSpec(
        chunk_size=4,
        schedule=ScheduleSpec(
            zones=(
                ZoneSpec(
                    name="north",
                    target_seed=2,
                    target_kwh=20.0,
                    price_floor=0.03,
                    price_cap=0.12,
                    households=("hh-0000", "hh-0001"),
                ),
                ZoneSpec(name="south", target_seed=3, target_kwh=15.0),
            ),
        ),
    ),
)


class TestZoneSpec:
    def test_round_trip(self):
        assert RunSpec.from_json(ZONED_SPEC.to_json()) == ZONED_SPEC

    def test_wire_format_omits_absent_zones(self):
        # Pre-zone spec files and goldens must keep loading unchanged.
        assert "zones" not in ScheduleSpec().to_dict()
        assert ScheduleSpec.from_dict(ScheduleSpec().to_dict()).zones == ()
        encoded = ZONED_SPEC.to_dict()
        assert len(encoded["pipeline"]["schedule"]["zones"]) == 2

    def test_validation(self):
        with pytest.raises(SpecError, match="zone.name"):
            ZoneSpec(name="")
        with pytest.raises(SpecError, match="target_kwh"):
            ZoneSpec(name="z", target_kwh=0.0)
        with pytest.raises(SpecError, match="price_cap below"):
            ZoneSpec(name="z", price_floor=0.5, price_cap=0.1)
        with pytest.raises(SpecError, match="duplicate zone names"):
            ScheduleSpec(zones=(ZoneSpec(name="a"), ZoneSpec(name="a")))
        with pytest.raises(SpecError, match="more than one zone"):
            ScheduleSpec(
                zones=(
                    ZoneSpec(name="a", households=("hh-0",)),
                    ZoneSpec(name="b", households=("hh-0",)),
                )
            )
        with pytest.raises(SpecError, match="duplicate household"):
            ZoneSpec(name="a", households=("hh-0", "hh-0"))
        with pytest.raises(SpecError, match="unknown key"):
            ZoneSpec.from_dict({"name": "a", "colour": "blue"})
        with pytest.raises(SpecError, match="missing required key 'name'"):
            ZoneSpec.from_dict({"target_seed": 1})


class TestZonedServiceRun:
    @pytest.fixture(scope="class")
    def report(self):
        return FlexibilityService().run(ZONED_SPEC)

    def test_schedule_is_zoned_and_honours_spec_assignment(self, report):
        result = report.get("peak-based")
        assert isinstance(result.schedule, ZonedScheduleResult)
        assert result.schedule.names == ("north", "south")
        assert result.summary["schedule_zones"] == 2.0
        # Every aggregate sits exactly where the spec's assignment policy
        # (explicit households → north, hash shard otherwise) routes it.
        routed = result.schedule.assignment()
        policy = ZonedTarget(
            zones=(flat_zone("north"), flat_zone("south")),
            assignment={"hh-0000": "north", "hh-0001": "north"},
        )
        for aggregate in result.aggregates:
            assert routed[aggregate.offer.offer_id] == assign_zone(
                aggregate, policy
            )

    def test_zoned_report_round_trips(self, report):
        text = report.to_json()
        reloaded = RunReport.from_json(text)
        assert reloaded.to_json() == text
        assert reloaded.to_dict() == report.to_dict()
        schedule = reloaded.get("peak-based").schedule
        assert isinstance(schedule, ZonedScheduleResult)
        assert schedule == report.get("peak-based").schedule


def _priced_zoned_spec(engine: str) -> RunSpec:
    """:data:`ZONED_SPEC` with every zone priced, clearing on, ``engine``."""
    zones = tuple(
        replace(zone, price_floor=0.02 + 0.01 * index, price_cap=0.12 + 0.02 * index)
        for index, zone in enumerate(ZONED_SPEC.pipeline.schedule.zones)
    )
    schedule = replace(
        ZONED_SPEC.pipeline.schedule,
        engine=engine,
        zones=zones,
        market=MarketSpec(slices=4, coupling_kwh=2.0),
    )
    return replace(
        ZONED_SPEC,
        name="priced-zoned-spec-test",
        pipeline=replace(ZONED_SPEC.pipeline, schedule=schedule),
    )


def _untimed(report: RunReport) -> dict:
    """A report's wire encoding without the wall-clock stage timings."""
    encoded = report.to_dict()
    for result in encoded["results"]:
        result.pop("stage_seconds")
    return encoded


class TestLegacyEngineNames:
    """``"auto"``/``"incremental"`` specs run the vectorized engine."""

    @pytest.fixture(scope="class")
    def vectorized(self):
        return _untimed(FlexibilityService().run(_priced_zoned_spec("vectorized")))

    @pytest.mark.parametrize("engine", ["auto", "incremental"])
    def test_priced_zoned_report_is_vectorized(self, vectorized, engine):
        report = _untimed(FlexibilityService().run(_priced_zoned_spec(engine)))
        # The spec echoes the name it was given; everything else is bitwise.
        assert report["spec"]["pipeline"]["schedule"]["engine"] == engine
        report["spec"]["pipeline"]["schedule"]["engine"] = "vectorized"
        assert report == vectorized
        assert report["results"][0]["schedule"]["zones"]


# ---------------------------------------------------------------------- #
# Improvement across zones, pinned to the per-zone sequential improver
# ---------------------------------------------------------------------- #

#: ``(workload seed, improve_iterations, kind)`` of every pinned run:
#: ``plain`` zones, ``market``-cleared zones, and ``flat`` zone targets,
#: where exactly tied gains are common.
IMPROVER_CASES = [
    (seed, iterations, kind)
    for seed in (5, 7, 11)
    for iterations in (1, 50, 2000)
    for kind in ("plain", "market", "flat")
]


def _improver_case(seed: int, iterations: int, kind: str):
    """The zones suite's workload and config of one pinned improver run."""
    from repro.bench import build_zoned_workload
    from repro.market.model import MarketConfig

    aggregates, zoned = build_zoned_workload(seed=seed)
    if kind == "flat":
        zoned = ZonedTarget(
            zones=tuple(
                replace(zone, target=TimeSeries.full(
                    zone.target.axis, 0.5, name=zone.target.name
                ))
                for zone in zoned.zones
            ),
            assignment=zoned.assignment,
        )
    market = MarketConfig(slices=8, coupling_kwh=25.0) if kind == "market" else None
    config = ScheduleConfig(
        improve_iterations=iterations, improve_seed=seed, market=market
    )
    return aggregates, zoned, config


def _zone_digests(result: ZonedScheduleResult) -> list[str]:
    """SHA-256 of each zone's schedule encoding."""
    import hashlib

    return [
        hashlib.sha256(
            json.dumps(any_schedule_to_dict(zone_result), sort_keys=True).encode()
        ).hexdigest()
        for zone_result in result.results
    ]


class TestImproverGolden:
    """``tests/data/golden/zoned_improver_digests.json`` was taken from the
    per-zone sequential improver; never regenerate it."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads((GOLDEN / "zoned_improver_digests.json").read_text())

    @pytest.mark.parametrize("seed, iterations, kind", IMPROVER_CASES)
    def test_improved_zones_match_golden(self, golden, seed, iterations, kind):
        result = schedule_zones(*_improver_case(seed, iterations, kind))
        assert _zone_digests(result) == golden[f"seed{seed}-it{iterations}-{kind}"]


def _placements(result: ScheduleResult) -> tuple:
    """Everything an improved schedule decides, bit for bit."""
    return (
        [(s.offer.offer_id, s.start, s.slice_energies) for s in result.schedules],
        result.demand.values.tobytes(),
        [offer.offer_id for offer in result.unplaced],
    )


def _assert_lockstep_matches_reference(results, iterations: int, seeds) -> None:
    """:func:`improve_many` ≡ each zone's ``engine="reference"`` run, with
    every generator left in the sequential run's state."""
    lockstep_rngs = [np.random.default_rng(seed) for seed in seeds]
    reference_rngs = [np.random.default_rng(seed) for seed in seeds]
    improved = improve_many(results, lockstep_rngs, iterations)
    reference = [
        improve_schedule(result, rng, iterations=iterations, engine="reference")
        for result, rng in zip(results, reference_rngs)
    ]
    assert [_placements(r) for r in improved] == [_placements(r) for r in reference]
    assert [rng.bit_generator.state for rng in lockstep_rngs] == [
        rng.bit_generator.state for rng in reference_rngs
    ]


def _improver_offer(
    axis: TimeAxis, first: int, flex: int, durations, rng, minutes: int = 0
) -> FlexOffer:
    """An offer starting ``first`` intervals (plus ``minutes``, off the
    grid) into ``axis`` — possibly before it or past its end — with
    ``flex`` intervals of start flexibility."""
    slices = []
    for duration in durations:
        low = float(rng.uniform(0.0, 0.4)) * duration
        high = low + float(rng.uniform(0.0, 0.6)) * duration
        slices.append(ProfileSlice(low, high, duration))
    earliest = axis.start + axis.resolution * first + timedelta(minutes=minutes)
    return FlexOffer(
        earliest_start=earliest,
        latest_start=earliest + axis.resolution * flex,
        slices=tuple(slices),
    )


@st.composite
def improver_zones(draw):
    """1–5 zones of greedy schedules: random or flat targets, profiles of
    1–40 intervals with multi-interval slices, offers off the interval
    grid, offers with no start on the axis, starts that overrun the axis
    end, and zones left empty."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    results = []
    for _ in range(draw(st.integers(1, 5))):
        length = draw(st.integers(4, 120))
        axis = TimeAxis(start=START, resolution=timedelta(minutes=15), length=length)
        values = (
            np.full(length, 0.5)
            if draw(st.booleans())
            else rng.uniform(-0.2, 1.5, length)
        )
        offers = []
        for _ in range(draw(st.integers(0, 6))):
            durations = draw(st.lists(st.integers(1, 4), min_size=1, max_size=10))
            while sum(durations) > 40:
                durations.pop()
            first = draw(st.integers(-10, length + 4))
            flex = draw(st.integers(0, 30))
            minutes = draw(st.sampled_from([0, 0, 7, 14]))
            offers.append(_improver_offer(axis, first, flex, durations, rng, minutes))
        results.append(greedy_schedule(offers, TimeSeries(axis, values)))
    return results


class TestLockstepImprover:
    """One lockstep run over every zone ≡ each zone's sequential run."""

    @staticmethod
    def greedy_zones(seed: int, kind: str) -> list[ScheduleResult]:
        aggregates, zoned, _ = _improver_case(seed, 0, kind)
        buckets = assign_zones(aggregates, zoned)
        return [
            greedy_schedule([a.offer for a in buckets[zone.name]], zone.target)
            for zone in zoned.zones
        ]

    @pytest.mark.parametrize("seed, kind", [(5, "plain"), (11, "flat")])
    def test_lockstep_matches_per_zone_reference(self, seed, kind):
        results = self.greedy_zones(seed, kind)
        _assert_lockstep_matches_reference(results, 2000, [seed] * len(results))

    @settings(max_examples=60, deadline=None)
    @given(
        results=improver_zones(),
        iterations=st.integers(0, 400),
        seed=st.integers(0, 99),
    )
    def test_any_zones_match_reference(self, results, iterations, seed):
        seeds = [seed + index for index in range(len(results))]
        _assert_lockstep_matches_reference(results, iterations, seeds)

    def test_edge_zones_match_reference(self):
        # A zone with no offers, a zone whose only offer has no start on
        # the axis, and a zone whose offer has starts past the axis end
        # (each one burns a draw without a move).
        axis = TimeAxis(start=START, resolution=timedelta(minutes=15), length=12)
        target = TimeSeries(axis, np.random.default_rng(3).uniform(0, 1, 12))
        rng = np.random.default_rng(4)
        off_axis = _improver_offer(axis, 14, 2, [1, 2], rng)
        overrun = _improver_offer(axis, 6, 5, [2, 3], rng)
        inside = _improver_offer(axis, 0, 8, [1, 1], rng)
        results = [
            greedy_schedule([], target),
            greedy_schedule([off_axis], target),
            greedy_schedule([overrun, inside], target),
        ]
        assert not results[0].schedules and not results[1].schedules
        assert results[1].unplaced == [off_axis]
        _assert_lockstep_matches_reference(results, 300, [1, 2, 3])

    def test_zones_improve_in_one_run_with_one_call_per_zone(self, monkeypatch):
        # Whatever watches improve_schedule still sees one call per zone,
        # while a single lockstep run answers all of them.
        from repro.scheduling import stochastic, zones

        runs, calls = [], []
        real_many, real_one = stochastic.improve_many, zones.improve_schedule

        def improve_many_spy(results, rngs, iterations):
            runs.append(len(results))
            return real_many(results, rngs, iterations)

        def improve_schedule_spy(result, rng, iterations=500, engine="vectorized"):
            calls.append(iterations)
            return real_one(result, rng, iterations=iterations, engine=engine)

        monkeypatch.setattr(stochastic, "improve_many", improve_many_spy)
        monkeypatch.setattr(zones, "improve_schedule", improve_schedule_spy)
        aggregates, zoned, config = _improver_case(7, 50, "plain")
        result = schedule_zones(aggregates, zoned, config)
        assert runs == [4]
        assert calls == [50] * 4
        assert _zone_digests(result) == json.loads(
            (GOLDEN / "zoned_improver_digests.json").read_text()
        )["seed7-it50-plain"]

    def test_scope_answers_each_member_once(self):
        results = self.greedy_zones(5, "plain")[:2]
        rngs = [np.random.default_rng(1), np.random.default_rng(1)]
        with improve_scope(results, rngs, 30):
            first = improve_schedule(results[0], rngs[0], iterations=30)
            second = improve_schedule(results[1], rngs[1], iterations=30)
            # Calls the scope does not cover run on their own: a repeat
            # call draws on from where the lockstep run left the generator.
            repeat = improve_schedule(results[0], rngs[0], iterations=30)
            other = improve_schedule(results[1], np.random.default_rng(1), iterations=31)

        def reference(result, rng, iterations=30):
            return improve_schedule(result, rng, iterations=iterations, engine="reference")

        rng = np.random.default_rng(1)
        assert _placements(first) == _placements(reference(results[0], rng))
        assert _placements(repeat) == _placements(reference(results[0], rng))
        assert _placements(second) == _placements(
            reference(results[1], np.random.default_rng(1))
        )
        assert _placements(other) == _placements(
            reference(results[1], np.random.default_rng(1), 31)
        )
