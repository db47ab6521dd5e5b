"""Unit tests of the fleet pipeline engine (repro.pipeline)."""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest

from repro.conformance import run_conformance
from repro.disaggregation.matching import MatchingConfig, match_pursuit
from repro.errors import DataError, ValidationError
from repro.extraction import (
    FlexOfferParams,
    FrequencyBasedExtractor,
    PeakBasedExtractor,
    ScheduleBasedExtractor,
)
from repro.pipeline import (
    STAGES,
    FleetPipeline,
    StageTimings,
    canonical_offer,
    offers_equivalent,
    results_identical,
    run_sequential,
)
from repro.pipeline.fleet import fleet_schedule_target
from repro.scheduling import ScheduleConfig
from repro.simulation.dataset import generate_fleet

START = datetime(2012, 3, 5)


@pytest.fixture(scope="module")
def tiny_fleet():
    return generate_fleet(4, START, 2, seed=7)


class TestFleetPipeline:
    def test_batched_equals_sequential_household_level(self, tiny_fleet):
        extractor = PeakBasedExtractor(params=FlexOfferParams(flexible_share=0.05))
        batched = FleetPipeline(extractor, chunk_size=2).run(tiny_fleet)
        sequential = run_sequential(tiny_fleet, extractor)
        assert offers_equivalent(batched.offers, sequential.offers)
        # Deterministic per-household id scopes: exact equality, ids included.
        assert results_identical(batched, sequential)
        assert len(batched.households) == 4

    def test_batched_equals_sequential_appliance_level(self, tiny_fleet):
        extractor = FrequencyBasedExtractor()
        batched = FleetPipeline(extractor, chunk_size=3).run(tiny_fleet)
        sequential = run_sequential(tiny_fleet, extractor)
        assert offers_equivalent(batched.offers, sequential.offers)
        assert results_identical(batched, sequential)

    def test_lockstep_tiles_across_a_boundary_equal_sequential(self):
        # 19 households: one full 16-household tile plus a ragged one.
        fleet = generate_fleet(19, START, 1, seed=11)
        extractor = FrequencyBasedExtractor()
        batched = FleetPipeline(extractor).run(fleet)
        assert results_identical(batched, run_sequential(fleet, extractor))

    def test_chunk_size_invariance(self, tiny_fleet):
        extractor = PeakBasedExtractor(params=FlexOfferParams(flexible_share=0.05))
        one = FleetPipeline(extractor, chunk_size=1).run(tiny_fleet)
        big = FleetPipeline(extractor, chunk_size=64).run(tiny_fleet)
        assert offers_equivalent(one.offers, big.offers)

    def test_stage_timings_recorded(self, tiny_fleet):
        result = FleetPipeline(FrequencyBasedExtractor()).run(tiny_fleet)
        # The schedule stage only runs (and is only timed) with a target.
        for stage in STAGES:
            if stage == "schedule":
                assert stage not in result.timings.seconds
            else:
                assert stage in result.timings.seconds
        # Appliance-level extractors spend real time disaggregating.
        assert result.timings.seconds["disaggregate"] > 0.0
        assert result.timings.total > 0.0
        rows = result.timings.rows()
        assert [row["stage"] for row in rows[: len(STAGES)]] == list(STAGES)

    def test_schedule_based_split_matches_extract(self, tiny_fleet):
        # The detect/formulate split must be a pure refactor of extract().
        trace = tiny_fleet.traces[0]
        extractor = ScheduleBasedExtractor()
        direct = extractor.extract(trace.total, np.random.default_rng(5))
        detected = extractor.detect(trace.total)
        split = extractor.formulate(trace.total, detected, np.random.default_rng(5))
        assert offers_equivalent(direct.offers, split.offers)

    def test_aggregates_cover_all_offers(self, tiny_fleet):
        result = FleetPipeline(FrequencyBasedExtractor()).run(tiny_fleet)
        member_count = sum(a.size for a in result.aggregates)
        assert member_count == len(result.offers)

    def test_worker_fanout_deterministic_offer_ids(self, tiny_fleet):
        # Workers mint ids inside per-household scopes, so a fanned-out run
        # is bit-identical to the in-process sequential loop — ids included.
        extractor = PeakBasedExtractor(params=FlexOfferParams(flexible_share=0.05))
        fanned = FleetPipeline(extractor, chunk_size=1, workers=2).run(tiny_fleet)
        ids = [offer.offer_id for offer in fanned.offers]
        assert len(set(ids)) == len(ids)
        sequential = run_sequential(tiny_fleet, extractor)
        assert offers_equivalent(fanned.offers, sequential.offers)
        assert results_identical(fanned, sequential)

    def test_worker_fanout_after_in_process_matching(self, tiny_fleet):
        # The coordinator runs matching pursuit itself first; the workers it
        # then starts (forked on Linux) must not share any of its memory.
        extractor = FrequencyBasedExtractor()
        in_process = FleetPipeline(extractor).run(tiny_fleet)
        fanned = FleetPipeline(extractor, chunk_size=2, workers=2).run(tiny_fleet)
        sequential = run_sequential(tiny_fleet, extractor)
        assert results_identical(in_process, sequential)
        assert results_identical(fanned, sequential)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValidationError):
            FleetPipeline().run([])


class _InputWritingExtractor(FrequencyBasedExtractor):
    """Writes into its first input before detecting anything."""

    def detect_many(self, series):
        series[0].values[0] = 0.0
        return super().detect_many(series)


class TestFanOut:
    """Fleet chunks cross to the workers by value; results stay bitwise."""

    def test_by_value_fanout_bitwise_identical(self, fleet):
        sequential = run_sequential(fleet, seed=0)
        fanned = FleetPipeline(workers=2, chunk_size=2, seed=0).run(fleet)
        assert results_identical(fanned, sequential)

    def test_mixed_axis_fleet_fanout_bitwise_identical(self):
        from repro.api.registry import create_extractor
        from repro.evaluation.comparison import input_series_for
        from repro.workloads.scenarios import small_fleet

        extractor = create_extractor("peak-based", flexible_share=0.05)
        # Two horizons, so the households' input series sit on two axes.
        fleet = [*small_fleet(n=3, days=2, seed=5), *small_fleet(n=3, days=3, seed=6)]
        assert len({input_series_for(extractor, t).axis for t in fleet}) == 2
        sequential = run_sequential(fleet, extractor, seed=0)
        fanned = FleetPipeline(extractor, workers=2, chunk_size=2, seed=0).run(fleet)
        assert results_identical(fanned, sequential)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_worker_inputs_are_read_only(self, tiny_fleet, workers):
        # In process the extractor reads the frozen trace totals; a worker
        # must refreeze the unpickled copies so the write fails there too.
        pipeline = FleetPipeline(_InputWritingExtractor(), chunk_size=2, workers=workers)
        with pytest.raises(ValueError, match="read-only"):
            pipeline.run(tiny_fleet)

    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda: FleetPipeline(chunk_size=2.5, workers=2), "chunk_size"),
            (lambda: FleetPipeline(chunk_size="2"), "chunk_size"),
            (lambda: FleetPipeline(chunk_size=True), "chunk_size"),
            (lambda: FleetPipeline(workers=2.5), "workers"),
            (lambda: FleetPipeline(workers=True), "workers"),
            (lambda: run_conformance(workers=2.5), "workers"),
            (lambda: run_conformance(workers=True), "workers"),
        ],
        ids=[
            "fleet-chunk-float",
            "fleet-chunk-str",
            "fleet-chunk-bool",
            "fleet-workers-float",
            "fleet-workers-bool",
            "conformance-workers-float",
            "conformance-workers-bool",
        ],
    )
    def test_fanout_parameters_validated(self, build, field):
        with pytest.raises(ValidationError, match=rf"\b{field} must be"):
            build()


class TestScheduleStage:
    @pytest.fixture(scope="class")
    def target(self, tiny_fleet):
        return fleet_schedule_target(tiny_fleet, seed=2)

    def test_no_target_no_schedule(self, tiny_fleet):
        extractor = PeakBasedExtractor(params=FlexOfferParams(flexible_share=0.05))
        result = FleetPipeline(extractor).run(tiny_fleet)
        assert result.schedule is None

    def test_schedule_stage_runs_and_is_timed(self, tiny_fleet, target):
        extractor = PeakBasedExtractor(params=FlexOfferParams(flexible_share=0.05))
        result = FleetPipeline(extractor).run(tiny_fleet, target=target)
        assert result.schedule is not None
        assert "schedule" in result.timings.seconds
        placed = {s.offer.offer_id for s in result.schedule.schedules}
        unplaced = {o.offer_id for o in result.schedule.unplaced}
        aggregate_ids = {a.offer.offer_id for a in result.aggregates}
        assert placed | unplaced == aggregate_ids
        assert result.schedule.cost <= result.schedule.baseline_cost + 1e-9

    def test_batched_equals_sequential_with_schedule(self, tiny_fleet, target):
        extractor = PeakBasedExtractor(params=FlexOfferParams(flexible_share=0.05))
        config = ScheduleConfig(improve_iterations=50, improve_seed=3)
        batched = FleetPipeline(extractor, chunk_size=2, schedule=config).run(
            tiny_fleet, target=target
        )
        sequential = run_sequential(
            tiny_fleet, extractor, target=target, schedule_config=config
        )
        assert results_identical(batched, sequential)

    def test_schedule_mismatch_breaks_identity(self, tiny_fleet, target):
        extractor = PeakBasedExtractor(params=FlexOfferParams(flexible_share=0.05))
        with_schedule = FleetPipeline(extractor).run(tiny_fleet, target=target)
        without = FleetPipeline(extractor).run(tiny_fleet)
        assert not results_identical(with_schedule, without)

    def test_schedule_engines_agree_on_fleet_aggregates(self, tiny_fleet, target):
        extractor = PeakBasedExtractor(params=FlexOfferParams(flexible_share=0.05))
        vectorized = FleetPipeline(
            extractor, schedule=ScheduleConfig(engine="vectorized")
        ).run(tiny_fleet, target=target)
        reference = FleetPipeline(
            extractor, schedule=ScheduleConfig(engine="reference")
        ).run(tiny_fleet, target=target)
        assert [
            (s.offer.offer_id, s.start) for s in vectorized.schedule.schedules
        ] == [(s.offer.offer_id, s.start) for s in reference.schedule.schedules]
        assert vectorized.schedule.cost == pytest.approx(
            reference.schedule.cost, rel=1e-9
        )

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValidationError):
            FleetPipeline(chunk_size=0)
        with pytest.raises(ValidationError):
            FleetPipeline(workers=0)


class TestMatchingEngines:
    def test_engine_validation(self):
        with pytest.raises(DataError):
            MatchingConfig(engine="turbo")

    def test_engines_agree_on_clean_day(self, tiny_fleet):
        trace = tiny_fleet.traces[0]
        vectorized = match_pursuit(trace.total, trace_database(), MatchingConfig())
        reference = match_pursuit(
            trace.total, trace_database(), MatchingConfig(engine="reference")
        )
        assert len(vectorized.detections) == len(reference.detections)
        for a, b in zip(vectorized.detections, reference.detections):
            assert a.appliance == b.appliance
            assert a.start == b.start
            assert a.energy_kwh == pytest.approx(b.energy_kwh, rel=1e-9)
        assert vectorized.explained_kwh == pytest.approx(
            reference.explained_kwh, rel=1e-9
        )


def trace_database():
    from repro.appliances.database import default_database

    return default_database()


class TestStageTimings:
    def test_merge_and_total(self):
        timings = StageTimings()
        timings.add("extract", 1.0)
        timings.merge({"extract": 0.5, "group": 0.25})
        assert timings.seconds["extract"] == pytest.approx(1.5)
        assert timings.total == pytest.approx(1.75)


class TestCanonicalOffer:
    def test_ignores_offer_id(self, tiny_fleet):
        extractor = PeakBasedExtractor(params=FlexOfferParams(flexible_share=0.05))
        series = tiny_fleet.traces[0].metered()
        first = extractor.extract(series, np.random.default_rng(3)).offers
        second = extractor.extract(series, np.random.default_rng(3)).offers
        assert [o.offer_id for o in first] != [o.offer_id for o in second]
        assert list(map(canonical_offer, first)) == list(map(canonical_offer, second))
