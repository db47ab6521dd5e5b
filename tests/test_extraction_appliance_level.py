"""Tests for the appliance-level approaches (§4.1 frequency, §4.2 schedule)."""

from __future__ import annotations

import json
from datetime import timedelta

import numpy as np
import pytest

from repro.api.registry import create_extractor
from repro.appliances.database import default_database
from repro.cli import main
from repro.errors import ExtractionError, RegistryError
from repro.extraction.frequency_based import (
    FrequencyBasedExtractor,
    slice_energies_on_grid,
)
from repro.extraction.schedule_based import ScheduleBasedExtractor
from repro.timeseries.axis import FIFTEEN_MINUTES
from repro.timeseries.calendar import DayType, day_type


class TestSliceBucketing:
    def test_aligned_start(self):
        removal = np.ones(30) / 30  # 1 kWh over 30 min
        grid_index, energies = slice_energies_on_grid(removal, 15)
        assert grid_index == 1
        assert energies == pytest.approx([0.5, 0.5])

    def test_misaligned_start(self):
        removal = np.ones(30) / 30
        grid_index, energies = slice_energies_on_grid(removal, 20)
        assert grid_index == 1
        # 10 minutes in interval 1, 15 in interval 2, 5 in interval 3.
        assert energies == pytest.approx([10 / 30, 15 / 30, 5 / 30])

    def test_total_energy_preserved(self):
        rng = np.random.default_rng(0)
        removal = rng.uniform(0, 0.1, size=97)
        _, energies = slice_energies_on_grid(removal, 7)
        assert energies.sum() == pytest.approx(removal.sum())


@pytest.fixture(scope="module")
def freq_extraction(request):
    trace = request.getfixturevalue("nilm_trace")
    extractor = FrequencyBasedExtractor(database=default_database())
    return extractor.extract(trace.total, np.random.default_rng(0))


@pytest.fixture(scope="module")
def sched_extraction(request):
    trace = request.getfixturevalue("nilm_trace")
    extractor = ScheduleBasedExtractor(database=default_database())
    return extractor.extract(trace.total, np.random.default_rng(0))


class TestFrequencyBased:
    def test_requires_minute_data(self, nilm_trace):
        extractor = FrequencyBasedExtractor()
        with pytest.raises(ExtractionError):
            extractor.extract(nilm_trace.metered(), np.random.default_rng(0))

    def test_produces_offers(self, freq_extraction):
        assert len(freq_extraction.offers) >= 5

    def test_energy_conservation(self, freq_extraction):
        assert freq_extraction.energy_conservation_error() < 1e-6

    def test_only_flexible_appliances(self, freq_extraction):
        db = default_database()
        for offer in freq_extraction.offers:
            assert db.get(offer.appliance).flexible

    def test_offers_carry_spec_time_flexibility(self, freq_extraction):
        db = default_database()
        for offer in freq_extraction.offers:
            spec = db.get(offer.appliance)
            assert offer.time_flexibility <= spec.time_flexibility
            assert offer.time_flexibility >= spec.time_flexibility - FIFTEEN_MINUTES

    def test_vacuum_offers_have_22h_flexibility(self, freq_extraction):
        vacuum = [o for o in freq_extraction.offers if o.appliance == "vacuum-robot-x"]
        if vacuum:  # detection-dependent, but typically present
            for offer in vacuum:
                assert offer.time_flexibility == timedelta(hours=22)

    def test_shortlist_in_extras(self, freq_extraction, nilm_trace):
        shortlist = freq_extraction.extras["shortlist"]
        assert len(shortlist) >= 2
        true_flexible = {a.appliance for a in nilm_trace.activations if a.flexible}
        listed_flexible = {e.appliance for e in shortlist.flexible_entries()}
        assert listed_flexible & true_flexible

    def test_modified_nonnegative(self, freq_extraction):
        assert freq_extraction.modified.is_nonnegative()

    def test_extracted_energy_close_to_true_flexible(self, freq_extraction, nilm_trace):
        true_flexible = sum(a.energy_kwh for a in nilm_trace.activations if a.flexible)
        assert freq_extraction.extracted_energy >= 0.35 * true_flexible
        assert freq_extraction.extracted_energy <= 1.3 * true_flexible

    def test_profiles_on_metering_grid(self, freq_extraction):
        for offer in freq_extraction.offers:
            assert offer.resolution == FIFTEEN_MINUTES
            assert offer.earliest_start.minute % 15 == 0


class TestScheduleBased:
    def test_requires_minute_data(self, nilm_trace):
        extractor = ScheduleBasedExtractor()
        with pytest.raises(ExtractionError):
            extractor.extract(nilm_trace.metered(), np.random.default_rng(0))

    def test_produces_offers_and_conserves(self, sched_extraction):
        assert len(sched_extraction.offers) >= 5
        assert sched_extraction.energy_conservation_error() < 1e-6

    def test_mined_schedules_in_extras(self, sched_extraction):
        schedules = sched_extraction.extras["schedules"]
        assert schedules
        for mined in schedules.values():
            assert set(mined.windows) == set(DayType)

    def test_habit_confined_flexibility_tighter(self, sched_extraction, freq_extraction):
        """Schedule-based offers have (weakly) tighter time flexibility."""
        freq_mean = np.mean(
            [o.time_flexibility.total_seconds() for o in freq_extraction.offers]
        )
        sched_mean = np.mean(
            [o.time_flexibility.total_seconds() for o in sched_extraction.offers]
        )
        assert sched_mean <= freq_mean + 1e-9

    def test_offer_windows_cover_observed_usage(self, sched_extraction):
        """earliest_start <= the observed (removed) energy position."""
        for offer in sched_extraction.offers:
            assert offer.latest_start >= offer.earliest_start

    def test_flexibility_never_exceeds_spec(self, sched_extraction):
        db = default_database()
        for offer in sched_extraction.offers:
            spec = db.get(offer.appliance)
            assert offer.time_flexibility <= spec.time_flexibility

    def test_modified_nonnegative(self, sched_extraction):
        assert sched_extraction.modified.is_nonnegative()


class TestScheduleBasedContainment:
    def test_offer_window_contains_observed_start(self, sched_extraction):
        """The run that actually happened must be schedulable by its offer.

        The removal is anchored at the observed (snapped) start; the offer's
        [earliest, latest] window must contain that instant, otherwise the
        offer could never reproduce the historical behaviour.
        """
        result = sched_extraction
        detections = {
            (a.appliance, a.start): a for a in result.extras["detection"].detections
        }
        for offer in result.offers:
            # Find the detection this offer was formulated from: same
            # appliance, observed start within the offer's day.
            candidates = [
                a for (app, _), a in detections.items()
                if app == offer.appliance
                and offer.earliest_start <= a.start
                and a.start < offer.earliest_start + timedelta(days=1)
            ]
            assert candidates, f"no source detection for {offer.offer_id}"
            # At least one source run is inside the start window.
            grid = offer.resolution
            inside = [
                a for a in candidates
                if offer.earliest_start
                <= a.start.replace(second=0, microsecond=0)
                - timedelta(minutes=a.start.minute % 15)
                <= offer.latest_start
            ]
            assert inside, (
                f"{offer.offer_id}: window [{offer.earliest_start}, "
                f"{offer.latest_start}] contains no observed run"
            )


#: Malformed appliance-level knobs shared by both approaches.
BAD_SHARED_KNOBS = [
    ("min_detections", "2"),
    ("min_detections", 2.0),
    ("min_detections", True),
    ("min_detections", 0),
    ("min_detections", -1),
    ("baseline_window_minutes", 150.5),
    ("baseline_window_minutes", "150"),
    ("baseline_window_minutes", 1),
    ("baseline_quantile", "0.15"),
    ("baseline_quantile", 0.7),
    ("baseline_quantile", float("nan")),
]

#: Malformed schedule-mining knobs of the schedule-based approach.
BAD_MINING_KNOBS = [
    ("smoothing_minutes", 2.5),
    ("smoothing_minutes", "90"),
    ("smoothing_minutes", True),
    ("smoothing_minutes", 0),
    ("threshold_factor", -1.5),
    ("threshold_factor", 0.0),
    ("threshold_factor", float("nan")),
    ("threshold_factor", float("inf")),
    ("threshold_factor", "1.5"),
    ("threshold_factor", True),
]


class TestKnobValidation:
    """Malformed knobs fail when the extractor is built, naming the field."""

    @pytest.mark.parametrize("cls", [FrequencyBasedExtractor, ScheduleBasedExtractor])
    @pytest.mark.parametrize("field, value", BAD_SHARED_KNOBS)
    def test_shared_knobs_rejected_at_construction(self, cls, field, value):
        with pytest.raises(ExtractionError, match=field):
            cls(**{field: value})

    @pytest.mark.parametrize("field, value", BAD_MINING_KNOBS)
    def test_mining_knobs_rejected_at_construction(self, field, value):
        with pytest.raises(ExtractionError, match=field):
            ScheduleBasedExtractor(**{field: value})

    @pytest.mark.parametrize(
        "name, field, value",
        [
            ("frequency-based", "min_detections", "2"),
            ("schedule-based", "smoothing_minutes", 2.5),
            ("schedule-based", "threshold_factor", float("nan")),
        ],
    )
    def test_registry_reports_the_field(self, name, field, value):
        with pytest.raises(RegistryError, match=field):
            create_extractor(name, **{field: value})

    def test_integral_and_boundary_values_accepted(self):
        ScheduleBasedExtractor(
            min_detections=np.int64(1),
            baseline_window_minutes=2,
            baseline_quantile=0,
            smoothing_minutes=1,
            threshold_factor=1e-3,
        )

    @pytest.mark.parametrize(
        "approach, field, value",
        [("frequency-based", "min_detections", "2"), ("schedule-based", "smoothing_minutes", 2.5)],
    )
    def test_run_spec_fails_with_an_error_line(self, tmp_path, capsys, approach, field, value):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({
            "version": 1,
            "kind": "fleet",
            "name": "bad-knob",
            "scenario": {"households": 1, "days": 1, "seed": 7},
            "extractors": [{"name": approach, "params": {field: value}}],
        }))
        assert main(["run", "--spec", str(spec_path)]) == 1
        err = capsys.readouterr().err
        assert any(line.startswith("error: ") and field in line for line in err.splitlines())
        assert "Traceback" not in err
