"""Unit tests for the NILM substrate: baseline, events, matching."""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.api.registry import create_extractor
from repro.appliances.database import default_database
from repro.disaggregation.baseline import remove_baseline, rolling_baseline
from repro.disaggregation.combinatorial import (
    CombinatorialConfig,
    disaggregate_combinatorial,
)
from repro.disaggregation.events import detect_edges, pair_edges
from repro.disaggregation.matching import MatchingConfig, match_pursuit
from repro.errors import DataError, RegistryError
from repro.evaluation.groundtruth import match_activations
from repro.simulation.activations import Activation, materialise
from repro.timeseries.axis import FIFTEEN_MINUTES, ONE_MINUTE, TimeAxis
from repro.timeseries.series import TimeSeries

START = datetime(2012, 3, 5)


def clean_two_appliance_day():
    """A synthetic day: flat base + one washer run + one dishwasher run."""
    db = default_database()
    wm = db.get("washing-machine-y")
    dw = db.get("dishwasher-z")
    axis = TimeAxis(START, ONE_MINUTE, 24 * 60)
    acts = [
        Activation(wm.name, START + timedelta(hours=9), 2.0, wm.cycle_duration, True),
        Activation(dw.name, START + timedelta(hours=19), 1.6, dw.cycle_duration, True),
    ]
    appliances = materialise(acts, {wm.name: wm, dw.name: dw}, axis)
    base = TimeSeries.full(axis, 0.05 / 60)  # 50 W floor
    return (appliances + base), acts, db.restricted([wm.name, dw.name])


class TestBaseline:
    def test_flat_base_recovered(self):
        axis = TimeAxis(START, ONE_MINUTE, 24 * 60)
        base_level = 0.002
        series = TimeSeries.full(axis, base_level)
        baseline = rolling_baseline(series)
        assert np.allclose(baseline.values, base_level, atol=1e-6)

    def test_appliance_spike_removed(self):
        total, acts, _db = clean_two_appliance_day()
        appliance, base = remove_baseline(total)
        # The washer energy survives in the appliance component.
        true_energy = sum(a.energy_kwh for a in acts)
        assert appliance.total() == pytest.approx(true_energy, rel=0.25)
        # Decomposition adds back to the original.
        assert (appliance + base).allclose(total, atol=1e-9)

    def test_validation(self):
        axis = TimeAxis(START, ONE_MINUTE, 100)
        series = TimeSeries.zeros(axis)
        with pytest.raises(DataError):
            rolling_baseline(series, window_minutes=1)
        with pytest.raises(DataError):
            rolling_baseline(series, quantile=0.7)


class TestEdges:
    def test_detects_square_pulse(self):
        axis = TimeAxis(START, ONE_MINUTE, 240)
        values = np.zeros(240)
        values[60:120] = 2.0 / 60  # 2 kW pulse for an hour
        edges = detect_edges(TimeSeries(axis, values), threshold_kw=0.5)
        assert len(edges) == 2
        rising, falling = edges
        assert rising.rising and not falling.rising
        assert rising.delta_kw == pytest.approx(2.0, rel=0.05)
        assert rising.when == START + timedelta(minutes=60)

    def test_ramp_merged_into_one_edge(self):
        axis = TimeAxis(START, ONE_MINUTE, 120)
        values = np.zeros(120)
        values[50] = 1.0 / 60
        values[51] = 2.0 / 60
        values[52:80] = 3.0 / 60
        edges = detect_edges(TimeSeries(axis, values), threshold_kw=0.5)
        rising = [e for e in edges if e.rising]
        assert len(rising) == 1
        assert rising[0].delta_kw == pytest.approx(3.0, rel=0.05)

    def test_threshold_validation(self):
        axis = TimeAxis(START, ONE_MINUTE, 10)
        with pytest.raises(DataError):
            detect_edges(TimeSeries.zeros(axis), threshold_kw=0.0)

    def test_pair_edges(self):
        axis = TimeAxis(START, ONE_MINUTE, 240)
        values = np.zeros(240)
        values[60:120] = 2.0 / 60
        edges = detect_edges(TimeSeries(axis, values), threshold_kw=0.5)
        pairs = pair_edges(edges)
        assert len(pairs) == 1
        on, off = pairs[0]
        assert (off.when - on.when) == timedelta(minutes=60)

    def test_15min_granularity_loses_edges(self):
        """The paper's point: 15-minute data is too coarse for NILM."""
        total, _acts, _db = clean_two_appliance_day()
        from repro.timeseries.resample import downsample_sum

        fine_edges = detect_edges(total, threshold_kw=0.5)
        coarse = downsample_sum(total, FIFTEEN_MINUTES)
        coarse_edges = detect_edges(coarse, threshold_kw=0.5)
        assert len(fine_edges) > len(coarse_edges)


class TestMatchingPursuit:
    def test_clean_case_exact(self):
        total, acts, db = clean_two_appliance_day()
        result = match_pursuit(total, db)
        report = match_activations(result.detections, acts,
                                   start_tolerance=timedelta(minutes=5))
        assert report.recall == 1.0
        assert report.precision == 1.0
        assert report.energy_error_kwh < 0.2

    def test_detected_energy_in_spec_range(self):
        total, _acts, db = clean_two_appliance_day()
        result = match_pursuit(total, db)
        for det in result.detections:
            spec = db.get(det.appliance)
            assert spec.energy_min_kwh * 0.8 <= det.energy_kwh <= spec.energy_max_kwh * 1.2

    def test_residual_small_after_subtraction(self):
        total, acts, db = clean_two_appliance_day()
        result = match_pursuit(total, db)
        # base load (~1.2 kWh/day) plus small estimation error remains
        assert result.residual.total() < 2.0

    def test_empty_series_no_detections(self):
        axis = TimeAxis(START, ONE_MINUTE, 24 * 60)
        result = match_pursuit(TimeSeries.zeros(axis), default_database())
        assert result.detections == []

    def test_requires_minute_resolution(self):
        axis = TimeAxis(START, FIFTEEN_MINUTES, 96)
        with pytest.raises(DataError):
            match_pursuit(TimeSeries.zeros(axis), default_database())

    def test_config_validation(self):
        with pytest.raises(DataError):
            MatchingConfig(max_iterations=0)
        with pytest.raises(DataError):
            MatchingConfig(min_score=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("energy_slack", -0.5),
            ("energy_slack", 1.5),
            ("energy_slack", float("nan")),
            ("residual_floor_kwh", -1),
            ("residual_floor_kwh", float("nan")),
            ("max_iterations", 2.5),
            ("max_iterations", True),
        ],
    )
    def test_config_rejects_nonsense(self, field, value):
        with pytest.raises(DataError, match=field):
            MatchingConfig(**{field: value})
        # The registry routes the flat parameter into the nested config and
        # reports the config's DataError as the cause.
        with pytest.raises(RegistryError, match=field) as info:
            create_extractor("frequency-based", **{field: value})
        assert isinstance(info.value.__cause__, DataError)

    def test_config_accepts_the_slack_range_ends(self):
        assert MatchingConfig(energy_slack=0.0, residual_floor_kwh=0.0).energy_slack == 0.0
        assert MatchingConfig(energy_slack=1.0, max_iterations=np.int64(3)).energy_slack == 1.0

    def test_same_appliance_no_overlap(self):
        total, _acts, db = clean_two_appliance_day()
        result = match_pursuit(total, db)
        by_app = result.by_appliance()
        for name, dets in by_app.items():
            cycle = db.get(name).cycle_duration
            dets = sorted(dets, key=lambda a: a.start)
            for a, b in zip(dets, dets[1:]):
                assert b.start - a.start >= cycle

    def test_realistic_household_f1(self, nilm_trace):
        """On the full simulated household the matcher stays useful."""
        db = default_database()
        appliance, _ = remove_baseline(nilm_trace.total)
        result = match_pursuit(appliance, db)
        flex_det = [a for a in result.detections if a.flexible]
        flex_true = [a for a in nilm_trace.activations if a.flexible]
        report = match_activations(flex_det, flex_true,
                                   start_tolerance=timedelta(minutes=30))
        assert report.precision >= 0.6
        assert report.recall >= 0.4


class TestCombinatorial:
    def test_clean_case(self):
        total, acts, db = clean_two_appliance_day()
        appliance, _ = remove_baseline(total)
        result = disaggregate_combinatorial(appliance, db)
        report = match_activations(result.detections, acts,
                                   start_tolerance=timedelta(minutes=10))
        assert report.recall == 1.0

    def test_config_validation(self):
        with pytest.raises(DataError):
            CombinatorialConfig(max_candidates_per_day=0)
        with pytest.raises(DataError):
            CombinatorialConfig(max_subset_size=0)
        for slack in (-0.5, 1.5, float("nan")):
            with pytest.raises(DataError, match="energy_slack"):
                CombinatorialConfig(energy_slack=slack)

    def test_requires_minute_resolution(self):
        axis = TimeAxis(START, FIFTEEN_MINUTES, 96)
        with pytest.raises(DataError):
            disaggregate_combinatorial(TimeSeries.zeros(axis), default_database())
