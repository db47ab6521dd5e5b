"""Tests for the canonical workloads (paper day + scenarios)."""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest

from repro.timeseries.axis import FIFTEEN_MINUTES, ONE_MINUTE
from repro.workloads.paper_day import (
    FIGURE5_DAY_TOTAL,
    FIGURE5_PEAK_SIZES,
    figure5_day,
)
from repro.workloads.scenarios import (
    SCENARIO_START,
    metering_axis,
    nilm_household,
    small_fleet,
    tariff_study,
    weekend_skewed_household,
)


class TestPaperDay:
    def test_construction_invariants(self):
        day = figure5_day()
        assert day.series.total() == pytest.approx(FIGURE5_DAY_TOTAL)
        assert len(day.series) == 96
        assert day.series.axis.resolution == FIFTEEN_MINUTES
        assert day.series.is_nonnegative()

    def test_peak_layout_matches_sizes(self):
        day = figure5_day()
        assert len(day.peak_first_indices) == len(FIGURE5_PEAK_SIZES)

    def test_custom_start_date(self):
        day = figure5_day(datetime(2013, 1, 10, 14, 30))
        # Anchored to midnight of the given date.
        assert day.series.axis.start == datetime(2013, 1, 10)

    def test_deterministic(self):
        assert figure5_day().series == figure5_day().series


class TestScenarios:
    def test_nilm_household_cached(self):
        a = nilm_household(days=3, seed=1)
        b = nilm_household(days=3, seed=1)
        assert a is b  # lru_cache

    def test_nilm_household_has_flexible_appliances(self):
        trace = nilm_household(days=3, seed=1)
        assert any(a.flexible for a in trace.activations)
        assert trace.axis.resolution == ONE_MINUTE

    def test_weekend_skewed_household(self):
        trace = weekend_skewed_household(days=14, seed=2)
        assert "dishwasher-z" in trace.config.appliances

    def test_small_fleet_sizes(self):
        fleet = small_fleet(n=3, days=2, seed=4)
        assert len(fleet) == 3
        assert fleet.days == 2

    def test_tariff_study_scenario(self):
        study = tariff_study(days=7, seed=6)
        assert study.scheme.name == "night"
        assert len(study.single.activations) > 0

    def test_metering_axis(self):
        axis = metering_axis(days=3)
        assert axis.start == SCENARIO_START
        assert axis.length == 3 * 96
