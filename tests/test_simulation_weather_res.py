"""Unit tests for :mod:`repro.simulation.weather` and :mod:`repro.simulation.res`."""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.simulation.res import WindFarm, simulate_wind_production
from repro.simulation.weather import WindModel
from repro.timeseries.axis import axis_for_days
from repro.timeseries.series import TimeSeries

START = datetime(2012, 3, 5)


class TestWind:
    def test_nonnegative(self):
        axis = axis_for_days(START, 14)
        speed = WindModel().generate(axis, np.random.default_rng(1))
        assert speed.is_nonnegative()

    def test_autocorrelated(self):
        axis = axis_for_days(START, 14)
        speed = WindModel().generate(axis, np.random.default_rng(1))
        from repro.timeseries.stats import autocorrelation

        assert autocorrelation(speed, 4) > 0.7  # persistent over an hour

    def test_validation(self):
        with pytest.raises(ValidationError):
            WindModel(mean_speed_ms=0.0)
        with pytest.raises(ValidationError):
            WindModel(noise_persistence=1.5)


class TestWindFarm:
    def test_power_curve_regions(self):
        farm = WindFarm(rated_power_kw=1000.0, cut_in_ms=3, rated_ms=12, cut_out_ms=25)
        v = np.array([0.0, 2.9, 3.0, 8.0, 12.0, 20.0, 25.0, 30.0])
        p = farm.power_kw(v)
        assert p[0] == 0.0 and p[1] == 0.0          # below cut-in
        assert p[2] == pytest.approx(0.0, abs=1e-9)  # at cut-in
        assert 0.0 < p[3] < 1000.0                   # cubic region
        assert p[4] == pytest.approx(1000.0)         # rated
        assert p[5] == pytest.approx(1000.0)         # flat region
        assert p[6] == 0.0 and p[7] == 0.0           # cut-out

    def test_cubic_monotonicity(self):
        farm = WindFarm()
        v = np.linspace(farm.cut_in_ms, farm.rated_ms, 50)
        p = farm.power_kw(v)
        assert (np.diff(p) >= -1e-9).all()

    def test_validation(self):
        with pytest.raises(ValidationError):
            WindFarm(rated_power_kw=-5)
        with pytest.raises(ValidationError):
            WindFarm(cut_in_ms=15, rated_ms=12)

    def test_production_energy_units(self):
        axis = axis_for_days(START, 1)
        speed = TimeSeries.full(axis, 12.0)  # rated everywhere
        farm = WindFarm(rated_power_kw=2000.0)
        production = farm.production_energy(speed)
        # 2000 kW for 15 minutes = 500 kWh per interval
        assert production.values[0] == pytest.approx(500.0)

    def test_simulate_wind_production(self):
        axis = axis_for_days(START, 3)
        production = simulate_wind_production(axis, np.random.default_rng(2))
        assert production.is_nonnegative()
        assert production.total() > 0
