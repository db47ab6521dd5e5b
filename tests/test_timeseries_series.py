"""Unit tests for :mod:`repro.timeseries.series`."""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.errors import AxisMismatchError, DataError
from repro.timeseries.axis import FIFTEEN_MINUTES, TimeAxis, axis_for_days
from repro.timeseries.series import TimeSeries, stack

START = datetime(2012, 3, 5)


@pytest.fixture()
def axis() -> TimeAxis:
    return TimeAxis(START, FIFTEEN_MINUTES, 8)


class TestConstruction:
    def test_length_mismatch_rejected(self, axis):
        with pytest.raises(DataError):
            TimeSeries(axis, np.ones(7))

    def test_nan_rejected(self, axis):
        values = np.ones(8)
        values[3] = np.nan
        with pytest.raises(DataError):
            TimeSeries(axis, values)

    def test_2d_rejected(self, axis):
        with pytest.raises(DataError):
            TimeSeries(axis, np.ones((2, 4)))

    def test_zeros_and_full(self, axis):
        assert TimeSeries.zeros(axis).total() == 0.0
        assert TimeSeries.full(axis, 2.0).total() == 16.0

    def test_from_function(self, axis):
        series = TimeSeries.from_function(axis, lambda t: float(t.minute == 0))
        assert series.total() == 2.0  # two on-the-hour starts in 2 hours

    def test_copy_is_independent(self, axis):
        a = TimeSeries.full(axis, 1.0)
        b = a.copy()
        b.values[0] = 99.0
        assert a.values[0] == 1.0


class TestAccessors:
    def test_value_at(self, axis):
        series = TimeSeries(axis, np.arange(8.0))
        assert series.value_at(START + timedelta(minutes=16)) == 1.0

    def test_iteration_yields_pairs(self, axis):
        series = TimeSeries(axis, np.arange(8.0))
        pairs = list(series)
        assert pairs[0] == (START, 0.0)
        assert pairs[-1] == (START + timedelta(minutes=105), 7.0)

    def test_min_max_mean_argmax(self, axis):
        series = TimeSeries(axis, [0, 1, 5, 2, 0, 0, 3, 1])
        assert series.max() == 5.0
        assert series.min() == 0.0
        assert series.argmax() == 2
        assert series.mean() == pytest.approx(1.5)

    def test_is_nonnegative(self, axis):
        assert TimeSeries.full(axis, 0.5).is_nonnegative()
        assert not TimeSeries(axis, [-1] + [0] * 7).is_nonnegative()


class TestArithmetic:
    def test_add_scalar_and_series(self, axis):
        a = TimeSeries.full(axis, 1.0)
        b = TimeSeries.full(axis, 2.0)
        assert (a + b).total() == 24.0
        assert (a + 1.0).total() == 16.0

    def test_sum_builtin(self, axis):
        series = [TimeSeries.full(axis, 1.0) for _ in range(3)]
        assert sum(series, TimeSeries.zeros(axis)).total() == 24.0

    def test_sub_mul_div_neg(self, axis):
        a = TimeSeries.full(axis, 4.0)
        assert (a - 1.0).mean() == 3.0
        assert (a * 0.5).mean() == 2.0
        assert (2.0 * a).mean() == 8.0
        assert (a / 2.0).mean() == 2.0
        assert (-a).mean() == -4.0

    def test_misaligned_arithmetic_raises(self, axis):
        other_axis = TimeAxis(START + timedelta(hours=1), FIFTEEN_MINUTES, 8)
        with pytest.raises(AxisMismatchError):
            TimeSeries.zeros(axis) + TimeSeries.zeros(other_axis)

    def test_equality_and_allclose(self, axis):
        a = TimeSeries.full(axis, 1.0)
        b = TimeSeries.full(axis, 1.0)
        assert a == b
        assert a.allclose(b + 1e-12)
        assert not a.allclose(b + 1e-3)

    def test_unhashable(self, axis):
        with pytest.raises(TypeError):
            hash(TimeSeries.zeros(axis))

    def test_clip(self, axis):
        series = TimeSeries(axis, [-1, 0, 1, 2, 3, 4, 5, 6])
        clipped = series.clip(0.0, 4.0)
        assert clipped.min() == 0.0
        assert clipped.max() == 4.0


class TestSlicing:
    def test_slice(self, axis):
        series = TimeSeries(axis, np.arange(8.0))
        sub = series.slice(2, 3)
        assert list(sub.values) == [2.0, 3.0, 4.0]
        assert sub.axis.start == START + timedelta(minutes=30)

    def test_between(self, axis):
        series = TimeSeries(axis, np.arange(8.0))
        sub = series.between(START + timedelta(minutes=15), START + timedelta(minutes=60))
        assert list(sub.values) == [1.0, 2.0, 3.0]

    def test_between_empty_window_raises(self, axis):
        series = TimeSeries.zeros(axis)
        with pytest.raises(ValueError):
            series.between(START + timedelta(minutes=30), START)

    def test_split_days_and_day(self):
        axis = axis_for_days(START, 2)
        series = TimeSeries(axis, np.arange(axis.length, dtype=float))
        days = series.split_days()
        assert len(days) == 2
        assert days[0].total() == sum(range(96))
        assert series.day(1).values[0] == 96.0

    def test_with_values_and_name(self, axis):
        series = TimeSeries.zeros(axis, name="a")
        renamed = series.with_name("b")
        assert renamed.name == "b"
        replaced = series.with_values(np.ones(8))
        assert replaced.total() == 8.0


class TestConversions:
    def test_energy_power_roundtrip(self, axis):
        energy = TimeSeries.full(axis, 0.25)  # 0.25 kWh / 15 min == 1 kW
        power = energy.energy_to_power()
        assert power.mean() == pytest.approx(1.0)
        assert power.power_to_energy().allclose(energy)

    def test_daily_profile_mean(self):
        axis = axis_for_days(START, 2)
        values = np.concatenate([np.zeros(96), np.ones(96)])
        profile = TimeSeries(axis, values).daily_profile()
        assert profile.shape == (96,)
        assert np.allclose(profile, 0.5)

    def test_daily_profile_median_reducer(self):
        axis = axis_for_days(START, 3)
        values = np.concatenate([np.zeros(96), np.zeros(96), np.ones(96)])
        profile = TimeSeries(axis, values).daily_profile(
            reducer=lambda m: np.median(m, axis=0)
        )
        assert np.allclose(profile, 0.0)

    def test_daily_profile_too_short_raises(self, axis):
        with pytest.raises(DataError):
            TimeSeries.zeros(axis).daily_profile()


class TestCombinators:
    def test_stack(self, axis):
        arr = stack([TimeSeries.full(axis, 1.0), TimeSeries.full(axis, 2.0)])
        assert arr.shape == (2, 8)

    def test_stack_empty_raises(self):
        with pytest.raises(DataError):
            stack([])
