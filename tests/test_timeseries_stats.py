"""Unit tests for :mod:`repro.timeseries.stats`."""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest

from repro.errors import AxisMismatchError, DataError
from repro.timeseries.axis import FIFTEEN_MINUTES, TimeAxis, axis_for_days
from repro.timeseries.series import TimeSeries
from repro.timeseries.stats import (
    autocorrelation,
    correlation,
    describe,
    load_factor,
    peak_to_average_ratio,
    sparseness,
    temporal_dispersion,
    zero_fraction,
)

START = datetime(2012, 3, 5)


def series_of(values) -> TimeSeries:
    axis = TimeAxis(START, FIFTEEN_MINUTES, len(values))
    return TimeSeries(axis, values)


class TestCorrelation:
    def test_perfect_correlation(self):
        a = series_of(np.arange(10.0))
        b = series_of(np.arange(10.0) * 2 + 1)
        assert correlation(a, b) == pytest.approx(1.0)

    def test_anticorrelation(self):
        a = series_of(np.arange(10.0))
        b = series_of(-np.arange(10.0))
        assert correlation(a, b) == pytest.approx(-1.0)

    def test_constant_series_returns_zero(self):
        a = series_of(np.ones(10))
        b = series_of(np.arange(10.0))
        assert correlation(a, b) == 0.0

    def test_too_short_raises(self):
        with pytest.raises(DataError):
            correlation(series_of([1.0]), series_of([1.0]))

    def test_misaligned_axes_raise(self):
        a = series_of(np.arange(10.0))
        later = TimeSeries(TimeAxis(START + FIFTEEN_MINUTES, FIFTEEN_MINUTES, 10), np.arange(10.0))
        with pytest.raises(AxisMismatchError):
            correlation(a, later)


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        series = series_of(np.random.default_rng(0).normal(size=50))
        assert autocorrelation(series, 0) == pytest.approx(1.0)

    def test_periodic_signal_peaks_at_period(self):
        t = np.arange(96 * 4)
        series = series_of(np.sin(2 * np.pi * t / 96))
        # The biased estimator shrinks by (n - lag) / n: at lag 96 of a
        # 384-sample pure sinusoid the expected value is 0.75.
        assert autocorrelation(series, 96) == pytest.approx(0.75, abs=0.02)
        assert autocorrelation(series, 48) == pytest.approx(-0.875, abs=0.02)  # anti-phase

    def test_constant_series(self):
        series = series_of(np.ones(20))
        assert autocorrelation(series, 0) == 1.0
        assert autocorrelation(series, 3) == 0.0

    def test_invalid_lag_raises(self):
        series = series_of(np.ones(10))
        with pytest.raises(DataError):
            autocorrelation(series, 10)
        with pytest.raises(DataError):
            autocorrelation(series, -1)


class TestSparseness:
    def test_flat_series_is_zero(self):
        assert sparseness(series_of(np.ones(16))) == pytest.approx(0.0)

    def test_single_spike_is_one(self):
        values = np.zeros(16)
        values[5] = 3.0
        assert sparseness(series_of(values)) == pytest.approx(1.0)

    def test_intermediate_ordering(self):
        spiky = np.zeros(16)
        spiky[2] = spiky[9] = 1.0
        spread = np.ones(16) * 0.125
        assert sparseness(series_of(spiky)) > sparseness(series_of(spread))

    def test_all_zero_series(self):
        assert sparseness(series_of(np.zeros(8))) == 0.0

    def test_too_short_raises(self):
        with pytest.raises(DataError):
            sparseness(series_of([1.0]))


class TestShapeIndicators:
    def test_zero_fraction(self):
        assert zero_fraction(series_of([0, 0, 1, 2])) == 0.5

    def test_peak_to_average(self):
        assert peak_to_average_ratio(series_of([1, 1, 1, 5])) == pytest.approx(2.5)
        assert peak_to_average_ratio(series_of(np.zeros(4))) == 0.0

    def test_load_factor_inverse_of_par(self):
        series = series_of([1, 1, 1, 5])
        assert load_factor(series) == pytest.approx(0.4)
        assert load_factor(series_of(np.zeros(4))) == 0.0


class TestTemporalDispersion:
    def test_concentrated_energy_low_dispersion(self):
        axis = axis_for_days(START, 3)
        values = np.zeros(axis.length)
        values[76::96] = 5.0  # 19:00 every day
        concentrated = TimeSeries(axis, values)
        uniform = TimeSeries(axis, np.ones(axis.length))
        assert temporal_dispersion(concentrated) < temporal_dispersion(uniform)

    def test_zero_series(self):
        axis = axis_for_days(START, 1)
        assert temporal_dispersion(TimeSeries.zeros(axis)) == 0.0


class TestDescribe:
    def test_describe_keys_and_values(self):
        series = series_of([0, 1, 2, 3])
        report = describe(series)
        assert report["total"] == 6.0
        assert report["max"] == 3.0
        assert set(report) >= {"mean", "std", "peak_to_average", "sparseness"}
