"""Unit tests for :mod:`repro.timeseries.resample`."""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.errors import ResolutionError
from repro.timeseries.axis import FIFTEEN_MINUTES, ONE_DAY, ONE_HOUR, ONE_MINUTE, TimeAxis
from repro.timeseries.resample import downsample_sum, upsample_spread
from repro.timeseries.series import TimeSeries

START = datetime(2012, 3, 5)


class TestDownsample:
    def test_sum_conserves_energy(self):
        axis = TimeAxis(START, ONE_MINUTE, 60)
        series = TimeSeries(axis, np.random.default_rng(0).uniform(0, 1, 60))
        coarse = downsample_sum(series, FIFTEEN_MINUTES)
        assert len(coarse) == 4
        assert coarse.total() == pytest.approx(series.total())

    def test_sum_values(self):
        axis = TimeAxis(START, ONE_MINUTE, 30)
        series = TimeSeries(axis, np.ones(30))
        coarse = downsample_sum(series, FIFTEEN_MINUTES)
        assert list(coarse.values) == [15.0, 15.0]

    def test_same_resolution_is_identity(self):
        axis = TimeAxis(START, FIFTEEN_MINUTES, 8)
        series = TimeSeries(axis, np.random.default_rng(2).uniform(0, 1, 8), "load")
        same = downsample_sum(series, FIFTEEN_MINUTES)
        assert same == series
        assert same.name == "load"

    def test_coarse_axis_keeps_start_and_name(self):
        axis = TimeAxis(START, FIFTEEN_MINUTES, 96)
        coarse = downsample_sum(TimeSeries(axis, np.ones(96), "load"), ONE_HOUR)
        assert coarse.axis == TimeAxis(START, ONE_HOUR, 24)
        assert coarse.name == "load"
        assert list(coarse.values) == [4.0] * 24

    def test_non_integer_ratio_rejected(self):
        axis = TimeAxis(START, FIFTEEN_MINUTES, 8)
        series = TimeSeries.zeros(axis)
        with pytest.raises(ResolutionError):
            downsample_sum(series, timedelta(minutes=20))

    def test_non_divisible_length_rejected(self):
        axis = TimeAxis(START, ONE_MINUTE, 25)
        series = TimeSeries.zeros(axis)
        with pytest.raises(ResolutionError):
            downsample_sum(series, FIFTEEN_MINUTES)


class TestUpsample:
    def test_spread_conserves_energy(self):
        axis = TimeAxis(START, FIFTEEN_MINUTES, 4)
        series = TimeSeries(axis, [15.0, 30.0, 0.0, 7.5])
        fine = upsample_spread(series, ONE_MINUTE)
        assert len(fine) == 60
        assert fine.total() == pytest.approx(series.total())
        assert fine.values[0] == pytest.approx(1.0)

    def test_roundtrip_identity(self):
        axis = TimeAxis(START, FIFTEEN_MINUTES, 8)
        series = TimeSeries(axis, np.random.default_rng(1).uniform(0, 2, 8))
        roundtrip = downsample_sum(upsample_spread(series, ONE_MINUTE), FIFTEEN_MINUTES)
        assert roundtrip.allclose(series)

    def test_coarser_target_rejected(self):
        axis = TimeAxis(START, ONE_MINUTE, 60)
        with pytest.raises(ResolutionError):
            upsample_spread(TimeSeries.zeros(axis), FIFTEEN_MINUTES)

    @pytest.mark.parametrize(
        "fine, coarse",
        [
            (ONE_MINUTE, FIFTEEN_MINUTES),
            (ONE_MINUTE, ONE_HOUR),
            (FIFTEEN_MINUTES, ONE_HOUR),
            (FIFTEEN_MINUTES, ONE_DAY),
            (ONE_HOUR, ONE_DAY),
        ],
        ids=["1min-15min", "1min-1h", "15min-1h", "15min-1d", "1h-1d"],
    )
    def test_roundtrip_across_grids(self, fine, coarse):
        axis = TimeAxis(START, coarse, 6)
        series = TimeSeries(axis, np.random.default_rng(3).uniform(0, 5, 6), "load")
        spread = upsample_spread(series, fine)
        assert spread.axis == TimeAxis(START, fine, 6 * (coarse // fine))
        assert spread.total() == pytest.approx(series.total())
        back = downsample_sum(spread, coarse)
        assert back.axis == axis
        assert back.name == "load"
        np.testing.assert_allclose(back.values, series.values, rtol=1e-12)
