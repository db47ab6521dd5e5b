"""Tests for meter-data IO."""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest

from repro.errors import DataError
from repro.timeseries.axis import FIFTEEN_MINUTES, TimeAxis
from repro.timeseries.io import (
    load_series_csv,
    save_series_csv,
    series_from_dict,
    series_to_dict,
)
from repro.timeseries.series import TimeSeries

START = datetime(2012, 3, 5)


class TestSeriesIO:
    def test_dict_roundtrip(self):
        axis = TimeAxis(START, FIFTEEN_MINUTES, 10)
        series = TimeSeries(axis, np.linspace(0, 1, 10), "demo")
        restored = series_from_dict(series_to_dict(series))
        assert restored == series
        assert restored.name == "demo"

    def test_dict_missing_field(self):
        with pytest.raises(DataError):
            series_from_dict({"start": START.isoformat()})

    def test_csv_file_roundtrip(self, tmp_path):
        axis = TimeAxis(START, FIFTEEN_MINUTES, 8)
        series = TimeSeries(axis, np.random.default_rng(0).uniform(0, 2, 8))
        path = tmp_path / "series.csv"
        save_series_csv(series, path)
        restored = load_series_csv(path)
        assert restored.allclose(series, atol=0)
        assert restored.axis.aligned_with(series.axis)

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,kwh\n2012-03-05T00:00:00,1.0\n")
        with pytest.raises(DataError):
            load_series_csv(path)

    def test_csv_irregular_spacing(self, tmp_path):
        path = tmp_path / "irr.csv"
        path.write_text(
            "timestamp,value\n"
            "2012-03-05T00:00:00,1.0\n"
            "2012-03-05T00:15:00,1.0\n"
            "2012-03-05T00:45:00,1.0\n"
        )
        with pytest.raises(DataError):
            load_series_csv(path)

    def test_csv_too_short(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("timestamp,value\n2012-03-05T00:00:00,1.0\n")
        with pytest.raises(DataError):
            load_series_csv(path)

    def test_csv_bad_value(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text(
            "timestamp,value\n2012-03-05T00:00:00,abc\n2012-03-05T00:15:00,1\n"
        )
        with pytest.raises(DataError):
            load_series_csv(path)
