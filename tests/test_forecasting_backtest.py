"""Window-boundary audit of the rolling backtest (golden-pinned).

``rolling_backtest`` walks rolling-origin folds, and forecast evaluation
trusts its exact boundary behaviour: where the first fold starts, how
origins slide, that a trailing remainder shorter than one horizon is
dropped, and that degenerate windows are rejected instead of looping
forever.  These tests pin all of that, plus a golden regression of the
metric values on a fixed noisy series so silent fold drift fails loudly.

Regenerate the golden (after an *intentional* boundary change) with::

    PYTHONPATH=src python tests/test_forecasting_backtest.py --regenerate
"""

from __future__ import annotations

import json
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from repro.errors import DataError
from repro.forecasting import rolling_backtest
from repro.forecasting.models import persistence, seasonal_naive
from repro.timeseries.axis import axis_for_days
from repro.timeseries.series import TimeSeries

START = datetime(2012, 3, 5)
GOLDEN = Path(__file__).parent / "data" / "golden" / "backtest_boundaries.json"


def noisy_seasonal(intervals: int, seed: int = 11) -> TimeSeries:
    axis = axis_for_days(START, (intervals + 95) // 96).sub_axis(0, intervals)
    t = np.arange(intervals)
    values = 2.0 + np.sin(2 * np.pi * t / 96)
    values += np.random.default_rng(seed).normal(0, 0.05, intervals)
    return TimeSeries(axis, values, "load")


class FoldProbe:
    """A 'model' that records every (train-length, horizon) it sees."""

    __name__ = "probe"

    def __init__(self):
        self.calls: list[tuple[int, int]] = []

    def __call__(self, history: TimeSeries, horizon: int) -> TimeSeries:
        self.calls.append((len(history), horizon))
        from repro.timeseries.axis import TimeAxis

        axis = TimeAxis(history.axis.end, history.axis.resolution, horizon)
        return TimeSeries(axis, np.full(horizon, history.values[-1]))


class TestFoldBoundaries:
    def test_first_fold_trains_on_exact_prefix(self):
        probe = FoldProbe()
        rolling_backtest(probe, noisy_seasonal(300), train_intervals=100, horizon=50)
        assert probe.calls[0] == (100, 50)

    def test_origins_slide_by_step(self):
        probe = FoldProbe()
        report = rolling_backtest(
            probe, noisy_seasonal(300), train_intervals=100, horizon=50, step=25
        )
        # Origins 100, 125, ..., 250 — the last full horizon ends at 300.
        assert [train for train, _ in probe.calls] == [100, 125, 150, 175, 200, 225, 250]
        assert report.folds == len(probe.calls)

    def test_step_defaults_to_horizon(self):
        probe = FoldProbe()
        rolling_backtest(probe, noisy_seasonal(300), train_intervals=100, horizon=50)
        assert [train for train, _ in probe.calls] == [100, 150, 200, 250]

    def test_exact_fit_yields_one_fold(self):
        probe = FoldProbe()
        report = rolling_backtest(
            probe, noisy_seasonal(150), train_intervals=100, horizon=50
        )
        assert report.folds == 1
        assert probe.calls == [(100, 50)]

    def test_trailing_remainder_is_dropped(self):
        # 100 train + 50 fold + 49 remainder: the remainder is shorter than
        # one horizon, so it must be dropped, not scored on a short window.
        probe = FoldProbe()
        report = rolling_backtest(
            probe, noisy_seasonal(199), train_intervals=100, horizon=50
        )
        assert report.folds == 1
        assert probe.calls == [(100, 50)]

    def test_one_more_interval_adds_the_fold(self):
        report = rolling_backtest(
            FoldProbe(), noisy_seasonal(200), train_intervals=100, horizon=50
        )
        assert report.folds == 2

    def test_too_short_raises(self):
        with pytest.raises(DataError):
            rolling_backtest(
                persistence, noisy_seasonal(149), train_intervals=100, horizon=50
            )


class TestDegenerateWindows:
    """Windows that once slipped through and looped forever must raise."""

    def test_zero_horizon_raises(self):
        with pytest.raises(DataError):
            rolling_backtest(persistence, noisy_seasonal(200), 100, 0)

    def test_zero_step_raises(self):
        with pytest.raises(DataError):
            rolling_backtest(persistence, noisy_seasonal(200), 100, 50, step=0)

    def test_zero_train_raises(self):
        with pytest.raises(DataError):
            rolling_backtest(persistence, noisy_seasonal(200), 0, 50)


def golden_payload() -> dict:
    """The pinned backtest numbers: fixed series, two models, two windows."""
    series = noisy_seasonal(96 * 6)
    payload = {}
    for name, model in (("seasonal-naive", seasonal_naive), ("persistence", persistence)):
        for label, step in (("non-overlapping", None), ("sliding-48", 48)):
            report = rolling_backtest(
                model, series, train_intervals=96 * 2, horizon=96, step=step, name=name
            )
            payload[f"{name}/{label}"] = {
                "folds": report.folds,
                "mae": round(report.mae, 12),
                "rmse": round(report.rmse, 12),
                "mape": round(report.mape, 12),
            }
    return payload


class TestGoldenRegression:
    def test_backtest_matches_golden(self):
        golden = json.loads(GOLDEN.read_text())
        payload = golden_payload()
        assert set(payload) == set(golden)
        for key, entry in payload.items():
            assert entry["folds"] == golden[key]["folds"], key
            for metric in ("mae", "rmse", "mape"):
                assert entry[metric] == pytest.approx(
                    golden[key][metric], rel=1e-9
                ), f"{key}:{metric}"


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        GOLDEN.write_text(json.dumps(golden_payload(), indent=2) + "\n")
        print(f"wrote {GOLDEN}")
