"""Quantile and ensemble forecasts: uncertainty bands over point models.

The point forecasters in :mod:`repro.forecasting.models` answer "what will
the series do"; robust scheduling (:mod:`repro.scheduling.robust`) needs
"how wrong might that answer be".  This module derives that band without
any new model machinery: run the point model through the same rolling
folds :func:`~repro.forecasting.evaluate.rolling_backtest` uses, collect
the per-fold residual vectors (:func:`residual_blocks`), and read empirical
residual quantiles off them (:func:`quantile_forecast_from_residuals`).
The result is a :class:`QuantileForecast` — a point curve plus one curve
per quantile level, monotone in level by construction.

Everything here is deterministic: the folds are a pure function of the
series shape, ``np.quantile`` is a pure function of the residual matrix,
and no RNG is involved anywhere — the same input series produces bitwise
the same fan on every call (pinned by
``tests/test_property_forecast_quantiles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import DataError
from repro.forecasting.models import drift, seasonal_naive
from repro.timeseries.axis import TimeAxis
from repro.timeseries.io import Curve
from repro.timeseries.series import TimeSeries
from repro.wire import Encodable, Key, wire_format

#: Default quantile levels for forecast fans (symmetric around the median).
DEFAULT_LEVELS = (0.1, 0.25, 0.5, 0.75, 0.9)


def _validate_levels(levels: tuple[float, ...]) -> tuple[float, ...]:
    levels = tuple(float(level) for level in levels)
    if not levels:
        raise DataError("quantile levels must be non-empty")
    for level in levels:
        if not 0.0 < level < 1.0:
            raise DataError(f"quantile level must be in (0, 1), got {level}")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise DataError(f"quantile levels must be strictly increasing, got {levels}")
    return levels


@wire_format(
    "quantile forecast",
    keys=(
        Key("axis", TimeAxis),
        Key("point", Curve),
        Key("levels", tuple[float, ...]),
        Key("curves", tuple[Curve, ...]),
    ),
    build=lambda axis, point, levels, curves: QuantileForecast(
        point.on(axis), levels, tuple(curve.on(axis) for curve in curves)
    ),
)
@dataclass(frozen=True, slots=True)
class QuantileForecast(Encodable):
    """A point forecast plus one curve per quantile level.

    Invariants enforced at construction: levels are strictly increasing in
    ``(0, 1)``, every curve shares the point forecast's axis, and the
    curves are monotone in level at every interval (a higher quantile
    never dips below a lower one).
    """

    point: TimeSeries
    levels: tuple[float, ...]
    curves: tuple[TimeSeries, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", _validate_levels(self.levels))
        object.__setattr__(self, "curves", tuple(self.curves))
        if len(self.curves) != len(self.levels):
            raise DataError(
                f"{len(self.levels)} level(s) but {len(self.curves)} curve(s)"
            )
        for curve in self.curves:
            self.point.axis.require_aligned(curve.axis)
        if len(self.curves) > 1:
            fan = np.stack([curve.values for curve in self.curves])
            if np.any(np.diff(fan, axis=0) < 0.0):
                raise DataError("quantile curves must be monotone in level")

    @property
    def axis(self) -> TimeAxis:
        """The shared forecast axis."""
        return self.point.axis

    def fan(self) -> np.ndarray:
        """The curves stacked into a ``(levels, horizon)`` float matrix."""
        return np.stack([curve.values for curve in self.curves])

    def curve(self, level: float) -> TimeSeries:
        """The curve at exactly ``level`` (raises when absent)."""
        for have, curve in zip(self.levels, self.curves):
            if have == level:
                return curve
        raise DataError(f"no quantile curve at level {level}; have {self.levels}")


def residual_blocks(
    series: TimeSeries,
    model: Callable[[TimeSeries, int], TimeSeries],
    horizon: int,
    train_intervals: int | None = None,
    step: int | None = None,
) -> np.ndarray:
    """Per-fold forecast residuals as a ``(folds, horizon)`` matrix.

    Walks the same rolling-origin folds as
    :func:`~repro.forecasting.evaluate.rolling_backtest` — train on the
    prefix, forecast ``horizon`` intervals, slide by ``step`` — but keeps
    the raw residual vector ``actual - forecast`` of each fold instead of
    collapsing it to error metrics.  ``train_intervals`` defaults to half
    the series (never less than one horizon) and ``step`` to ``horizon``,
    i.e. non-overlapping evaluation blocks.
    """
    if horizon < 1:
        raise DataError("horizon must be >= 1")
    n = len(series)
    if train_intervals is None:
        train_intervals = max(horizon, n // 2)
    if train_intervals < 1:
        raise DataError("train_intervals must be >= 1")
    if step is None:
        step = horizon
    if step < 1:
        raise DataError("step must be >= 1")
    if train_intervals + horizon > n:
        raise DataError("series too short for one residual block")
    blocks: list[np.ndarray] = []
    origin = train_intervals
    while origin + horizon <= n:
        history = series.slice(0, origin)
        actual = series.slice(origin, horizon)
        forecast = model(history, horizon)
        blocks.append(actual.values - forecast.values)
        origin += step
    return np.stack(blocks)


def quantile_forecast_from_residuals(
    point: TimeSeries,
    residuals: np.ndarray,
    levels: tuple[float, ...] = DEFAULT_LEVELS,
) -> QuantileForecast:
    """Shift the point forecast by empirical residual quantiles.

    ``residuals`` is a ``(folds, horizon)`` matrix (one row per backtest
    fold); each level's curve is ``point + np.quantile(residuals, level,
    axis=0)``.  Because ``np.quantile`` is monotone in its level argument
    interval by interval, the resulting fan is monotone by construction,
    and residuals that are exactly sign-symmetric put the 0.5 curve on the
    point forecast itself.
    """
    levels = _validate_levels(levels)
    residuals = np.asarray(residuals, dtype=np.float64)
    if residuals.ndim != 2:
        raise DataError(f"residuals must be 2-D (folds, horizon), got {residuals.shape}")
    if residuals.shape[1] != len(point):
        raise DataError(
            f"residual horizon {residuals.shape[1]} does not match the "
            f"point forecast's {len(point)} interval(s)"
        )
    shifts = np.quantile(residuals, levels, axis=0)
    curves = tuple(
        TimeSeries(point.axis, point.values + shifts[i], f"{point.name}@q{level:g}")
        for i, level in enumerate(levels)
    )
    return QuantileForecast(point=point, levels=levels, curves=curves)


def quantile_forecast(
    series: TimeSeries,
    horizon: int,
    model: Callable[[TimeSeries, int], TimeSeries] = seasonal_naive,
    levels: tuple[float, ...] = DEFAULT_LEVELS,
    train_intervals: int | None = None,
    step: int | None = None,
) -> QuantileForecast:
    """Point forecast plus a residual-quantile fan, end to end.

    Backtests ``model`` over ``series`` (:func:`residual_blocks`), issues
    the point forecast from the full history, and widens it by the
    empirical residual quantiles.  Purely deterministic.
    """
    residuals = residual_blocks(
        series, model, horizon, train_intervals=train_intervals, step=step
    )
    point = model(series, horizon)
    return quantile_forecast_from_residuals(point, residuals, levels)


def seasonal_naive_quantiles(
    series: TimeSeries,
    horizon: int,
    levels: tuple[float, ...] = DEFAULT_LEVELS,
) -> QuantileForecast:
    """:func:`quantile_forecast` over the seasonal-naive point model."""
    return quantile_forecast(series, horizon, model=seasonal_naive, levels=levels)


def drift_quantiles(
    series: TimeSeries,
    horizon: int,
    levels: tuple[float, ...] = DEFAULT_LEVELS,
) -> QuantileForecast:
    """:func:`quantile_forecast` over the drift point model."""
    return quantile_forecast(series, horizon, model=drift, levels=levels)


__all__ = [
    "DEFAULT_LEVELS",
    "QuantileForecast",
    "drift_quantiles",
    "quantile_forecast",
    "quantile_forecast_from_residuals",
    "residual_blocks",
    "seasonal_naive_quantiles",
]
