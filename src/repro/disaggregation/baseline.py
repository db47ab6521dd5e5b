"""Base-load estimation and removal.

Disaggregators match appliance templates against *appliance* energy, but a
metered series also carries the continuous household floor (standby, fridge,
occupancy activity).  The standard trick is a rolling-minimum baseline: over
any window longer than an appliance cycle, the minimum load is (almost surely)
pure base load.  A small quantile generalisation makes the estimate robust to
windows fully covered by long cycles.
"""

from __future__ import annotations

from numbers import Integral, Real
from typing import Any

import numpy as np
from scipy.ndimage import minimum_filter1d, percentile_filter

from repro.errors import DataError
from repro.timeseries.series import TimeSeries


def check_baseline_knobs(window_minutes: Any, quantile: Any, prefix: str = "") -> None:
    """Reject a window that is no integer >= 2 or a quantile outside [0, 0.5).

    Errors name the knob as ``prefix`` + its name here, so a caller that
    exposes the knobs under other names reports its own.
    """
    if (
        not isinstance(window_minutes, Integral)
        or isinstance(window_minutes, bool)
        or window_minutes < 2
    ):
        raise DataError(f"{prefix}window_minutes must be an integer >= 2, got {window_minutes!r}")
    if not isinstance(quantile, Real) or isinstance(quantile, bool) or not 0.0 <= quantile < 0.5:
        raise DataError(f"{prefix}quantile must be in [0, 0.5), got {quantile!r}")


def rolling_baseline(
    series: TimeSeries, window_minutes: int = 150, quantile: float = 0.15
) -> TimeSeries:
    """Estimate the continuous base load of a 1-minute series.

    Parameters
    ----------
    series:
        Energy-per-minute series (kWh).
    window_minutes:
        Rolling window width; should exceed the longest appliance cycle
        *phase* so that every window contains some appliance-free minutes.
    quantile:
        0 uses a pure rolling minimum; positive values (default 15 %) are
        robust to noise dips that bias a pure minimum low.

    Returns the baseline series (same axis).  The estimate is then lightly
    smoothed so that subtracting it does not inject step artefacts.
    """
    check_baseline_knobs(window_minutes, quantile)
    x = series.values
    if quantile == 0.0:
        base = minimum_filter1d(x, size=window_minutes, mode="nearest")
    else:
        base = percentile_filter(
            x, percentile=quantile * 100.0, size=window_minutes, mode="nearest"
        )
    # Smooth with a short moving average to avoid sharp steps.
    smooth_w = max(3, window_minutes // 8)
    kernel = np.full(smooth_w, 1.0 / smooth_w)
    base = np.convolve(np.pad(base, smooth_w // 2, mode="edge"), kernel, mode="valid")
    base = base[: len(x)]
    return series.with_values(np.minimum(base, x)).with_name(f"{series.name}.baseline")


def remove_baseline(
    series: TimeSeries, window_minutes: int = 150, quantile: float = 0.15
) -> tuple[TimeSeries, TimeSeries]:
    """Split a series into (appliance component, baseline component)."""
    base = rolling_baseline(series, window_minutes, quantile)
    appliance = series.with_values(
        np.clip(series.values - base.values, 0.0, None)
    ).with_name(f"{series.name}.appliance")
    return appliance, base
