"""Resampling between time-grid resolutions.

Consumption series hold *energy per interval*, so downsampling aggregates by
summation and upsampling spreads energy evenly.
"""

from __future__ import annotations

from datetime import timedelta

import numpy as np

from repro.errors import ResolutionError
from repro.timeseries.axis import TimeAxis
from repro.timeseries.series import TimeSeries


def _ratio(coarse: timedelta, fine: timedelta) -> int:
    """Integer number of fine intervals per coarse interval."""
    coarse_us = int(coarse.total_seconds() * 1_000_000)
    fine_us = int(fine.total_seconds() * 1_000_000)
    if coarse_us % fine_us != 0:
        raise ResolutionError(f"{coarse} is not an integer multiple of {fine}")
    return coarse_us // fine_us


def downsample_sum(series: TimeSeries, resolution: timedelta) -> TimeSeries:
    """Aggregate to a coarser grid by summing (energy semantics).

    The series length must be an exact multiple of the ratio; metering data
    always is, and requiring it keeps energy conservation exact.
    """
    ratio = _ratio(resolution, series.axis.resolution)
    if series.axis.length % ratio != 0:
        raise ResolutionError(
            f"length {series.axis.length} not divisible by ratio {ratio}"
        )
    coarse_len = series.axis.length // ratio
    values = series.values.reshape(coarse_len, ratio).sum(axis=1)
    axis = TimeAxis(series.axis.start, resolution, coarse_len)
    return TimeSeries(axis, values, series.name)


def upsample_spread(series: TimeSeries, resolution: timedelta) -> TimeSeries:
    """Refine to a finer grid spreading each value evenly (energy semantics).

    ``downsample_sum(upsample_spread(s, r), s.resolution)`` is the identity.
    """
    ratio = _ratio(series.axis.resolution, resolution)
    values = np.repeat(series.values / ratio, ratio)
    axis = TimeAxis(series.axis.start, resolution, series.axis.length * ratio)
    return TimeSeries(axis, values, series.name)
