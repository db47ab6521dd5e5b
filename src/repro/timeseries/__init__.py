"""Regular time-series engine (the library's pandas-free substrate).

Public surface:

* :class:`~repro.timeseries.axis.TimeAxis` — anchored fixed-resolution grid.
* :class:`~repro.timeseries.series.TimeSeries` — numpy-backed values on an axis.
* :mod:`~repro.timeseries.resample` — energy/power aware up/down-sampling.
* :mod:`~repro.timeseries.stats` — correlation, sparseness, autocorrelation...
* :mod:`~repro.timeseries.calendar` — day types, seasons, daily windows.

Subsystem contract:

* **Regular axes, naive standard time** — a :class:`TimeAxis` never
  jumps; DST weeks are represented in naive local standard time, and the
  calendar layer (day types, seasons) is total across transitions, leap
  days and year boundaries (hypothesis-tested).
* **Energy semantics** — series carry kWh *per interval*;
  resampling conserves energy exactly (``downsample_sum`` /
  ``upsample_spread`` round-trip bitwise on aligned grids).
* **Validation at the edge** — construction rejects NaNs and axis
  mismatches (:class:`~repro.errors.AxisMismatchError`), so downstream
  numerics never need defensive checks.
"""

from repro.timeseries.axis import (
    FIFTEEN_MINUTES,
    ONE_DAY,
    ONE_HOUR,
    ONE_MINUTE,
    TimeAxis,
    axis_for_days,
)
from repro.timeseries.calendar import DailyWindow, DayType, Season, day_type, season
from repro.timeseries.resample import downsample_sum, upsample_spread
from repro.timeseries.io import (
    load_series_csv,
    save_series_csv,
    series_from_dict,
    series_to_dict,
)
from repro.timeseries.series import TimeSeries, stack

__all__ = [
    "FIFTEEN_MINUTES",
    "ONE_DAY",
    "ONE_HOUR",
    "ONE_MINUTE",
    "TimeAxis",
    "axis_for_days",
    "DailyWindow",
    "DayType",
    "Season",
    "day_type",
    "season",
    "downsample_sum",
    "upsample_spread",
    "TimeSeries",
    "stack",
    "load_series_csv",
    "save_series_csv",
    "series_from_dict",
    "series_to_dict",
]
