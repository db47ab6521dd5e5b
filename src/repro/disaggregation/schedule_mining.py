"""Usage-schedule mining — step 1 of the schedule-based extractor.

Paper §4.2 refines the frequency table with habits: "the exact schedule of
the usage of each appliance can be derived", e.g. "the dishwasher is more
used during the weekends".  Given detected activations, this module builds a
day-type × time-of-day start histogram per appliance, smooths it, and emits
the dominant windows as a :class:`MinedSchedule` — structurally compatible
with :class:`repro.appliances.usage.UsageSchedule` so mined habits can drive
both extraction and re-simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import time
from numbers import Integral, Real
from typing import Any

import numpy as np

from repro.appliances.usage import UsageSchedule
from repro.errors import DataError
from repro.simulation.activations import Activation
from repro.timeseries.calendar import DailyWindow, DayType, day_type, minutes_since_midnight

MINUTES_PER_DAY = 24 * 60


@dataclass(frozen=True)
class MinedSchedule:
    """Mined start-time habits of one appliance.

    ``density`` maps each day type to a smoothed per-minute start density
    (sums to the expected number of starts on such a day); ``windows`` are
    the extracted high-probability start windows per day type.
    """

    appliance: str
    density: dict[DayType, np.ndarray]
    windows: dict[DayType, list[DailyWindow]]
    observations: int

    def expected_starts(self, dtype: DayType) -> float:
        """Expected number of starts per day of the given type."""
        return float(self.density[dtype].sum())

    def as_usage_schedule(self, dtype: DayType) -> UsageSchedule:
        """Convert the mined windows of one day type to a UsageSchedule.

        Window weights are the density mass inside each window, so sampling
        from the result reproduces the mined habit distribution (coarsely).
        """
        windows = self.windows.get(dtype, [])
        if not windows:
            return UsageSchedule()
        weighted = []
        dens = self.density[dtype]
        for window in windows:
            mass = _window_mass(dens, window)
            weighted.append((window, float(mass)))
        return UsageSchedule(windows=tuple(weighted))

    def peak_minute(self, dtype: DayType) -> int:
        """Minute-of-day where the start density is highest."""
        return int(self.density[dtype].argmax())


def _window_mass(density: np.ndarray, window: DailyWindow) -> float:
    minutes = np.arange(MINUTES_PER_DAY)
    mask = np.array([window.contains(time(m // 60, m % 60)) for m in minutes])
    return float(density[mask].sum())


def _smooth_circular(x: np.ndarray, width: int) -> np.ndarray:
    """Moving-average smoothing that wraps around midnight."""
    if width <= 1:
        return x.copy()
    kernel = np.full(width, 1.0 / width)
    padded = np.concatenate([x[-width:], x, x[:width]])
    smoothed = np.convolve(padded, kernel, mode="same")
    return smoothed[width : width + len(x)]


def _extract_windows(
    density: np.ndarray, threshold_factor: float, min_width_minutes: int
) -> list[DailyWindow]:
    """Contiguous super-threshold runs of the density as daily windows."""
    if density.sum() <= 0:
        return []
    threshold = threshold_factor * density.mean()
    above = density > threshold
    if above.all():
        return [DailyWindow(time(0, 0), time(0, 0))]  # whole day (wraps)
    # Find runs, treating the array circularly.
    extended = np.concatenate([above, above])
    windows: list[DailyWindow] = []
    i = 0
    seen_starts: set[int] = set()
    while i < MINUTES_PER_DAY:
        if not extended[i]:
            i += 1
            continue
        j = i
        while j < 2 * MINUTES_PER_DAY and extended[j]:
            j += 1
        start = i % MINUTES_PER_DAY
        width = j - i
        if width >= min_width_minutes and start not in seen_starts:
            end = (i + width) % MINUTES_PER_DAY
            windows.append(
                DailyWindow(time(start // 60, start % 60), time(end // 60, end % 60))
            )
            seen_starts.add(start)
        i = j
    return windows


def check_mining_knobs(smoothing_minutes: Any, threshold_factor: Any) -> None:
    """Reject a smoothing width that is no integer >= 1 or a threshold factor
    that is no finite number > 0."""
    if (
        not isinstance(smoothing_minutes, Integral)
        or isinstance(smoothing_minutes, bool)
        or smoothing_minutes < 1
    ):
        raise DataError(f"smoothing_minutes must be an integer >= 1, got {smoothing_minutes!r}")
    if (
        not isinstance(threshold_factor, Real)
        or isinstance(threshold_factor, bool)
        or not 0.0 < threshold_factor < math.inf
    ):
        raise DataError(f"threshold_factor must be a finite number > 0, got {threshold_factor!r}")


def mine_schedule(
    detections: list[Activation],
    appliance: str,
    observation_days: dict[DayType, int],
    smoothing_minutes: int = 90,
    threshold_factor: float = 1.5,
    min_width_minutes: int = 30,
) -> MinedSchedule:
    """Mine the start-time schedule of one appliance from detections.

    Parameters
    ----------
    detections:
        Activation events (any appliance; filtered internally).
    appliance:
        Which appliance to mine.
    observation_days:
        How many days of each type the observation window contained
        (needed to turn counts into per-day densities).
    smoothing_minutes:
        Width of the circular moving-average applied to the raw histogram.
    threshold_factor:
        Windows are runs where density exceeds ``factor × mean density``.
    min_width_minutes:
        Minimum reported window width.
    """
    check_mining_knobs(smoothing_minutes, threshold_factor)
    acts = [a for a in detections if a.appliance == appliance]
    density: dict[DayType, np.ndarray] = {}
    windows: dict[DayType, list[DailyWindow]] = {}
    for dtype in DayType:
        hist = np.zeros(MINUTES_PER_DAY)
        for act in acts:
            if day_type(act.start.date()) is dtype:
                hist[minutes_since_midnight(act.start) % MINUTES_PER_DAY] += 1.0
        days = observation_days.get(dtype, 0)
        if days > 0:
            hist /= days
        smoothed = _smooth_circular(hist, smoothing_minutes)
        density[dtype] = smoothed
        windows[dtype] = _extract_windows(smoothed, threshold_factor, min_width_minutes)
    return MinedSchedule(
        appliance=appliance, density=density, windows=windows, observations=len(acts)
    )


def count_day_types(start_date, days: int) -> dict[DayType, int]:
    """How many days of each type a window of ``days`` days contains."""
    from datetime import timedelta

    counts = {t: 0 for t in DayType}
    for offset in range(days):
        counts[day_type(start_date + timedelta(days=offset))] += 1
    return counts
