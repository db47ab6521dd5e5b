"""Synthetic weather: a wind speed series.

The RES substrate turns wind speed into wind-power production (the
"surplus RES production" the MIRABEL scheduler matches flex-offers
against).  The model is simple and well understood: a seasonal sinusoid
with an AR(1) disturbance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.timeseries.axis import TimeAxis
from repro.timeseries.series import TimeSeries


@dataclass(frozen=True, slots=True)
class WindModel:
    """Wind speed (m/s): seasonal mean + strongly autocorrelated AR(1) gusts.

    The AR(1) component gives wind its characteristic multi-hour persistence
    — exactly what makes "the wind blows tonight, shift the washing there"
    scheduling meaningful.
    """

    mean_speed_ms: float = 7.5
    seasonal_amplitude_ms: float = 1.5
    noise_std_ms: float = 2.2
    noise_persistence: float = 0.985

    def __post_init__(self) -> None:
        if self.mean_speed_ms <= 0:
            raise ValidationError("mean_speed_ms must be positive")
        if not 0.0 <= self.noise_persistence < 1.0:
            raise ValidationError("noise_persistence must be in [0, 1)")

    def generate(self, axis: TimeAxis, rng: np.random.Generator) -> TimeSeries:
        """Generate a non-negative wind-speed series on ``axis``."""
        hours = _hours_since_epoch(axis)
        day_of_year = (hours / 24.0) % 365.25
        seasonal = self.seasonal_amplitude_ms * np.cos(
            2.0 * np.pi * (day_of_year - 15.0) / 365.25
        )
        noise = _ar1(axis.length, self.noise_persistence, self.noise_std_ms, rng)
        speed = np.clip(self.mean_speed_ms + seasonal + noise, 0.0, None)
        return TimeSeries(axis, speed, name="wind-speed-ms")


def _hours_since_epoch(axis: TimeAxis) -> np.ndarray:
    """Fractional hours of each interval start since the axis-year start."""
    year_start = axis.start.replace(month=1, day=1, hour=0, minute=0, second=0, microsecond=0)
    offset_h = (axis.start - year_start).total_seconds() / 3600.0
    step_h = axis.resolution.total_seconds() / 3600.0
    return offset_h + step_h * np.arange(axis.length)


def _ar1(n: int, persistence: float, std: float, rng: np.random.Generator) -> np.ndarray:
    """A stationary AR(1) path with marginal standard deviation ``std``."""
    if n == 0:
        return np.zeros(0)
    innovation_std = std * np.sqrt(1.0 - persistence**2)
    shocks = rng.normal(0.0, innovation_std, size=n)
    out = np.empty(n)
    out[0] = rng.normal(0.0, std)
    for i in range(1, n):
        out[i] = persistence * out[i - 1] + shocks[i]
    return out
