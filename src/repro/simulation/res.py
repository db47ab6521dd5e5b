"""Renewable production: wind farms.

Paper §6: MIRABEL matches scheduled flex-offers against "the surplus RES
production".  This module converts synthetic wind speed into wind-farm power
via the standard piecewise power curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.simulation.weather import WindModel
from repro.timeseries.axis import TimeAxis
from repro.timeseries.series import TimeSeries


@dataclass(frozen=True, slots=True)
class WindFarm:
    """A wind farm with the classic cut-in / rated / cut-out power curve.

    Between cut-in and rated speed, power grows with the cube of wind speed
    (the physical regime); above rated it is flat; outside it is zero.
    """

    rated_power_kw: float = 2000.0
    cut_in_ms: float = 3.0
    rated_ms: float = 12.0
    cut_out_ms: float = 25.0

    def __post_init__(self) -> None:
        if self.rated_power_kw <= 0:
            raise ValidationError("rated_power_kw must be positive")
        if not 0 <= self.cut_in_ms < self.rated_ms < self.cut_out_ms:
            raise ValidationError(
                "need 0 <= cut_in < rated < cut_out, got "
                f"{self.cut_in_ms}/{self.rated_ms}/{self.cut_out_ms}"
            )

    def power_kw(self, wind_speed_ms: np.ndarray) -> np.ndarray:
        """Power output (kW) for an array of wind speeds (m/s)."""
        v = np.asarray(wind_speed_ms, dtype=np.float64)
        cubic = (v**3 - self.cut_in_ms**3) / (self.rated_ms**3 - self.cut_in_ms**3)
        power = self.rated_power_kw * np.clip(cubic, 0.0, 1.0)
        power[(v < self.cut_in_ms) | (v >= self.cut_out_ms)] = 0.0
        return power

    def production_energy(self, wind_speed: TimeSeries) -> TimeSeries:
        """Energy production (kWh per interval) from a wind-speed series."""
        power = self.power_kw(wind_speed.values)
        energy = power * wind_speed.axis.hours_per_interval
        return TimeSeries(wind_speed.axis, energy, name="wind-production-kwh")


def simulate_wind_production(
    axis: TimeAxis,
    rng: np.random.Generator,
    farm: WindFarm | None = None,
    wind_model: WindModel | None = None,
) -> TimeSeries:
    """One-call wind production: model -> speed -> power -> energy."""
    farm = farm or WindFarm()
    wind_model = wind_model or WindModel()
    speed = wind_model.generate(axis, rng)
    return farm.production_energy(speed)
