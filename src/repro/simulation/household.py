"""Bottom-up household consumption simulation.

A household is a base load (always-on electronics, fridge cycling, occupancy-
and season-modulated activity) plus discrete appliance activations drawn from
the appliance database.  The simulator runs natively at 1-minute resolution —
finer than the paper's 15-minute metering, as §4 requires ("granularity must
be even smaller than 15 min") — and is downsampled to the metering grid for
the household-level extractors.

Every simulated trace retains its ground truth: the activation log, from
which the per-appliance series and the true flexible-energy series are
rendered on access (:class:`~repro.simulation.activations.ApplianceSeries`).
Only the total and the base load are stored as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from functools import lru_cache

import numpy as np

from repro.appliances.database import ApplianceDatabase, default_database
from repro.appliances.model import ApplianceSpec
from repro.errors import ValidationError
from repro.simulation.activations import (
    Activation,
    ApplianceSeries,
    draw_daily_activations,
)
from repro.timeseries.axis import FIFTEEN_MINUTES, ONE_MINUTE, TimeAxis
from repro.timeseries.calendar import day_type
from repro.timeseries.resample import downsample_sum
from repro.timeseries.series import TimeSeries

MINUTES_PER_DAY = 24 * 60


@dataclass(frozen=True, slots=True)
class HouseholdConfig:
    """Static description of one simulated household.

    Parameters
    ----------
    household_id:
        Unique identifier.
    appliances:
        Names of owned appliances (must exist in the database used).
    occupants:
        Number of residents; scales activity load and appliance use.
    standby_kw:
        Always-on floor load (routers, clocks, standby electronics).
    activity_peak_kw:
        Extra power at the busiest moment of the occupancy pattern.
    fridge_average_kw:
        Mean power of the cycling cold appliances.
    frequency_scale:
        Per-appliance multipliers on typical usage frequency (default 1.0).
    noise_std_kw:
        Standard deviation of multiplicative measurement/behaviour noise.
    """

    household_id: str
    appliances: tuple[str, ...] = (
        "washing-machine-y",
        "dishwasher-z",
        "oven",
        "television",
    )
    occupants: int = 2
    standby_kw: float = 0.06
    activity_peak_kw: float = 0.35
    fridge_average_kw: float = 0.045
    frequency_scale: dict[str, float] = field(default_factory=dict)
    noise_std_kw: float = 0.02

    def __post_init__(self) -> None:
        if not self.household_id:
            raise ValidationError("household_id must be non-empty")
        if self.occupants < 1:
            raise ValidationError("occupants must be >= 1")
        for value in (self.standby_kw, self.activity_peak_kw, self.fridge_average_kw):
            if value < 0:
                raise ValidationError("load parameters must be >= 0")
        if self.noise_std_kw < 0:
            raise ValidationError("noise_std_kw must be >= 0")


@dataclass(frozen=True)
class HouseholdTrace:
    """The result of simulating one household: series + ground truth.

    ``total`` and ``base_load`` are stored arrays (the base load is drawn
    after the activations, so it cannot be re-derived from them).
    ``per_appliance`` is a read-only mapping that renders each appliance's
    1-minute series from ``activations`` on every access, bitwise equal to
    what the total was summed from; evaluation reads it, extraction never
    does.
    """

    config: HouseholdConfig
    axis: TimeAxis
    total: TimeSeries
    base_load: TimeSeries
    per_appliance: ApplianceSeries
    activations: list[Activation]

    def metered(self, resolution: timedelta = FIFTEEN_MINUTES) -> TimeSeries:
        """The series a smart meter would record (kWh per interval)."""
        return downsample_sum(self.total, resolution).with_name(
            f"{self.config.household_id}-metered"
        )

    def flexible_minutely_values(self) -> np.ndarray:
        """Ground-truth flexible energy per minute (kWh) as a vector.

        The single source of the flexible/inflexible split — the metering-
        grid accessor below and the fleet matrices both derive from it.
        """
        flexible = {a.appliance for a in self.activations if a.flexible}
        return self.per_appliance.add_into(np.zeros(self.axis.length), flexible)

    def true_flexible(self, resolution: timedelta = FIFTEEN_MINUTES) -> TimeSeries:
        """Ground-truth flexible energy on the metering grid."""
        flexible_minutely = TimeSeries(self.axis, self.flexible_minutely_values())
        return downsample_sum(flexible_minutely, resolution).with_name(
            f"{self.config.household_id}-true-flexible"
        )

    @property
    def flexible_share(self) -> float:
        """Fraction of total energy that came from flexible activations."""
        total = self.total.total()
        if total == 0.0:
            return 0.0
        flexible = sum(a.energy_kwh for a in self.activations if a.flexible)
        return flexible / total

    def flexible_activations(self) -> list[Activation]:
        """Ground-truth shiftable runs."""
        return [a for a in self.activations if a.flexible]


@dataclass(frozen=True)
class _AxisProfile:
    """Household-independent base-load components of one 1-minute axis.

    Fleet generation simulates many households on the *same* axis; the
    occupancy humps, weekend/workday midday damping and seasonal lighting
    depend only on the axis, so they are computed once per axis and shared
    across every household (and every fleet re-run within the process).
    """

    minute_index: np.ndarray
    occupancy_units: np.ndarray   # 0.55·morning + 1.0·evening humps
    damping: np.ndarray           # clipped midday damping/boost factor
    lighting: np.ndarray          # winter-scaled evening lighting (kW)


@lru_cache(maxsize=8)
def _axis_profile(axis: TimeAxis) -> _AxisProfile:
    minute_index = np.arange(axis.length)
    offset = (axis.start.hour * 60 + axis.start.minute) % MINUTES_PER_DAY
    minute_of_day = (minute_index + offset) % MINUTES_PER_DAY

    # Occupancy humps: morning 06:00-09:00, evening 17:00-23:00.
    morning = _hump(minute_of_day, centre=7.5 * 60, width=70.0)
    evening = _hump(minute_of_day, centre=20.0 * 60, width=120.0)
    occupancy_units = 0.55 * morning + 1.0 * evening

    # Workday midday damping (house empty) and weekend boost, as a single
    # per-minute factor: weekend days add 0.25·midday, workdays remove
    # 0.55·midday.
    day_numbers = minute_index // MINUTES_PER_DAY
    midday = _hump(minute_of_day, centre=13.0 * 60, width=150.0)
    n_days = int(day_numbers[-1]) + 1 if axis.length else 0
    weekend = np.fromiter(
        (
            day_type((axis.start + timedelta(days=day_no)).date()).is_weekend
            for day_no in range(n_days)
        ),
        dtype=bool,
        count=n_days,
    )
    sign = np.where(weekend, 0.25, -0.55)
    damping = np.clip(1.0 + sign[day_numbers] * midday, 0.0, None)

    # Evening lighting, stronger in winter (proxy: month of the axis start).
    month = axis.start.month
    winter_factor = 1.0 + (0.5 if month in (11, 12, 1, 2) else 0.0)
    lighting = (0.05 * winter_factor) * _hump(minute_of_day, centre=20.5 * 60, width=150.0)

    return _AxisProfile(
        minute_index=minute_index,
        occupancy_units=occupancy_units,
        damping=damping,
        lighting=lighting,
    )


def base_load_series(
    config: HouseholdConfig, axis: TimeAxis, rng: np.random.Generator
) -> TimeSeries:
    """Continuous household floor load on a 1-minute axis (kWh per minute).

    Components: standby floor, fridge compressor cycling (45-minute period,
    1/3 duty), an occupancy activity curve with morning and evening humps
    (scaled by occupant count and damped on workday middays), and a winter
    lighting bump in the evening.
    """
    if axis.resolution != ONE_MINUTE:
        raise ValidationError("base load is generated on a 1-minute axis")
    profile = _axis_profile(axis)
    occupancy = profile.occupancy_units * (
        config.activity_peak_kw * (0.7 + 0.3 * config.occupants)
    )
    occupancy *= profile.damping

    # Fridge: square-wave compressor cycling, phase-jittered per household.
    period = 45
    duty = 1.0 / 3.0
    phase = int(rng.integers(0, period))
    compressor_on = ((profile.minute_index + phase) % period) < duty * period
    fridge = np.where(compressor_on, config.fridge_average_kw / duty, 0.0)

    power_kw = config.standby_kw + occupancy + fridge + profile.lighting
    noise = rng.normal(1.0, config.noise_std_kw / max(config.standby_kw, 1e-6), axis.length)
    power_kw = np.clip(power_kw * np.clip(noise, 0.5, 1.5), 0.0, None)
    return TimeSeries(axis, power_kw / 60.0, name=f"{config.household_id}-base")


def _hump(minute_of_day: np.ndarray, centre: float, width: float) -> np.ndarray:
    """A smooth daily bump: gaussian in minute-of-day with wraparound."""
    delta = np.abs(minute_of_day - centre)
    delta = np.minimum(delta, MINUTES_PER_DAY - delta)
    return np.exp(-0.5 * (delta / width) ** 2)


def simulate_household(
    config: HouseholdConfig,
    start: datetime,
    days: int,
    rng: np.random.Generator,
    database: ApplianceDatabase | None = None,
    total_out: np.ndarray | None = None,
) -> HouseholdTrace:
    """Simulate one household for ``days`` whole days from ``start``.

    Returns the full trace: 1-minute total, base load, the ground-truth
    activation log and the per-appliance series rendered from it.
    ``total_out``, when given, is a preallocated vector (e.g. one row of a
    fleet matrix) that receives the total series in place and backs the
    returned trace's total.
    """
    if days < 1:
        raise ValidationError("days must be >= 1")
    database = database or default_database()
    axis = TimeAxis(start, ONE_MINUTE, days * MINUTES_PER_DAY)
    specs: dict[str, ApplianceSpec] = {
        name: database.get(name) for name in config.appliances
    }

    activations: list[Activation] = []
    for day_no in range(days):
        day_start = start + timedelta(days=day_no)
        for name, spec in specs.items():
            scale = config.frequency_scale.get(name, 1.0)
            activations.extend(
                draw_daily_activations(
                    spec, day_start, rng, household_id=config.household_id,
                    frequency_scale=scale,
                )
            )
    activations.sort(key=lambda a: a.start)

    base = base_load_series(config, axis, rng)
    if total_out is None:
        total_values = base.values.copy()
    else:
        if total_out.shape != (axis.length,):
            raise ValidationError(
                f"total_out has shape {total_out.shape}, expected ({axis.length},)"
            )
        total_values = total_out
        total_values[:] = base.values
    per_appliance = ApplianceSeries(activations, specs, axis, f"{config.household_id}-")
    per_appliance.add_into(total_values)
    total = TimeSeries(axis, total_values, name=f"{config.household_id}-total")
    return HouseholdTrace(
        config=config,
        axis=axis,
        total=total,
        base_load=base,
        per_appliance=per_appliance,
        activations=activations,
    )
