"""Industrial consumers (paper §6: "flexibility extraction from industrial
consumers" — future work, implemented).

A factory is modelled with the same machinery as a household — a continuous
base load plus discrete process activations — but at industrial scale: a
shift-shaped floor load (tens of kW) and batch processes (furnaces, pre-
cooling, pumping) of tens-to-hundreds of kWh per run, some of which are
genuinely shiftable within operating constraints.  Because the trace shape
is identical (:class:`~repro.simulation.household.HouseholdTrace`), every
extractor in :mod:`repro.extraction` runs on factories unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, time, timedelta

import numpy as np

from repro.appliances.database import ApplianceDatabase
from repro.appliances.model import ApplianceCategory, ApplianceSpec, flat_shape, phased_shape
from repro.appliances.usage import UsageFrequency, UsageSchedule
from repro.errors import ValidationError
from repro.simulation.activations import Activation, ApplianceSeries, draw_daily_activations
from repro.simulation.household import HouseholdTrace, HouseholdConfig
from repro.timeseries.axis import ONE_MINUTE, TimeAxis
from repro.timeseries.calendar import DailyWindow, DayType, day_type
from repro.timeseries.series import TimeSeries

MINUTES_PER_DAY = 24 * 60

_WEEKDAY_ONLY = {DayType.WORKDAY: 1.4, DayType.SATURDAY: 0.0, DayType.SUNDAY: 0.0}


def industrial_catalogue() -> ApplianceDatabase:
    """Batch processes of a mid-size plant (the industrial 'Table 1')."""
    specs = (
        ApplianceSpec(
            name="batch-furnace",
            manufacturer="HeatWorks",
            category=ApplianceCategory.HEATING,
            energy_min_kwh=150.0,
            energy_max_kwh=300.0,
            # Ramp-up, soak, controlled cool-down.
            shape=phased_shape([(30, 3.0), (120, 1.5), (30, 0.5)]),
            flexible=True,
            time_flexibility=timedelta(hours=6),
            frequency=UsageFrequency(5.0, day_type_weights=_WEEKDAY_ONLY),
            schedule=UsageSchedule(
                windows=((DailyWindow(time(6, 0), time(14, 0)), 1.0),)
            ),
        ),
        ApplianceSpec(
            name="cold-storage-precool",
            manufacturer="FrostCo",
            category=ApplianceCategory.COLD,
            energy_min_kwh=80.0,
            energy_max_kwh=120.0,
            shape=flat_shape(120),
            flexible=True,
            # Thermal inertia: pre-cooling can move nearly anywhere in a day.
            time_flexibility=timedelta(hours=16),
            frequency=UsageFrequency(7.0),
            schedule=UsageSchedule(
                windows=((DailyWindow(time(0, 0), time(6, 0)), 1.0),)
            ),
        ),
        ApplianceSpec(
            name="effluent-pumping",
            manufacturer="FlowSys",
            category=ApplianceCategory.OTHER,
            energy_min_kwh=40.0,
            energy_max_kwh=60.0,
            shape=flat_shape(90),
            flexible=True,
            time_flexibility=timedelta(hours=10),
            frequency=UsageFrequency(7.0),
            schedule=UsageSchedule(),
        ),
        ApplianceSpec(
            name="packaging-line",
            manufacturer="PackCorp",
            category=ApplianceCategory.OTHER,  # inline process, not shiftable
            energy_min_kwh=90.0,
            energy_max_kwh=110.0,
            shape=flat_shape(240),
            flexible=False,
            frequency=UsageFrequency(5.0, day_type_weights=_WEEKDAY_ONLY),
            schedule=UsageSchedule(
                windows=((DailyWindow(time(8, 0), time(12, 0)), 1.0),)
            ),
        ),
    )
    return ApplianceDatabase(specs=specs)


@dataclass(frozen=True, slots=True)
class FactoryConfig:
    """Static description of a simulated plant."""

    factory_id: str
    processes: tuple[str, ...] = (
        "batch-furnace",
        "cold-storage-precool",
        "effluent-pumping",
        "packaging-line",
    )
    floor_load_kw: float = 40.0
    shift_load_kw: float = 60.0
    shift_start: time = time(6, 0)
    shift_end: time = time(22, 0)
    noise_std_kw: float = 2.0

    def __post_init__(self) -> None:
        if not self.factory_id:
            raise ValidationError("factory_id must be non-empty")
        if self.floor_load_kw < 0 or self.shift_load_kw < 0:
            raise ValidationError("loads must be >= 0")
        if self.noise_std_kw < 0:
            raise ValidationError("noise_std_kw must be >= 0")


def factory_base_load(
    config: FactoryConfig, axis: TimeAxis, rng: np.random.Generator
) -> TimeSeries:
    """Shift-shaped plant floor load (kWh per minute).

    Weekday shifts carry the full shift load; weekends only the floor
    (continuous services: cold storage, compressors, IT).
    """
    if axis.resolution != ONE_MINUTE:
        raise ValidationError("factory base load is generated on a 1-minute axis")
    minute_index = np.arange(axis.length)
    offset = (axis.start.hour * 60 + axis.start.minute) % MINUTES_PER_DAY
    minute_of_day = (minute_index + offset) % MINUTES_PER_DAY
    window = DailyWindow(config.shift_start, config.shift_end)
    in_shift = np.array(
        [window.contains(time(m // 60, m % 60)) for m in range(MINUTES_PER_DAY)]
    )[minute_of_day]

    day_numbers = minute_index // MINUTES_PER_DAY
    weekday = np.ones(axis.length, dtype=bool)
    for day_no in np.unique(day_numbers):
        date = (axis.start + timedelta(days=int(day_no))).date()
        weekday[day_numbers == day_no] = not day_type(date).is_weekend

    power_kw = np.full(axis.length, config.floor_load_kw)
    power_kw += np.where(in_shift & weekday, config.shift_load_kw, 0.0)
    power_kw += rng.normal(0.0, config.noise_std_kw, axis.length)
    power_kw = np.clip(power_kw, 0.0, None)
    return TimeSeries(axis, power_kw / 60.0, name=f"{config.factory_id}-base")


def simulate_factory(
    config: FactoryConfig,
    start: datetime,
    days: int,
    rng: np.random.Generator,
    catalogue: ApplianceDatabase | None = None,
) -> HouseholdTrace:
    """Simulate one plant; returns the standard trace type.

    The trace's ``config`` field carries an equivalent
    :class:`HouseholdConfig` so downstream consumers (evaluation, metering)
    work untouched; the scale difference (MWh vs kWh) is the point.
    """
    if days < 1:
        raise ValidationError("days must be >= 1")
    catalogue = catalogue or industrial_catalogue()
    axis = TimeAxis(start, ONE_MINUTE, days * MINUTES_PER_DAY)
    specs = {name: catalogue.get(name) for name in config.processes}

    activations: list[Activation] = []
    for day_no in range(days):
        day_start = start + timedelta(days=day_no)
        for spec in specs.values():
            activations.extend(
                draw_daily_activations(
                    spec, day_start, rng, household_id=config.factory_id
                )
            )
    activations.sort(key=lambda a: a.start)

    base = factory_base_load(config, axis, rng)
    per_process = ApplianceSeries(activations, specs, axis, f"{config.factory_id}-")
    total_values = per_process.add_into(base.values.copy())
    shadow_config = HouseholdConfig(
        household_id=config.factory_id,
        appliances=config.processes,
        occupants=1,
        standby_kw=config.floor_load_kw,
        activity_peak_kw=config.shift_load_kw,
        fridge_average_kw=0.0,
        noise_std_kw=config.noise_std_kw,
    )
    return HouseholdTrace(
        config=shadow_config,
        axis=axis,
        total=TimeSeries(axis, total_values, name=f"{config.factory_id}-total"),
        base_load=base,
        per_appliance=per_process,
        activations=activations,
    )
