"""Multi-tariff billing and the behavioural response to it.

Paper §3.3: "consumers change their electricity consumption behavior when the
multi-tariff (also called variable rate) billing system is introduced ...
they delay the flexible usage (e.g., washing machine) to the low tariff time
(e.g., after 10PM)".

The paper could not evaluate its multi-tariff extractor because it lacked
paired one-tariff/multi-tariff series from the same consumers.  This module
produces exactly that pair: the *same* household (same base load, same
activation energies) simulated once under a flat tariff and once under a
night tariff with a configurable behavioural response rate.  The set of
shifted activations is retained as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, time, timedelta

import numpy as np

from repro.appliances.database import ApplianceDatabase, default_database
from repro.errors import ValidationError
from repro.simulation.activations import Activation, ApplianceSeries
from repro.simulation.household import HouseholdConfig, HouseholdTrace, simulate_household
from repro.timeseries.calendar import DailyWindow
from repro.timeseries.series import TimeSeries


@dataclass(frozen=True, slots=True)
class TariffScheme:
    """An electricity tariff: flat, or time-of-use with low-price windows."""

    name: str
    low_windows: tuple[DailyWindow, ...] = ()
    high_price: float = 0.30
    low_price: float = 0.15

    def __post_init__(self) -> None:
        if self.high_price < self.low_price:
            raise ValidationError("high_price must be >= low_price")

    @property
    def is_flat(self) -> bool:
        """True when the scheme has a single price all day."""
        return not self.low_windows

    def is_low(self, when: datetime) -> bool:
        """True when ``when`` falls in a low-price window."""
        return any(w.contains(when) for w in self.low_windows)

    def price_at(self, when: datetime) -> float:
        """Unit price at ``when``."""
        return self.low_price if self.is_low(when) else self.high_price


def night_tariff() -> TariffScheme:
    """The classic night tariff: cheap 22:00–06:00 (paper's 'after 10PM')."""
    return TariffScheme(
        name="night", low_windows=(DailyWindow(time(22, 0), time(6, 0)),)
    )


@dataclass(frozen=True, slots=True)
class ShiftRecord:
    """Ground truth for one behavioural shift: the run before and after."""

    original: Activation
    shifted: Activation

    @property
    def delay(self) -> timedelta:
        """How far the run moved (can wrap to the next morning)."""
        return self.shifted.start - self.original.start


def shift_into_low_window(
    activation: Activation, scheme: TariffScheme, rng: np.random.Generator
) -> Activation:
    """Move an activation's start into the next low-tariff period.

    The new start is uniform within the first low window that begins at or
    after the original start (wrapping to the next day when needed), matching
    the paper's intuition of "delaying" usage to cheap hours.
    """
    if scheme.is_flat:
        return activation
    # Scan forward minute-by-minute for the next low-price minute.
    probe = activation.start.replace(second=0, microsecond=0)
    for _ in range(2 * 24 * 60):
        if scheme.is_low(probe):
            break
        probe += timedelta(minutes=1)
    else:  # pragma: no cover - schemes always have a low window here
        return activation
    # Uniform offset within the remaining window.
    window_minutes = 0
    scan = probe
    while scheme.is_low(scan) and window_minutes < 24 * 60:
        window_minutes += 1
        scan += timedelta(minutes=1)
    offset = int(rng.integers(0, max(1, window_minutes)))
    return activation.shifted(probe + timedelta(minutes=offset) - activation.start)


@dataclass(frozen=True)
class TariffStudy:
    """Paired one-tariff / multi-tariff traces of the same household."""

    single: HouseholdTrace
    multi: HouseholdTrace
    scheme: TariffScheme
    shifts: list[ShiftRecord] = field(default_factory=list)

    @property
    def shifted_energy_kwh(self) -> float:
        """Total ground-truth energy moved into low-tariff windows."""
        return float(sum(rec.original.energy_kwh for rec in self.shifts))

    def cost(self, trace: HouseholdTrace) -> float:
        """Billing cost of a trace under this study's (multi-)tariff."""
        total = 0.0
        for when, energy in trace.metered():
            total += energy * self.scheme.price_at(when)
        return total


def simulate_tariff_pair(
    config: HouseholdConfig,
    start: datetime,
    days: int,
    rng: np.random.Generator,
    scheme: TariffScheme | None = None,
    response_rate: float = 0.7,
    database: ApplianceDatabase | None = None,
) -> TariffStudy:
    """Simulate the same household under flat and multi-tariff billing.

    The multi-tariff trace reuses the flat trace's base load and activation
    energies; each *flexible* activation that starts at a high-price time is
    delayed into the next low window with probability ``response_rate``.
    """
    if not 0.0 <= response_rate <= 1.0:
        raise ValidationError("response_rate must be in [0, 1]")
    scheme = scheme or night_tariff()
    database = database or default_database()
    single = simulate_household(config, start, days, rng, database)

    specs = {name: database.get(name) for name in config.appliances}
    shifted_activations: list[Activation] = []
    shifts: list[ShiftRecord] = []
    for act in single.activations:
        should_shift = (
            act.flexible
            and not scheme.is_low(act.start)
            and rng.random() < response_rate
        )
        if should_shift:
            moved = shift_into_low_window(act, scheme, rng)
            if moved.start >= single.axis.end:
                # The delayed run falls off the simulated horizon; the
                # consumer "skips" it (metering window effect).
                continue
            shifted_activations.append(moved)
            shifts.append(ShiftRecord(original=act, shifted=moved))
        else:
            shifted_activations.append(act)
    shifted_activations.sort(key=lambda a: a.start)

    per_appliance = ApplianceSeries(
        shifted_activations, specs, single.axis, f"{config.household_id}-", "-tou"
    )
    total_values = per_appliance.add_into(single.base_load.values.copy())
    multi = HouseholdTrace(
        config=config,
        axis=single.axis,
        total=TimeSeries(single.axis, total_values, name=f"{config.household_id}-total-tou"),
        base_load=single.base_load,
        per_appliance=per_appliance,
        activations=shifted_activations,
    )
    return TariffStudy(single=single, multi=multi, scheme=scheme, shifts=shifts)
