"""Appliance activations: the ground-truth events behind a consumption series.

The simulator is *bottom-up* (paper §4 context assumption: "the consumption
time series is composed of the consumption of many appliances"): it first
draws discrete activation events per appliance per day, then materialises
their fine-grained energy profiles onto the metering grid.  Keeping the event
log around gives every experiment a ground truth that real smart-meter data
lacks — which is precisely the evaluation gap the paper laments.

The per-appliance series are not stored: :class:`ApplianceSeries` renders
each one from the event log whenever it is read, so a trace costs no more
memory than its metered total and base load.
"""

from __future__ import annotations

from collections.abc import Collection, Iterator, Mapping
from dataclasses import dataclass, replace
from datetime import datetime, timedelta

import numpy as np

from repro.appliances.model import ApplianceSpec
from repro.errors import DataError
from repro.timeseries.axis import ONE_MINUTE, TimeAxis
from repro.timeseries.calendar import day_type
from repro.timeseries.series import TimeSeries


@dataclass(frozen=True, slots=True)
class Activation:
    """One appliance run: who, when, how much.

    ``start`` is minute-aligned; ``energy_kwh`` is the cycle total; the
    duration comes from the appliance's profile shape.
    """

    appliance: str
    start: datetime
    energy_kwh: float
    duration: timedelta
    flexible: bool
    household_id: str = ""

    @property
    def end(self) -> datetime:
        """Timestamp at which the cycle finishes."""
        return self.start + self.duration

    def shifted(self, delta: timedelta) -> "Activation":
        """The same run moved in time (used by the tariff-response model)."""
        return replace(self, start=self.start + delta)


def draw_daily_activations(
    spec: ApplianceSpec,
    day_start: datetime,
    rng: np.random.Generator,
    household_id: str = "",
    frequency_scale: float = 1.0,
) -> list[Activation]:
    """Draw the activations of one appliance for one day.

    The count comes from the appliance's :class:`UsageFrequency` (Poisson,
    day-type aware, scaled by ``frequency_scale`` to model households that
    use an appliance more or less than typical); start minutes come from its
    :class:`UsageSchedule`; energies are uniform in the Table 1 range.
    """
    dtype = day_type(day_start.date())
    expected = spec.frequency.expected_uses(dtype) * frequency_scale
    count = int(rng.poisson(expected)) if expected > 0 else 0
    activations = []
    for _ in range(count):
        start_minute = spec.schedule.sample_start_minute(rng)
        activations.append(
            Activation(
                appliance=spec.name,
                start=day_start + timedelta(minutes=int(start_minute)),
                energy_kwh=spec.sample_energy(rng),
                duration=spec.cycle_duration,
                flexible=spec.flexible,
                household_id=household_id,
            )
        )
    return activations


def materialise(
    activations: list[Activation],
    specs: dict[str, ApplianceSpec],
    axis: TimeAxis,
) -> TimeSeries:
    """Render an activation log onto a 1-minute axis as energy per minute.

    Activations that extend past the axis end are truncated (their remaining
    energy falls outside the metering window, as with a real meter read).
    Activations starting before the axis raise :class:`DataError`.
    """
    if axis.resolution != ONE_MINUTE:
        raise DataError("materialise requires a 1-minute axis")
    values = np.zeros(axis.length)
    for act in activations:
        spec = specs.get(act.appliance)
        if spec is None:
            raise DataError(f"activation references unknown appliance {act.appliance!r}")
        if act.start < axis.start:
            raise DataError(f"activation at {act.start} precedes axis start {axis.start}")
        if act.start >= axis.end:
            continue
        first = axis.index_of(act.start)
        profile = spec.energy_profile_minutes(act.energy_kwh)
        n = min(len(profile), axis.length - first)
        values[first : first + n] += profile[:n]
    return TimeSeries(axis, values, name="appliance-energy-kwh")


class ApplianceSeries(Mapping[str, TimeSeries]):
    """Read-only per-appliance ground truth, rendered from the activation log.

    ``series[name]`` materialises the runs of appliance ``name`` onto
    ``axis`` and labels the result ``f"{prefix}{name}{suffix}"``.  Nothing is
    cached: each access renders afresh, so holding the mapping costs only the
    log it shares with its trace.  Keys are the appliances of ``specs`` in
    their order, including appliances that never ran (all-zero series).
    """

    __slots__ = ("_activations", "_specs", "_axis", "_prefix", "_suffix")

    def __init__(
        self,
        activations: list[Activation],
        specs: dict[str, ApplianceSpec],
        axis: TimeAxis,
        prefix: str = "",
        suffix: str = "",
    ) -> None:
        self._activations = activations
        self._specs = specs
        self._axis = axis
        self._prefix = prefix
        self._suffix = suffix

    def __getitem__(self, name: str) -> TimeSeries:
        return TimeSeries(
            self._axis, self._render(name), name=f"{self._prefix}{name}{self._suffix}"
        )

    def __contains__(self, name: object) -> bool:
        return name in self._specs  # without rendering, unlike Mapping's

    def __iter__(self) -> Iterator[str]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self._specs)!r})"

    def add_into(
        self, values: np.ndarray, names: Collection[str] | None = None
    ) -> np.ndarray:
        """Add the series of ``names`` (default: every appliance) into
        ``values`` in place, one appliance at a time in key order, and return
        ``values``.  This is the order the simulators sum their totals in."""
        for name in self._specs:
            if names is None or name in names:
                values += self._render(name)
        return values

    def _render(self, name: str) -> np.ndarray:
        if name not in self._specs:
            raise KeyError(name)
        runs = [a for a in self._activations if a.appliance == name]
        return materialise(runs, self._specs, self._axis).values


def total_energy(activations: list[Activation]) -> float:
    """Sum of activation energies (kWh)."""
    return float(sum(a.energy_kwh for a in activations))
