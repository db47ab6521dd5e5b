"""Scheduled (assigned) flex-offers and their materialisation to time series.

Scheduling fixes the two degrees of freedom a flex-offer leaves open: the
start time (within ``[earliest_start, latest_start]``) and the per-slice
energy (within each slice's ``[energy_min, energy_max]``).  A scheduled
flex-offer can then be rendered back onto a metering grid as plain energy
consumption, which is how MIRABEL folds accepted offers into the demand plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from repro.errors import SchedulingError, ValidationError
from repro.flexoffer.model import FlexOffer
from repro.timeseries.axis import TimeAxis
from repro.timeseries.series import TimeSeries
from repro.wire import wire_format

_ENERGY_TOLERANCE = 1e-9


@wire_format("schedule")
@dataclass(frozen=True, slots=True)
class ScheduledFlexOffer:
    """A flex-offer with a concrete start time and per-slice energies."""

    offer: FlexOffer
    start: datetime
    slice_energies: tuple[float, ...]

    def __post_init__(self) -> None:
        fo = self.offer
        if not fo.earliest_start <= self.start <= fo.latest_start:
            raise ValidationError(
                f"start {self.start} outside [{fo.earliest_start}, {fo.latest_start}]"
            )
        if len(self.slice_energies) != len(fo.slices):
            raise ValidationError(
                f"expected {len(fo.slices)} slice energies, got {len(self.slice_energies)}"
            )
        for i, (energy, sl) in enumerate(zip(self.slice_energies, fo.slices)):
            if not sl.energy_min - _ENERGY_TOLERANCE <= energy <= sl.energy_max + _ENERGY_TOLERANCE:
                raise ValidationError(
                    f"slice {i} energy {energy} outside [{sl.energy_min}, {sl.energy_max}]"
                )
        tmin, tmax = fo.effective_total_bounds()
        total = sum(self.slice_energies)
        if not tmin - _ENERGY_TOLERANCE <= total <= tmax + _ENERGY_TOLERANCE:
            raise ValidationError(
                f"total energy {total} outside effective bounds [{tmin}, {tmax}]"
            )

    @property
    def end(self) -> datetime:
        """Timestamp at which the scheduled profile finishes."""
        return self.start + self.offer.duration

    @property
    def total_energy(self) -> float:
        """Total scheduled energy (kWh)."""
        return float(sum(self.slice_energies))

    def interval_energies(self) -> np.ndarray:
        """Per-interval energies, spreading multi-interval slices evenly."""
        energies = np.array(self.slice_energies, dtype=np.float64)
        durations = self.offer.slice_arrays()[2]
        if durations.size == self.offer.slice_expansion_arrays()[0].size:
            return energies  # unit slices: energy / 1 == energy
        return np.repeat(energies / durations, durations)

    def to_series(self, axis: TimeAxis) -> TimeSeries:
        """Render the schedule onto ``axis`` as energy per interval.

        Intervals of the schedule falling outside the axis raise
        :class:`SchedulingError` — a schedule must be fully representable on
        the planning horizon it is placed on.
        """
        series = TimeSeries.zeros(axis, name=self.offer.offer_id)
        add_to_series(self, series)
        return series


def add_to_series(schedule: ScheduledFlexOffer, series: TimeSeries) -> None:
    """Accumulate a schedule's energy into an existing series (in place)."""
    first, energies = _placement(schedule, series.axis)
    series.values[first : first + len(energies)] += energies


def schedules_to_series(
    schedules: list[ScheduledFlexOffer], axis: TimeAxis, name: str = "scheduled-demand"
) -> TimeSeries:
    """Sum many schedules onto one axis (the aggregate demand plan).

    Bitwise the :func:`add_to_series` loop: every interval sums its
    schedules' energies from zero in schedule order, since ``np.add.at``
    applies repeated indices in order.  The first schedule off the axis
    raises what ``add_to_series`` raises for it.
    """
    series = TimeSeries.zeros(axis, name=name)
    if not schedules:
        return series
    placed = [_placement(schedule, axis) for schedule in schedules]
    lengths = np.array([energies.size for _, energies in placed])
    firsts = np.array([first for first, _ in placed])
    ends = np.cumsum(lengths)
    index = np.arange(int(ends[-1])) + np.repeat(firsts - (ends - lengths), lengths)
    np.add.at(series.values, index, np.concatenate([energies for _, energies in placed]))
    return series


def _placement(schedule: ScheduledFlexOffer, axis: TimeAxis) -> tuple[int, np.ndarray]:
    """A schedule's first interval on ``axis`` and its interval energies;
    raises :class:`SchedulingError` unless it lies wholly on the axis."""
    if not axis.contains(schedule.start):
        raise SchedulingError(
            f"schedule start {schedule.start} outside axis [{axis.start}, {axis.end})"
        )
    first = axis.index_of(schedule.start)
    energies = schedule.interval_energies()
    if first + len(energies) > axis.length:
        raise SchedulingError(
            f"schedule for {schedule.offer.offer_id} overruns the axis end"
        )
    return first, energies


def default_schedule(
    offer: FlexOffer, start: datetime | None = None, level: float = 0.5
) -> ScheduledFlexOffer:
    """A canonical feasible schedule for an offer.

    Starts at ``start`` (default: the earliest start) and sets every slice to
    ``min + level * (max - min)``, then nudges the energies proportionally if
    explicit total-energy bounds are tighter than the per-slice sums.

    Raises :class:`SchedulingError` when no feasible energy vector exists
    (which :class:`FlexOffer` validation normally prevents).
    """
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"level must be in [0, 1], got {level}")
    if start is None:
        start = offer.earliest_start
    energies = np.array(
        [sl.energy_min + level * (sl.energy_max - sl.energy_min) for sl in offer.slices]
    )
    tmin, tmax = offer.effective_total_bounds()
    total = float(energies.sum())
    if total < tmin or total > tmax:
        target = float(np.clip(total, tmin, tmax))
        energies = _redistribute(energies, target, offer)
    return ScheduledFlexOffer(offer, start, tuple(float(e) for e in energies))


def _redistribute(energies: np.ndarray, target: float, offer: FlexOffer) -> np.ndarray:
    """Adjust a slice-energy vector to sum to ``target`` within slice bounds.

    Water-filling: move the shortfall/excess across slices proportionally to
    their remaining slack, iterating because slices saturate.
    """
    lo = np.array([sl.energy_min for sl in offer.slices])
    hi = np.array([sl.energy_max for sl in offer.slices])
    if not lo.sum() - _ENERGY_TOLERANCE <= target <= hi.sum() + _ENERGY_TOLERANCE:
        raise SchedulingError(
            f"target energy {target} infeasible for bounds [{lo.sum()}, {hi.sum()}]"
        )
    x = np.clip(energies, lo, hi)
    for _ in range(len(x) * 2 + 4):
        gap = target - float(x.sum())
        if abs(gap) <= _ENERGY_TOLERANCE:
            break
        slack = (hi - x) if gap > 0 else (x - lo)
        total_slack = float(slack.sum())
        if total_slack <= _ENERGY_TOLERANCE:
            break
        step = np.sign(gap) * slack * min(1.0, abs(gap) / total_slack)
        x = np.clip(x + step, lo, hi)
    return x
