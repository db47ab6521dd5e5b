"""The Schedule-based appliance-level extraction approach (paper §4.2).

Extends the frequency-based extractor with mined habits: "the usage of the
appliances is not uniform, thus, the exact schedule of the usage of each
appliance can be derived" — e.g. "the dishwasher is more used during the
weekends since the family eats at home more often".

:class:`ScheduleBasedExtractor` subclasses
:class:`~repro.extraction.frequency_based.FrequencyBasedExtractor` and
overrides two steps only.  Detection also mines per-appliance usage
schedules (day-type × time-of-day windows) from the same disaggregated runs.
Formulation is the frequency-based one "based on the given schedule": an
offer's start-time flexibility is confined to the habit window the run
belongs to, rather than the generic manufacturer flexibility — the
household will not run the dishwasher at 4 AM just because the battery
manual allows it.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Any

from repro.api.registry import register_extractor
from repro.appliances.model import ApplianceSpec
from repro.disaggregation.matching import DetectionResult
from repro.disaggregation.schedule_mining import (
    MinedSchedule,
    check_mining_knobs,
    count_day_types,
    mine_schedule,
)
from repro.errors import DataError, ExtractionError
from repro.extraction.frequency_based import (
    OFFER_GRID,
    FrequencyBasedExtractor,
    FrequencyDetection,
    _snap,
    observation_days,
)
from repro.simulation.activations import Activation
from repro.timeseries.calendar import DailyWindow, day_type, minutes_since_midnight
from repro.timeseries.series import TimeSeries


@dataclass(frozen=True)
class ScheduleDetection(FrequencyDetection):
    """Step-1 output: the frequency-based shortlist plus mined habit schedules,
    one per flexible shortlisted appliance."""

    schedules: dict[str, MinedSchedule]

    def extras(self) -> dict[str, Any]:
        return {**super().extras(), "schedules": self.schedules}


@register_extractor(
    "schedule-based",
    input="total",
    strict_grid=True,
    level="appliance",
    summary="Disaggregate and confine flexibility to mined habit windows (§4.2)",
)
@dataclass(frozen=True)
class ScheduleBasedExtractor(FrequencyBasedExtractor):
    """Appliance-level extraction with habit-confined time flexibility.

    The frequency-based extractor with two schedule-mining knobs (smoothing
    width and the window threshold factor): detection also mines each
    flexible appliance's habit schedule, and an offer's start window is the
    habit window its run belongs to.
    """

    smoothing_minutes: int = 90
    threshold_factor: float = 1.5

    name: str = "schedule-based"

    def __post_init__(self) -> None:
        super().__post_init__()
        try:
            check_mining_knobs(self.smoothing_minutes, self.threshold_factor)
        except DataError as exc:
            raise ExtractionError(str(exc)) from exc

    def _detected(self, series: TimeSeries, detection: DetectionResult) -> ScheduleDetection:
        """The shortlist plus the mined schedule of every flexible entry."""
        table = super()._detected(series, detection).table
        day_counts = count_day_types(series.axis.start.date(), observation_days(series))
        schedules = {
            entry.appliance: mine_schedule(
                detection.detections,
                entry.appliance,
                day_counts,
                smoothing_minutes=self.smoothing_minutes,
                threshold_factor=self.threshold_factor,
            )
            for entry in table.flexible_entries()
        }
        return ScheduleDetection(detection=detection, table=table, schedules=schedules)

    def _start_window(
        self,
        act: Activation,
        spec: ApplianceSpec,
        detected: ScheduleDetection,
        grid_start: datetime,
    ) -> tuple[datetime, timedelta]:
        """Earliest start and flexibility confined to the run's habit window.

        Finds the mined window (for the run's day type) containing the run's
        start; the offer may start anywhere in that window such that the
        cycle still fits inside it, additionally capped by the manufacturer
        flexibility.  Runs outside every mined window keep the generic
        manufacturer flexibility anchored at the observed start (frequency-
        based fallback).
        """
        mined = detected.schedules[act.appliance]
        dtype = day_type(act.start.date())
        start_minute = minutes_since_midnight(act.start)
        window = _containing_window(mined.windows.get(dtype, []), start_minute)
        day_anchor = act.start.replace(hour=0, minute=0, second=0, microsecond=0)
        snapped_start = day_anchor + OFFER_GRID * ((act.start - day_anchor) // OFFER_GRID)
        if window is None:
            return snapped_start, spec.time_flexibility
        w_start = day_anchor + timedelta(
            minutes=window.start.hour * 60 + window.start.minute
        )
        width = window.duration()
        cycle = act.duration
        slack = width - cycle
        if slack <= timedelta(0):
            # Window narrower than the cycle: the habit pins the start.
            return snapped_start, timedelta(0)
        flexibility = _snap(min(slack, spec.time_flexibility), OFFER_GRID)
        # Anchor so the observed start is always inside [earliest, latest]:
        # earliest = max(window start, observed − flexibility) guarantees
        # earliest <= observed <= earliest + flexibility.
        earliest = max(w_start, snapped_start - flexibility)
        # Snap earliest onto the metering grid (floor).  Flooring can move
        # earliest up to one interval earlier than intended, so widen the
        # flexibility to keep the observed start inside the window.
        offset = earliest - day_anchor
        earliest = day_anchor + OFFER_GRID * (offset // OFFER_GRID)
        flexibility = max(flexibility, snapped_start - earliest)
        return earliest, flexibility


def _containing_window(windows: list[DailyWindow], minute: int) -> DailyWindow | None:
    """The first window containing the given minute-of-day, if any."""
    from datetime import time

    probe = time(minute // 60, minute % 60)
    for window in windows:
        if window.contains(probe):
            return window
    return None
