"""The Schedule-based appliance-level extraction approach (paper §4.2).

Extends the frequency-based approach with mined habits: "the usage of the
appliances is not uniform, thus, the exact schedule of the usage of each
appliance can be derived" — e.g. "the dishwasher is more used during the
weekends since the family eats at home more often".

Step 1 derives the shortlist *and* per-appliance usage schedules (day-type ×
time-of-day windows); step 2 formulates flex-offers "based on the given
schedule": an offer's start-time flexibility is confined to the habit window
the run belongs to, rather than the generic manufacturer flexibility — the
household will not run the dishwasher at 4 AM just because the battery
manual allows it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Sequence

import numpy as np

from repro.appliances.database import ApplianceDatabase, default_database
from repro.disaggregation.frequency import FrequencyTable, estimate_frequencies
from repro.disaggregation.matching import DetectionResult, MatchingConfig
from repro.api.registry import register_extractor
from repro.disaggregation.schedule_mining import MinedSchedule, count_day_types, mine_schedule
from repro.extraction.base import ExtractionResult, FlexibilityExtractor
from repro.extraction.frequency_based import (
    _snap,
    detect_appliances,
    observation_days,
    slice_energies_on_grid,
)
from repro.extraction.params import FlexOfferParams
from repro.flexoffer.model import FlexOffer
from repro.simulation.activations import Activation
from repro.timeseries.axis import TimeAxis
from repro.timeseries.calendar import DailyWindow, day_type, minutes_since_midnight
from repro.timeseries.series import TimeSeries


@dataclass(frozen=True)
class ScheduleDetection:
    """Step-1 output: shortlist plus mined habit schedules.

    Splitting detection from offer formulation lets the fleet pipeline time
    (and fan out) the expensive disaggregation stage separately.
    """

    detection: DetectionResult
    table: FrequencyTable
    schedules: dict[str, MinedSchedule]


@register_extractor(
    "schedule-based",
    input="total",
    strict_grid=True,
    level="appliance",
    summary="Disaggregate and confine flexibility to mined habit windows (§4.2)",
)
@dataclass(frozen=True)
class ScheduleBasedExtractor(FlexibilityExtractor):
    """Appliance-level extraction with habit-confined time flexibility.

    Parameters mirror :class:`FrequencyBasedExtractor`, plus schedule-mining
    knobs (smoothing width and the window threshold factor).
    """

    database: ApplianceDatabase = field(default_factory=default_database)
    params: FlexOfferParams = field(default_factory=FlexOfferParams)
    matching: MatchingConfig = field(default_factory=MatchingConfig)
    min_detections: int = 2
    baseline_window_minutes: int = 150
    baseline_quantile: float = 0.15
    smoothing_minutes: int = 90
    threshold_factor: float = 1.5

    name: str = "schedule-based"

    def extract(self, series: TimeSeries, rng: np.random.Generator) -> ExtractionResult:
        """Extract habit-aware appliance-level offers from a 1-minute series."""
        return self.formulate(series, self.detect(series), rng)

    def detect(self, series: TimeSeries) -> ScheduleDetection:
        """Step 1: disaggregate and mine per-appliance habit schedules."""
        return self.detect_many([series])[0]

    def detect_many(self, series: Sequence[TimeSeries]) -> list[ScheduleDetection]:
        """Step 1 over many households, disaggregated in lockstep."""
        detections = detect_appliances(
            series,
            self.database,
            self.matching,
            self.baseline_window_minutes,
            self.baseline_quantile,
        )
        return [self._mine(s, detection) for s, detection in zip(series, detections)]

    def _mine(self, series: TimeSeries, detection: DetectionResult) -> ScheduleDetection:
        days = observation_days(series)
        table = estimate_frequencies(
            detection.detections, self.database, days, self.min_detections
        )
        day_counts = count_day_types(series.axis.start.date(), days)
        schedules: dict[str, MinedSchedule] = {
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

    def formulate(
        self,
        series: TimeSeries,
        detected: ScheduleDetection,
        rng: np.random.Generator,
    ) -> ExtractionResult:
        """Step 2: habit-confined flex-offers from the detected activations."""
        modified = series.values.copy()
        offers: list[FlexOffer] = []
        for act in detected.detection.detections:
            if act.appliance not in detected.schedules:
                continue
            offer = self._formulate(
                series.axis, modified, act, detected.schedules[act.appliance], rng
            )
            if offer is not None:
                offers.append(offer)
        return ExtractionResult(
            offers=offers,
            modified=series.with_values(modified).with_name(f"{series.name}.modified"),
            original=series,
            extractor=self.name,
            extras={
                "shortlist": detected.table,
                "detection": detected.detection,
                "schedules": detected.schedules,
            },
        )

    def _formulate(
        self,
        axis: TimeAxis,
        modified: np.ndarray,
        act: Activation,
        mined: MinedSchedule,
        rng: np.random.Generator,
    ) -> FlexOffer | None:
        """One habit-confined offer for one detected run."""
        spec = self.database.get(act.appliance)
        start_minute = axis.index_of(act.start)
        template = spec.energy_profile_minutes(
            float(np.clip(act.energy_kwh, spec.energy_min_kwh, spec.energy_max_kwh))
        )
        n = min(len(template), axis.length - start_minute)
        window = modified[start_minute : start_minute + n]
        removal = np.minimum(template[:n], np.clip(window, 0.0, None))
        if float(removal.sum()) <= 1e-9:
            return None
        grid_index, energies = slice_energies_on_grid(removal, start_minute)
        energies = np.trim_zeros(energies, trim="b")
        if energies.size == 0:
            return None
        window -= removal

        earliest, flexibility = self._habit_bounds(act, mined, spec.time_flexibility)
        band = (
            spec.energy_min_kwh / float(removal.sum()),
            spec.energy_max_kwh / float(removal.sum()),
        )
        band = (min(band[0], 1.0), max(band[1], 1.0))
        return self.params.build_offer(
            earliest_start=earliest,
            slice_energies=energies,
            rng=rng,
            source=self.name,
            consumer_id=act.household_id,
            appliance=act.appliance,
            time_flexibility=_snap(flexibility, self.params.resolution),
            energy_band=band,
        )

    def _habit_bounds(
        self, act: Activation, mined: MinedSchedule, spec_flexibility: timedelta
    ) -> tuple[datetime, timedelta]:
        """Earliest start and flexibility confined to the run's habit window.

        Finds the mined window (for the run's day type) containing the run's
        start; the offer may start anywhere in that window such that the
        cycle still fits inside it, additionally capped by the manufacturer
        flexibility.  Runs outside every mined window keep the generic
        manufacturer flexibility anchored at the observed start (frequency-
        based fallback).
        """
        dtype = day_type(act.start.date())
        start_minute = minutes_since_midnight(act.start)
        window = _containing_window(mined.windows.get(dtype, []), start_minute)
        day_anchor = act.start.replace(hour=0, minute=0, second=0, microsecond=0)
        grid = self.params.resolution
        snapped_start = day_anchor + grid * (
            (act.start - day_anchor) // grid
        )
        if window is None:
            return snapped_start, spec_flexibility
        w_start = day_anchor + timedelta(
            minutes=window.start.hour * 60 + window.start.minute
        )
        width = window.duration()
        cycle = act.duration
        slack = width - cycle
        if slack <= timedelta(0):
            # Window narrower than the cycle: the habit pins the start.
            return snapped_start, timedelta(0)
        flexibility = _snap(min(slack, spec_flexibility), grid)
        # Anchor so the observed start is always inside [earliest, latest]:
        # earliest = max(window start, observed − flexibility) guarantees
        # earliest <= observed <= earliest + flexibility.
        earliest = max(w_start, snapped_start - flexibility)
        # Snap earliest onto the metering grid (floor).  Flooring can move
        # earliest up to one interval earlier than intended, so widen the
        # flexibility to keep the observed start inside the window.
        offset = earliest - day_anchor
        earliest = day_anchor + grid * (offset // grid)
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
