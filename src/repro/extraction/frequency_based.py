"""The Frequency-based appliance-level extraction approach (paper §4.1).

Step 1 "applies various data mining and machine learning algorithms to
derive which appliance and how frequently was used", producing "a shortlist
of the possibly used appliances, their usage frequency, and the time
flexibility".  Step 2 "takes the original historical time series and the
shortlist, and it distributes possible 'activations' of the appliances
respecting the usage frequencies", emitting one flex-offer per appliance use
and subtracting the flexible energy from the series.

The paper left the implementation as future work because its data was
15-minute; the simulator provides the sub-15-minute granularity §4 requires,
so the approach is implemented end to end here: baseline removal → matching-
pursuit disaggregation → frequency table → per-activation flex-offers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from numbers import Integral
from typing import Any, Sequence

import numpy as np

from repro.appliances.database import ApplianceDatabase, default_database
from repro.appliances.model import ApplianceSpec
from repro.disaggregation.baseline import check_baseline_knobs, remove_baseline
from repro.disaggregation.frequency import FrequencyTable, estimate_frequencies
from repro.api.registry import register_extractor
from repro.disaggregation.matching import (
    DetectionResult,
    MatchingConfig,
    match_pursuit,
    pursuit_tile,
)
from repro.errors import DataError, ExtractionError
from repro.extraction.base import ExtractionResult, FlexibilityExtractor
from repro.extraction.params import FlexOfferParams
from repro.flexoffer.model import FlexOffer
from repro.simulation.activations import Activation
from repro.timeseries.axis import FIFTEEN_MINUTES, ONE_MINUTE, TimeAxis
from repro.timeseries.series import TimeSeries


#: The metering grid every appliance-level offer is bucketed onto: its slice
#: width, and the step its start and flexibility snap to.
OFFER_GRID = FIFTEEN_MINUTES


def detect_appliances(
    series: Sequence[TimeSeries],
    database: ApplianceDatabase,
    matching: MatchingConfig | None = None,
    baseline_window_minutes: int = 150,
    baseline_quantile: float = 0.15,
) -> list[DetectionResult]:
    """Step 1 of every appliance-level approach, over many households.

    Checks the §4 granularity requirement, removes each series' base load
    and disaggregates the appliance components in one lockstep matching
    pursuit (:func:`~repro.disaggregation.matching.pursuit_tile`), one
    :func:`~repro.disaggregation.matching.match_pursuit` call per household.
    """
    if any(s.axis.resolution != ONE_MINUTE for s in series):
        raise ExtractionError(
            "appliance-level extraction requires 1-minute data "
            "(the paper's §4 granularity requirement)"
        )
    appliance = [
        remove_baseline(s, baseline_window_minutes, baseline_quantile)[0] for s in series
    ]
    with pursuit_tile(appliance, database, matching):
        return [match_pursuit(s, database, matching) for s in appliance]


def observation_days(series: TimeSeries) -> int:
    """Whole days a series covers (at least one)."""
    return max(1, series.axis.length // series.axis.intervals_per_day)


def slice_energies_on_grid(
    removal_minutes: np.ndarray, start_minute_index: int
) -> tuple[int, np.ndarray]:
    """Bucket a per-minute removal vector onto :data:`OFFER_GRID`.

    Returns ``(grid_index, slice_energies)`` where ``grid_index`` is the
    index of the first 15-minute interval the profile touches and
    ``slice_energies[k]`` the energy in grid interval ``grid_index + k``.
    """
    minutes_per_slice = OFFER_GRID // ONE_MINUTE
    grid_index = start_minute_index // minutes_per_slice
    lead = start_minute_index % minutes_per_slice
    padded = np.concatenate([np.zeros(lead), removal_minutes])
    n_slices = int(np.ceil(len(padded) / minutes_per_slice))
    padded = np.concatenate([padded, np.zeros(n_slices * minutes_per_slice - len(padded))])
    return grid_index, padded.reshape(n_slices, minutes_per_slice).sum(axis=1)


@dataclass(frozen=True)
class FrequencyDetection:
    """Step-1 output: the disaggregation context step 2 formulates from.

    Splitting detection from offer formulation lets the fleet pipeline time
    (and fan out) the expensive disaggregation stage separately.
    """

    detection: DetectionResult
    table: FrequencyTable

    def extras(self) -> dict[str, Any]:
        """The extraction result's ``extras``: everything step 1 found."""
        return {"shortlist": self.table, "detection": self.detection}


@register_extractor(
    "frequency-based",
    input="total",
    strict_grid=True,
    level="appliance",
    summary="Disaggregate, estimate usage frequencies, emit per-run offers (§4.1)",
)
@dataclass(frozen=True)
class FrequencyBasedExtractor(FlexibilityExtractor):
    """Two-step appliance-level extraction: detect appliances, emit offers.

    Parameters
    ----------
    database:
        Appliance specifications (the "context information" of §4.1: the
        manufacturer catalogue).
    params:
        Flex-offer attribute limits (deadline draws; energy bands come from
        the appliance's own Table 1 range).
    matching:
        Disaggregation configuration.
    min_detections:
        Appliances detected fewer times are dropped from the shortlist.
    baseline_window_minutes / baseline_quantile:
        Base-load removal knobs (see :mod:`repro.disaggregation.baseline`).
    """

    database: ApplianceDatabase = field(default_factory=default_database)
    params: FlexOfferParams = field(default_factory=FlexOfferParams)
    matching: MatchingConfig = field(default_factory=MatchingConfig)
    min_detections: int = 2
    baseline_window_minutes: int = 150
    baseline_quantile: float = 0.15

    name: str = "frequency-based"

    def __post_init__(self) -> None:
        """Reject malformed appliance-level knobs before any detection runs."""
        value = self.min_detections
        if not isinstance(value, Integral) or isinstance(value, bool) or value < 1:
            raise ExtractionError(f"min_detections must be an integer >= 1, got {value!r}")
        try:
            check_baseline_knobs(
                self.baseline_window_minutes, self.baseline_quantile, prefix="baseline_"
            )
        except DataError as exc:
            raise ExtractionError(str(exc)) from exc

    def extract(self, series: TimeSeries, rng: np.random.Generator) -> ExtractionResult:
        """Extract appliance-level offers from a 1-minute series."""
        return self.formulate(series, self.detect(series), rng)

    def detect(self, series: TimeSeries) -> FrequencyDetection:
        """Step 1: derive the appliance shortlist by disaggregation."""
        return self.detect_many([series])[0]

    def detect_many(self, series: Sequence[TimeSeries]) -> list[FrequencyDetection]:
        """Step 1 over many households, disaggregated in lockstep."""
        detections = detect_appliances(
            series,
            self.database,
            self.matching,
            self.baseline_window_minutes,
            self.baseline_quantile,
        )
        return [self._detected(s, detection) for s, detection in zip(series, detections)]

    def _detected(self, series: TimeSeries, detection: DetectionResult) -> FrequencyDetection:
        """One household's step-1 output from its disaggregated runs."""
        table = estimate_frequencies(
            detection.detections,
            self.database,
            observation_days(series),
            self.min_detections,
        )
        return FrequencyDetection(detection=detection, table=table)

    def formulate(
        self,
        series: TimeSeries,
        detected: FrequencyDetection,
        rng: np.random.Generator,
    ) -> ExtractionResult:
        """Step 2: one flex-offer per detected run of a flexible appliance."""
        flexible = {entry.appliance for entry in detected.table.flexible_entries()}
        modified = series.values.copy()
        offers: list[FlexOffer] = []
        for act in detected.detection.detections:
            if act.appliance not in flexible:
                continue
            offer = self._formulate(series.axis, modified, act, detected, rng)
            if offer is not None:
                offers.append(offer)
        return ExtractionResult(
            offers=offers,
            modified=series.with_values(modified).with_name(f"{series.name}.modified"),
            original=series,
            extractor=self.name,
            extras=detected.extras(),
        )

    def _formulate(
        self,
        axis: TimeAxis,
        modified: np.ndarray,
        act: Activation,
        detected: FrequencyDetection,
        rng: np.random.Generator,
    ) -> FlexOffer | None:
        """One offer for one detected appliance run; subtracts its energy.

        The removal is capped at the energy actually present per minute, and
        the offer's profile is built from the *removed* energy bucketed onto
        the 15-minute grid — so extraction is exactly conservative even when
        the detector slightly over-estimated the run.
        """
        spec = self.database.get(act.appliance)
        start_minute = axis.index_of(act.start)
        template = spec.energy_profile_minutes(
            float(np.clip(act.energy_kwh, spec.energy_min_kwh, spec.energy_max_kwh))
        )
        n = min(len(template), axis.length - start_minute)
        window = modified[start_minute : start_minute + n]
        removal = np.minimum(template[:n], np.clip(window, 0.0, None))
        removed_energy = float(removal.sum())
        if removed_energy <= 1e-9:
            return None
        grid_index, energies = slice_energies_on_grid(removal, start_minute)
        energies = np.trim_zeros(energies, trim="b")
        if energies.size == 0:
            return None
        window -= removal
        earliest, flexibility = self._start_window(
            act, spec, detected, axis.start + OFFER_GRID * grid_index
        )
        band = (
            spec.energy_min_kwh / removed_energy,
            spec.energy_max_kwh / removed_energy,
        )
        band = (min(band[0], 1.0), max(band[1], 1.0))
        return self.params.build_offer(
            earliest_start=earliest,
            slice_energies=energies,
            rng=rng,
            source=self.name,
            resolution=OFFER_GRID,
            consumer_id=act.household_id,
            appliance=act.appliance,
            time_flexibility=_snap(flexibility, OFFER_GRID),
            energy_band=band,
        )

    def _start_window(
        self,
        act: Activation,
        spec: ApplianceSpec,
        detected: FrequencyDetection,
        grid_start: datetime,
    ) -> tuple[datetime, timedelta]:
        """Earliest start and time flexibility of one run's offer.

        The earliest start is the grid interval containing the observed
        start; the flexibility is the appliance's known time flexibility
        (the §4.1 example: the vacuum robot's 22 hours).
        """
        return grid_start, spec.time_flexibility


def _snap(delta: timedelta, resolution: timedelta) -> timedelta:
    """Round a duration down to the metering grid."""
    return resolution * int(delta // resolution)
