"""The Multi-tariff extraction approach (paper §3.3).

"The multi-tariff approach firstly analyzes one tariff time series to
estimate the usual consumption of a consumer.  It can calculate the typical
behavior during the work days, weekends, holidays, different seasons of the
year, etc.  Then, the extraction approach takes multi-tariff time series and
detects the flexible consumption in it by comparing with the typical
consumption in one tariff."

The paper could not run this approach ("we do not have the required time
series"); here the paired series come from
:func:`repro.simulation.tariff.simulate_tariff_pair`, so the approach is
implemented and evaluated end to end.

Outputs follow the paper's contract: the one-tariff series is passed through
unchanged (``extras["reference"]``), flex-offers are extracted from the
multi-tariff series, and the modified multi-tariff series has the flexible
energy subtracted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.registry import register_extractor
from repro.errors import ExtractionError
from repro.extraction.base import ExtractionResult, FlexibilityExtractor
from repro.extraction.params import FlexOfferParams
from repro.simulation.tariff import TariffScheme, night_tariff
from repro.timeseries.calendar import DayType, day_type
from repro.timeseries.series import TimeSeries


def typical_daily_profiles_by_day_type(
    reference: TimeSeries,
) -> dict[DayType, np.ndarray]:
    """Mean daily profile of the reference series per day type.

    Days are grouped by :func:`repro.timeseries.calendar.day_type`; each
    group's profile is the per-interval *mean*.  The mean (not the median)
    matters here: sparse appliance runs (a washing machine three times a
    week) appear in the mean profile as their average energy mass, so a
    behavioural shift away from the usual hours shows up as a *deficit*
    against the typical profile.  A median would hide sparse usage entirely
    and the deficit side of the comparison would vanish.
    Day types never observed fall back to the overall mean profile.
    """
    per_day = reference.axis.intervals_per_day
    whole = reference.axis.length // per_day
    if whole < 1:
        raise ExtractionError("reference series must cover at least one full day")
    matrix = reference.values[: whole * per_day].reshape(whole, per_day)
    groups: dict[DayType, list[int]] = {t: [] for t in DayType}
    for day_no in range(whole):
        date = (reference.axis.start + reference.axis.resolution * (day_no * per_day)).date()
        groups[day_type(date)].append(day_no)
    overall = matrix.mean(axis=0)
    profiles = {}
    for dtype, rows in groups.items():
        profiles[dtype] = matrix[rows].mean(axis=0) if rows else overall.copy()
    return profiles


@register_extractor(
    "multi-tariff",
    input="metered",
    level="household",
    summary="Detect tariff-induced load shifting vs a one-tariff reference (§3.3)",
)
@dataclass(frozen=True)
class MultiTariffExtractor(FlexibilityExtractor):
    """Detect tariff-induced load shifting by comparison with typical days.

    Parameters
    ----------
    reference:
        One-tariff historical series of the *same* consumer (used only as
        the behavioural reference, exactly as the paper specifies).
    scheme:
        The multi-tariff scheme in force during the observed series.
    params:
        Flex-offer attribute variation limits.
    min_shift_kwh:
        Days with less detected shifted energy than this produce no offer
        (avoids formulating offers out of noise).
    """

    reference: TimeSeries
    scheme: TariffScheme = field(default_factory=night_tariff)
    params: FlexOfferParams = field(default_factory=FlexOfferParams)
    min_shift_kwh: float = 0.25
    max_offers_per_day: int = 3

    name: str = "multi-tariff"

    def extract(self, series: TimeSeries, rng: np.random.Generator) -> ExtractionResult:
        """Extract offers from a multi-tariff series day by day."""
        if series.axis.resolution != self.reference.axis.resolution:
            raise ExtractionError(
                "observed and reference series must share a resolution"
            )
        profiles = typical_daily_profiles_by_day_type(self.reference)
        axis = series.axis
        per_day = axis.intervals_per_day
        low_mask = self._low_tariff_mask(axis)

        modified = series.values.copy()
        offers = []
        day_reports = []
        for first, length in axis.day_slices():
            if length < per_day:
                continue  # partial trailing day: not comparable to a profile
            date = axis.time_at(first).date()
            typical = profiles[day_type(date)]
            window = modified[first : first + length]
            day_low = low_mask[first : first + length]
            delta = window - typical
            excess_low = np.where(day_low, np.clip(delta, 0.0, None), 0.0)
            deficit_high = np.where(~day_low, np.clip(-delta, 0.0, None), 0.0)
            shifted = float(min(excess_low.sum(), deficit_high.sum()))
            day_reports.append(
                {
                    "day_start": axis.time_at(first),
                    "excess_low_kwh": float(excess_low.sum()),
                    "deficit_high_kwh": float(deficit_high.sum()),
                    "shifted_kwh": shifted,
                }
            )
            if shifted < self.min_shift_kwh:
                continue
            budget = shifted
            for _ in range(self.max_offers_per_day):
                if budget < self.min_shift_kwh:
                    break
                offer, removal = self._formulate(
                    axis, first, excess_low, deficit_high, budget, rng
                )
                if offer is None:
                    break
                window -= removal
                excess_low -= removal
                budget -= float(removal.sum())
                offers.append(offer)
        return ExtractionResult(
            offers=offers,
            modified=series.with_values(modified).with_name(f"{series.name}.modified"),
            original=series,
            extractor=self.name,
            extras={
                "reference": self.reference,
                "typical_profiles": profiles,
                "days": day_reports,
            },
        )

    def _low_tariff_mask(self, axis) -> np.ndarray:
        """Boolean mask of intervals whose start lies in a low-price window."""
        return np.array([self.scheme.is_low(t) for t in axis.times()])

    def _formulate(
        self,
        axis,
        day_first: int,
        excess_low: np.ndarray,
        deficit_high: np.ndarray,
        shifted: float,
        rng: np.random.Generator,
    ):
        """Formulate the day's offer on the dominant low-tariff excess run.

        The offer's profile sits where the shifted consumption was observed
        (the excess run); its start-time flexibility spans from where the
        consumption *would* have been under flat pricing (the dominant
        high-tariff deficit run) to the observed position — that is the
        behaviourally demonstrated shiftability.
        """
        run_first, run_length = _dominant_run(excess_low)
        if run_length == 0:
            return None, None
        run_length = min(run_length, self.params.slices_max)
        run = excess_low[run_first : run_first + run_length]
        run_energy = float(run.sum())
        if run_energy <= 0.0:
            return None, None
        energy = min(run_energy, shifted)
        energies = run * (energy / run_energy)

        deficit_first, deficit_length = _dominant_run(deficit_high)
        observed_index = day_first + run_first
        if deficit_length == 0:
            flexibility = self.params.draw_time_flexibility(rng, axis.resolution)
            earliest = axis.time_at(observed_index)
        else:
            deficit_index = day_first + deficit_first
            lo = min(deficit_index, observed_index)
            hi = max(deficit_index, observed_index)
            earliest = axis.time_at(lo)
            flexibility = axis.resolution * (hi - lo)
        offer = self.params.build_offer(
            earliest_start=earliest,
            slice_energies=energies,
            rng=rng,
            source=self.name,
            resolution=axis.resolution,
            time_flexibility=flexibility,
        )
        removal = np.zeros_like(excess_low)
        removal[run_first : run_first + run_length] = energies
        return offer, removal


def _dominant_run(values: np.ndarray) -> tuple[int, int]:
    """(first, length) of the contiguous positive run with the most energy."""
    best_first, best_length, best_energy = 0, 0, 0.0
    i = 0
    n = len(values)
    while i < n:
        if values[i] <= 0.0:
            i += 1
            continue
        j = i
        while j < n and values[j] > 0.0:
            j += 1
        energy = float(values[i:j].sum())
        if energy > best_energy:
            best_first, best_length, best_energy = i, j - i, energy
        i = j
    return best_first, best_length
