"""The Peak-based extraction approach (paper §3.2, Figure 5).

"The peak-based approach starts by detecting peaks in the 24-hour period of
the household consumption.  The peak detection process firstly calculates
the average daily consumption and considers only those peaks which have
energy amount greater than average during the whole period. ... Then the
peak filtering phase discards some peaks, which have the total energy amount
smaller than the flexible part of the day. ... The remaining candidate peaks
... are given probabilities of being selected depending on their size ...
and the single peak is randomly chosen depending on these probabilities.
Finally, the flex-offer is generated using the same methodology as in the
basic approach."

Context assumptions: more appliances run during consumption peaks, so peaks
are where flexibility lives; one flex-offer per consumer per day.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.api.registry import register_extractor
from repro.errors import ExtractionError
from repro.extraction.base import (
    DayCheckpoint,
    DayTrail,
    ExtractionResult,
    FlexibilityExtractor,
)
from repro.extraction.params import FlexOfferParams
from repro.timeseries.series import TimeSeries


@dataclass(frozen=True, slots=True)
class Peak:
    """A contiguous above-threshold run in a daily consumption series.

    ``size`` is the paper's "peak size": the total energy of the run's
    intervals.  Indices are relative to the day window the peak came from.
    """

    first: int
    length: int
    size: float
    highest: float

    @property
    def last(self) -> int:
        """Index of the final interval of the run (inclusive)."""
        return self.first + self.length - 1

    def indices(self) -> range:
        """Interval indices covered by the peak."""
        return range(self.first, self.first + self.length)


def detect_peaks(day_values: np.ndarray, threshold: float | None = None) -> list[Peak]:
    """Find contiguous runs strictly above ``threshold``.

    ``threshold`` defaults to the day's mean interval energy — the paper's
    "average daily consumption" line (drawn at ≈0.46 kWh in Figure 5).
    """
    values = np.asarray(day_values, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ExtractionError("day_values must be a non-empty vector")
    if threshold is None:
        threshold = float(values.mean())
    # Strictly above, with a relative epsilon so a constant series (whose
    # float mean can land a few ulps below the value) yields no peaks.
    epsilon = 1e-9 * max(1.0, abs(threshold))
    above = values > threshold + epsilon
    peaks: list[Peak] = []
    i = 0
    n = values.size
    while i < n:
        if not above[i]:
            i += 1
            continue
        j = i
        while j < n and above[j]:
            j += 1
        run = values[i:j]
        peaks.append(
            Peak(first=i, length=j - i, size=float(run.sum()), highest=float(run.max()))
        )
        i = j
    return peaks


def detect_day_peaks(days: np.ndarray) -> tuple[np.ndarray, list[list[Peak]]]:
    """:func:`detect_peaks` over every row of a ``(k, L)`` block of day windows.

    Returns the rows' energies and their peaks, each bitwise what the 1-D
    path gives: energies and means reduce along the contiguous last axis,
    and each peak's size and highest value reduce a ``(runs, length)``
    gather of the runs sharing its length — the same pairwise summation
    ``run.sum()`` does, never a ``reduceat`` or ``cumsum``.
    """
    days = np.asarray(days, dtype=np.float64)
    if days.ndim != 2 or days.shape[1] == 0:
        raise ExtractionError("days must be a (k, L) block with L >= 1")
    energies = days.sum(axis=1)
    means = days.mean(axis=1)
    above = np.zeros((days.shape[0], days.shape[1] + 2), dtype=np.int8)
    above[:, 1:-1] = days > (means + 1e-9 * np.maximum(1.0, np.abs(means)))[:, None]
    edges = np.diff(above, axis=1)
    rows, firsts = np.nonzero(edges == 1)
    lengths = np.nonzero(edges == -1)[1] - firsts
    sizes = np.empty(firsts.size)
    highest = np.empty(firsts.size)
    for length in np.unique(lengths).tolist():
        runs = np.flatnonzero(lengths == length)
        block = days[rows[runs, None], firsts[runs, None] + np.arange(length)]
        sizes[runs] = block.sum(axis=1)
        highest[runs] = block.max(axis=1)
    peaks = [
        Peak(first=first, length=length, size=size, highest=high)
        for first, length, size, high in zip(
            firsts.tolist(), lengths.tolist(), sizes.tolist(), highest.tolist()
        )
    ]
    bounds = np.searchsorted(rows, np.arange(days.shape[0] + 1)).tolist()
    return energies, [peaks[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@dataclass(frozen=True, slots=True)
class DayPeaks:
    """One day window's detection: its energy and its above-mean runs."""

    index: int
    first: int
    length: int
    energy: float
    peaks: list[Peak]


def filter_peaks(peaks: list[Peak], flexible_energy: float) -> list[Peak]:
    """Discard peaks whose total energy is smaller than the flexible part.

    Figure 5: with a 5 % flexible share the day's flexible energy is
    ``39.02 × 0.05 = 1.951`` kWh and peaks 1–5 and 8 are discarded because
    their sizes fall below it.
    """
    return [p for p in peaks if p.size >= flexible_energy]


def selection_probabilities(peaks: list[Peak]) -> np.ndarray:
    """Size-proportional selection probabilities (Figure 5: 29 % / 71 %)."""
    if not peaks:
        return np.zeros(0)
    sizes = np.array([p.size for p in peaks], dtype=np.float64)
    total = sizes.sum()
    if total <= 0.0:
        return np.full(len(peaks), 1.0 / len(peaks))
    return sizes / total


def select_peak(peaks: list[Peak], rng: np.random.Generator) -> Peak:
    """Randomly choose one peak with size-proportional probability."""
    if not peaks:
        raise ExtractionError("cannot select from an empty peak list")
    probs = selection_probabilities(peaks)
    return peaks[int(rng.choice(len(peaks), p=probs))]


@register_extractor(
    "peak-based",
    input="metered",
    level="household",
    summary="One flex-offer per day on a size-sampled consumption peak (§3.2)",
)
@dataclass(frozen=True)
class PeakBasedExtractor(FlexibilityExtractor):
    """One flex-offer per day, positioned on a size-sampled consumption peak.

    Parameters
    ----------
    params:
        Attribute variation limits; ``params.flexible_share`` drives both the
        peak filter threshold and the extracted energy.
    fallback_to_largest:
        When no peak survives filtering (tiny consumption days), fall back to
        the largest detected peak instead of skipping the day.
    """

    params: FlexOfferParams = field(default_factory=FlexOfferParams)
    fallback_to_largest: bool = False
    consumer_id: str = ""

    name: str = "peak-based"

    def extract(self, series: TimeSeries, rng: np.random.Generator) -> ExtractionResult:
        """Extract one offer per 24-hour window of the input series."""
        return self.formulate(series, self.detect_many([series])[0], rng)

    def detect_many(
        self, series: Sequence[TimeSeries], first_days: Sequence[int] | None = None
    ) -> list[list[DayPeaks]]:
        """Detect the peaks of every day of many series in one batch.

        Series ``i`` is detected from day ``first_days[i]`` (default 0) on.
        Day windows of equal length — every full day of every series, and
        each short last day with the others of its length — are stacked
        into one block for :func:`detect_day_peaks`.  Detection reads the
        input series: a day's offer only changes its own window, after
        the day was detected.
        """
        detected: list[list[DayPeaks]] = [[] for _ in series]
        windows: dict[int, list[tuple[int, int, int]]] = {}
        for position, s in enumerate(series):
            start = first_days[position] if first_days is not None else 0
            for day, (first, length) in enumerate(s.axis.day_slices()[start:], start):
                windows.setdefault(length, []).append((position, day, first))
        for length, days in windows.items():
            block = np.stack(
                [series[position].values[first : first + length] for position, _, first in days]
            )
            energies, peaks = detect_day_peaks(block)
            for (position, day, first), energy, day_peaks in zip(
                days, energies.tolist(), peaks
            ):
                detected[position].append(DayPeaks(day, first, length, energy, day_peaks))
        for days in detected:
            days.sort(key=lambda day: day.index)
        return detected

    def formulate(
        self,
        series: TimeSeries,
        detected: list[DayPeaks],
        rng: np.random.Generator,
        checkpoint: DayCheckpoint | None = None,
    ) -> ExtractionResult:
        """Formulate the offers of the detected days (the per-day RNG part).

        From a ``checkpoint`` the generator, the earlier days' offers and
        the modified prefix are restored and only the later days run; the
        caller mints ids after the checkpoint's (see
        :func:`~repro.flexoffer.model.offer_id_scope`).  The result is the
        cold run's either way, except that ``extras["days"]`` reports only
        the days formulated.  ``extras["trail"]`` is the run's
        :class:`~repro.extraction.base.DayTrail`.
        """
        axis = series.axis
        modified = series.values.copy()
        offers = []
        marks = []
        start = 0
        if checkpoint is not None:
            start = checkpoint.day
            modified[: checkpoint.modified.size] = checkpoint.modified
            offers = list(checkpoint.offers)
            marks = list(checkpoint.marks[:start])
            rng.bit_generator.state = checkpoint.rng_state
        day_reports = []
        for day in detected:
            if day.index < start:
                continue
            marks.append((rng.bit_generator.state, len(offers)))
            first = day.first
            window = modified[first : first + day.length]
            day_energy = day.energy
            flexible_energy = self.params.flexible_share * day_energy
            peaks = day.peaks
            candidates = filter_peaks(peaks, flexible_energy)
            report = {
                "day_start": axis.time_at(first),
                "day_energy": day_energy,
                "flexible_energy": flexible_energy,
                "peaks": peaks,
                "candidates": candidates,
                "probabilities": selection_probabilities(candidates),
            }
            day_reports.append(report)
            if not candidates:
                if not self.fallback_to_largest or not peaks:
                    continue
                candidates = [max(peaks, key=lambda p: p.size)]
                report["candidates"] = candidates
                report["probabilities"] = selection_probabilities(candidates)
            chosen = select_peak(candidates, rng)
            report["chosen"] = chosen
            offer, removal = self._formulate(
                axis, first, window, chosen, flexible_energy, rng
            )
            if offer is None:
                continue
            window[chosen.first : chosen.first + chosen.length] -= removal
            offers.append(offer)
        return ExtractionResult(
            offers=offers,
            modified=series.with_values(modified).with_name(f"{series.name}.modified"),
            original=series,
            extractor=self.name,
            extras={"days": day_reports, "trail": DayTrail(tuple(marks), modified)},
        )

    def _formulate(
        self,
        axis,
        day_first: int,
        window: np.ndarray,
        peak: Peak,
        flexible_energy: float,
        rng: np.random.Generator,
    ):
        """Formulate the day's offer on the chosen peak (basic methodology).

        The profile covers the peak's intervals (bounded by the params'
        slice budget, centred on the peak's heaviest stretch); slice energies
        follow the consumption shape over the peak scaled to the flexible
        energy, capped at available consumption.
        """
        max_slices = min(self.params.slices_max, peak.length)
        n_slices = max(min(self.params.draw_slice_count(rng), max_slices), 1)
        # Choose the heaviest contiguous n_slices stretch within the peak.
        peak_values = window[peak.first : peak.first + peak.length]
        if peak.length == n_slices:
            offset = 0
        else:
            sums = np.convolve(peak_values, np.ones(n_slices), mode="valid")
            offset = int(np.argmax(sums))
        block = peak_values[offset : offset + n_slices]
        block_energy = float(block.sum())
        if block_energy <= 0.0:
            return None, None
        shape = block / block_energy
        energies = np.minimum(shape * flexible_energy, block)
        if float(energies.sum()) <= 0.0:
            return None, None
        earliest = axis.time_at(day_first + peak.first + offset)
        offer = self.params.build_offer(
            earliest_start=earliest,
            slice_energies=energies,
            rng=rng,
            source=self.name,
            consumer_id=self.consumer_id,
        )
        removal = np.zeros(peak.length)
        removal[offset : offset + n_slices] = energies
        return offer, removal
