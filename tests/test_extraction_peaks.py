"""Tests for the peak-based approach, including the exact Figure 5 numbers."""

from __future__ import annotations

from collections import Counter
from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.errors import ExtractionError
from repro.extraction.params import FlexOfferParams
from repro.extraction.peaks import (
    PeakBasedExtractor,
    detect_day_peaks,
    detect_peaks,
    filter_peaks,
    select_peak,
    selection_probabilities,
)
from repro.flexoffer.validate import PolicyLimits, check_all
from repro.timeseries.axis import TimeAxis
from repro.timeseries.series import TimeSeries
from repro.workloads.paper_day import (
    FIGURE5_DAY_TOTAL,
    FIGURE5_FILTER_THRESHOLD,
    FIGURE5_FLEX_SHARE,
    FIGURE5_PEAK_SIZES,
    figure5_day,
)


class TestPeakDetection:
    def test_simple_peak(self):
        values = np.array([1.0, 1.0, 5.0, 5.0, 1.0, 1.0])
        peaks = detect_peaks(values)
        assert len(peaks) == 1
        peak = peaks[0]
        assert peak.first == 2
        assert peak.length == 2
        assert peak.size == 10.0
        assert peak.highest == 5.0
        assert peak.last == 3
        assert list(peak.indices()) == [2, 3]

    def test_no_peaks_on_constant(self):
        assert detect_peaks(np.ones(10)) == []

    def test_custom_threshold(self):
        values = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
        peaks = detect_peaks(values, threshold=2.5)
        assert len(peaks) == 1
        assert peaks[0].size == 3.0

    def test_peak_at_edges(self):
        values = np.array([5.0, 1.0, 1.0, 1.0, 5.0])
        peaks = detect_peaks(values)
        assert len(peaks) == 2
        assert peaks[0].first == 0
        assert peaks[1].first == 4

    def test_empty_rejected(self):
        with pytest.raises(ExtractionError):
            detect_peaks(np.array([]))


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def _expected_days(series: TimeSeries) -> list[tuple]:
    """The 1-D path's view of every day: index, window, energy bits, peaks."""
    out = []
    for day, (first, length) in enumerate(series.axis.day_slices()):
        window = series.values[first : first + length]
        out.append((day, first, length, _bits(window.sum()), detect_peaks(window)))
    return out


def _batched_days(days) -> list[tuple]:
    return [(d.index, d.first, d.length, _bits(d.energy), d.peaks) for d in days]


def _edge_days(rng: np.random.Generator, per_day: int) -> np.ndarray:
    """Random days plus constant, all-zero, edge-touching and tail-zero ones."""
    random_days = rng.exponential(0.3, size=(4, per_day))
    constant = np.full(per_day, 0.7)
    zero = np.zeros(per_day)
    edges = rng.uniform(0.0, 0.1, per_day)
    edges[:5] = rng.uniform(1.0, 2.0, 5)
    edges[-9:] = rng.uniform(1.0, 2.0, 9)
    tail = rng.exponential(0.3, per_day)
    tail[per_day // 4 :] = 0.0
    return np.concatenate([*random_days, constant, zero, edges, tail])


class TestDetectMany:
    """Batched detection equals the 1-D per-day path exactly."""

    @pytest.mark.parametrize("seed", range(5))
    def test_every_day_matches_detect_peaks(self, seed):
        rng = np.random.default_rng(seed)
        axis = TimeAxis(datetime(2024, 3, 4), timedelta(minutes=15), 8 * 96)
        series = [TimeSeries(axis, _edge_days(rng, 96)) for _ in range(3)]
        detected = PeakBasedExtractor().detect_many(series)
        for s, days in zip(series, detected):
            assert _batched_days(days) == _expected_days(s)

    def test_runs_touching_both_day_edges(self):
        values = np.array([2.0, 2.0, 0.0, 0.0, 3.0] * 2 + [0.0, 0.0, 1.0, 4.0])
        energies, peaks = detect_day_peaks(values.reshape(2, 7))
        for row, day in enumerate(values.reshape(2, 7)):
            assert peaks[row] == detect_peaks(day)
            assert _bits(energies[row]) == _bits(day.sum())
        assert peaks[0][0].first == 0 and peaks[0][-1].last == 6

    def test_constant_zero_and_nan_days(self):
        block = np.array([np.full(96, 0.4), np.zeros(96), np.full(96, np.nan)])
        block[2, :50] = 1.0
        energies, peaks = detect_day_peaks(block)
        assert peaks == [detect_peaks(day) for day in block] == [[], [], []]
        assert energies[:2].tolist() == [block[0].sum(), 0.0]
        assert np.isnan(energies[2])

    def test_short_last_day_and_mixed_lengths(self):
        rng = np.random.default_rng(7)
        start = datetime(2024, 3, 4)
        series = [
            TimeSeries(TimeAxis(start, timedelta(minutes=15), length), rng.exponential(0.3, length))
            for length in (2 * 96 + 40, 96, 3 * 96, 17)
        ]
        series.append(
            TimeSeries(TimeAxis(start, timedelta(hours=1), 24 * 2 + 5), rng.exponential(1.0, 53))
        )
        detected = PeakBasedExtractor().detect_many(series)
        for s, days in zip(series, detected):
            assert _batched_days(days) == _expected_days(s)
        assert [d.length for d in detected[0]] == [96, 96, 40]

    def test_first_days_skip_the_earlier_days(self):
        rng = np.random.default_rng(3)
        axis = TimeAxis(datetime(2024, 3, 4), timedelta(minutes=15), 4 * 96 + 10)
        series = [TimeSeries(axis, rng.exponential(0.3, axis.length)) for _ in range(3)]
        detected = PeakBasedExtractor().detect_many(series, [0, 2, 4])
        for s, days, start in zip(series, detected, [0, 2, 4]):
            assert _batched_days(days) == _expected_days(s)[start:]

    def test_rejects_an_empty_block(self):
        with pytest.raises(ExtractionError):
            detect_day_peaks(np.zeros((2, 0)))


class TestFilterAndSelect:
    def test_filter_keeps_large(self):
        values = np.array([0.0, 3.0, 0.0, 1.5, 0.0])
        peaks = detect_peaks(values, threshold=1.0)
        kept = filter_peaks(peaks, 2.0)
        assert [p.size for p in kept] == [3.0]

    def test_probabilities_proportional(self):
        values = np.array([0.0, 1.0, 0.0, 3.0, 0.0])
        peaks = detect_peaks(values, threshold=0.5)
        probs = selection_probabilities(peaks)
        assert probs == pytest.approx([0.25, 0.75])

    def test_select_empirical_frequencies(self):
        values = np.array([0.0, 1.0, 0.0, 3.0, 0.0])
        peaks = detect_peaks(values, threshold=0.5)
        rng = np.random.default_rng(0)
        counts = Counter(select_peak(peaks, rng).first for _ in range(4000))
        assert counts[3] / 4000 == pytest.approx(0.75, abs=0.03)

    def test_select_empty_raises(self):
        with pytest.raises(ExtractionError):
            select_peak([], np.random.default_rng(0))


class TestFigure5Walkthrough:
    """Every number printed in the paper's Figure 5, reproduced exactly."""

    @pytest.fixture()
    def day(self):
        return figure5_day()

    def test_day_total_is_3902(self, day):
        assert day.series.total() == pytest.approx(39.02)

    def test_eight_peaks_with_printed_sizes(self, day):
        peaks = detect_peaks(day.series.values)
        assert len(peaks) == 8
        assert [round(p.size, 2) for p in peaks] == list(FIGURE5_PEAK_SIZES)

    def test_flexible_part_is_1951(self, day):
        flexible = FIGURE5_FLEX_SHARE * day.series.total()
        assert flexible == pytest.approx(1.951)
        assert flexible == pytest.approx(FIGURE5_FILTER_THRESHOLD)

    def test_peaks_1_to_5_and_8_discarded(self, day):
        peaks = detect_peaks(day.series.values)
        survivors = filter_peaks(peaks, FIGURE5_FILTER_THRESHOLD)
        assert [round(p.size, 2) for p in survivors] == [2.22, 5.47]
        discarded = [p for p in peaks if p not in survivors]
        assert sorted(round(p.size, 2) for p in discarded) == sorted(
            [0.47, 1.5, 0.48, 0.48, 1.85, 0.48]
        )

    def test_probabilities_29_71(self, day):
        peaks = filter_peaks(detect_peaks(day.series.values), FIGURE5_FILTER_THRESHOLD)
        probs = selection_probabilities(peaks)
        # Paper prints 29 % and 71 % (2.22/7.69 and 5.47/7.69).
        assert probs[0] == pytest.approx(0.29, abs=0.005)
        assert probs[1] == pytest.approx(0.71, abs=0.005)

    def test_monte_carlo_selection_matches(self, day):
        peaks = filter_peaks(detect_peaks(day.series.values), FIGURE5_FILTER_THRESHOLD)
        rng = np.random.default_rng(42)
        picks = Counter(round(select_peak(peaks, rng).size, 2) for _ in range(5000))
        assert picks[5.47] / 5000 == pytest.approx(0.71, abs=0.02)


class TestPeakBasedExtractor:
    def test_one_offer_per_day(self, paper_day, rng):
        extractor = PeakBasedExtractor(params=FlexOfferParams(flexible_share=0.05))
        result = extractor.extract(paper_day.series, rng)
        assert len(result.offers) == 1

    def test_extracted_energy_is_flexible_part(self, paper_day, rng):
        extractor = PeakBasedExtractor(params=FlexOfferParams(flexible_share=0.05))
        result = extractor.extract(paper_day.series, rng)
        assert result.extracted_energy == pytest.approx(1.951, rel=1e-6)
        assert result.energy_conservation_error() < 1e-9

    def test_offer_positioned_on_surviving_peak(self, paper_day):
        extractor = PeakBasedExtractor(params=FlexOfferParams(flexible_share=0.05))
        day = paper_day
        surviving_firsts = {68, 76}  # peaks 6 and 7
        for seed in range(10):
            result = extractor.extract(day.series, np.random.default_rng(seed))
            offer = result.offers[0]
            start_index = day.series.axis.index_of(offer.earliest_start)
            # Offer must start within one of the surviving peaks.
            assert any(f <= start_index <= f + 5 for f in surviving_firsts)

    def test_modified_series_nonnegative(self, paper_day, rng):
        extractor = PeakBasedExtractor(params=FlexOfferParams(flexible_share=0.05))
        result = extractor.extract(paper_day.series, rng)
        assert result.modified.is_nonnegative()

    def test_offer_attributes_within_limits(self, paper_day, rng):
        params = FlexOfferParams(flexible_share=0.05)
        extractor = PeakBasedExtractor(params=params)
        result = extractor.extract(paper_day.series, rng)
        limits = PolicyLimits(
            max_slices=params.slices_max,
            max_time_flexibility=params.time_flexibility_max,
        )
        assert check_all(result.offers, limits) == []

    def test_multi_day_extraction(self, fleet, rng):
        extractor = PeakBasedExtractor(params=FlexOfferParams(flexible_share=0.05))
        trace = fleet.traces[0]
        result = extractor.extract(trace.metered(), rng)
        assert len(result.offers) <= 7  # at most one per day
        assert result.energy_conservation_error() < 1e-6

    def test_tiny_day_no_offer_without_fallback(self, day_axis, rng):
        from repro.timeseries.series import TimeSeries

        # Flat day: no above-mean run can beat the filter threshold.
        series = TimeSeries.full(day_axis, 0.3)
        extractor = PeakBasedExtractor(params=FlexOfferParams(flexible_share=0.05))
        result = extractor.extract(series, rng)
        assert result.offers == []

    def test_fallback_to_largest(self, day_axis, rng):
        from repro.timeseries.series import TimeSeries
        import numpy as np

        values = np.full(day_axis.length, 0.3)
        values[40] = 0.5  # one small peak, below the filter threshold
        series = TimeSeries(day_axis, values)
        extractor = PeakBasedExtractor(
            params=FlexOfferParams(flexible_share=0.05), fallback_to_largest=True
        )
        result = extractor.extract(series, rng)
        assert len(result.offers) == 1

    def test_extras_day_reports(self, paper_day, rng):
        extractor = PeakBasedExtractor(params=FlexOfferParams(flexible_share=0.05))
        result = extractor.extract(paper_day.series, rng)
        days = result.extras["days"]
        assert len(days) == 1
        assert days[0]["day_energy"] == pytest.approx(39.02)
        assert len(days[0]["peaks"]) == 8
        assert len(days[0]["candidates"]) == 2
