"""Tests for the basic approach (Figure 4) and the §3.1 parameter model."""

from __future__ import annotations

from datetime import timedelta

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.extraction.basic import BasicExtractor
from repro.extraction.params import FlexOfferParams
from repro.flexoffer.validate import PolicyLimits, check_all
from repro.timeseries.axis import FIFTEEN_MINUTES, ONE_HOUR
from repro.timeseries.resample import downsample_sum
from repro.workloads.paper_day import figure5_day


class TestFlexOfferParams:
    def test_defaults_valid(self):
        FlexOfferParams()

    def test_validation(self):
        with pytest.raises(ValidationError):
            FlexOfferParams(flexible_share=0.0)
        with pytest.raises(ValidationError):
            FlexOfferParams(flexible_share=1.5)
        with pytest.raises(ValidationError):
            FlexOfferParams(slices_min=0)
        with pytest.raises(ValidationError):
            FlexOfferParams(slices_min=9, slices_max=8)
        with pytest.raises(ValidationError):
            FlexOfferParams(energy_min_pct=(0.9, 0.7))
        with pytest.raises(ValidationError):
            FlexOfferParams(energy_max_pct=(0.9, 1.2))
        with pytest.raises(ValidationError, match="slices_max"):
            FlexOfferParams(slices_max=8.0)
        with pytest.raises(ValidationError, match="energy_min_pct"):
            FlexOfferParams(energy_min_pct=(0.8, 0.9, 0.95))
        with pytest.raises(ValidationError, match="creation_lead_max"):
            FlexOfferParams(creation_lead_max=36 * 3600)
        with pytest.raises(ValidationError):
            FlexOfferParams(
                time_flexibility_min=timedelta(hours=5),
                time_flexibility_max=timedelta(hours=1),
            )

    def test_draws_within_limits(self, rng):
        params = FlexOfferParams()
        for _ in range(100):
            n = params.draw_slice_count(rng)
            assert params.slices_min <= n <= params.slices_max
            low, high = params.draw_energy_band(rng)
            assert params.energy_min_pct[0] <= low <= params.energy_min_pct[1]
            assert params.energy_max_pct[0] <= high <= params.energy_max_pct[1]
            flex = params.draw_time_flexibility(rng, FIFTEEN_MINUTES)
            assert params.time_flexibility_min <= flex <= params.time_flexibility_max
            # Grid aligned:
            assert flex % FIFTEEN_MINUTES == timedelta(0)

    def test_deadline_lifecycle_order(self, rng):
        params = FlexOfferParams()
        earliest = figure5_day().series.axis.time_at(40)
        for _ in range(100):
            creation, acceptance, assignment = params.draw_deadlines(earliest, rng)
            assert creation <= acceptance <= assignment <= earliest

    def test_build_offer_conserves_midpoint(self, rng):
        params = FlexOfferParams()
        earliest = figure5_day().series.axis.time_at(10)
        energies = np.array([0.5, 0.3, 0.2])
        offer = params.build_offer(earliest, energies, rng, "test", FIFTEEN_MINUTES)
        midpoint_sum = sum(s.midpoint for s in offer.slices)
        assert midpoint_sum == pytest.approx(1.0)
        # Band ordering retained.
        for s in offer.slices:
            assert s.energy_min <= s.energy_max

    def test_build_offer_explicit_band_and_flex(self, rng):
        params = FlexOfferParams()
        earliest = figure5_day().series.axis.time_at(10)
        offer = params.build_offer(
            earliest,
            np.array([1.0]),
            rng,
            source="test",
            resolution=FIFTEEN_MINUTES,
            time_flexibility=timedelta(hours=3),
            energy_band=(0.5, 1.5),
        )
        assert offer.time_flexibility == timedelta(hours=3)
        # (0.5, 1.5) recentred on 1.0 stays (0.5, 1.5).
        assert offer.slices[0].energy_min == pytest.approx(0.5)
        assert offer.slices[0].energy_max == pytest.approx(1.5)

    def test_build_offer_rejects_bad_energies(self, rng):
        params = FlexOfferParams()
        earliest = figure5_day().series.axis.time_at(10)
        with pytest.raises(ValidationError):
            params.build_offer(earliest, np.array([]), rng, "t", FIFTEEN_MINUTES)
        with pytest.raises(ValidationError):
            params.build_offer(earliest, np.array([-0.1]), rng, "t", FIFTEEN_MINUTES)


class TestBasicExtractor:
    def test_four_offers_per_day(self, paper_day, rng):
        """Figure 4 shows four flex-offers, one per 6-hour period."""
        extractor = BasicExtractor(params=FlexOfferParams(flexible_share=0.05))
        result = extractor.extract(paper_day.series, rng)
        assert len(result.offers) == 4

    def test_energy_conservation(self, paper_day, rng):
        extractor = BasicExtractor(params=FlexOfferParams(flexible_share=0.05))
        result = extractor.extract(paper_day.series, rng)
        assert result.energy_conservation_error() < 1e-9
        assert result.extracted_share == pytest.approx(0.05, rel=0.05)

    def test_offers_in_their_own_periods(self, paper_day, rng):
        """Each Figure 4 offer occupies its own period of the time axis."""
        extractor = BasicExtractor(params=FlexOfferParams(flexible_share=0.05))
        result = extractor.extract(paper_day.series, rng)
        axis = paper_day.series.axis
        per_period = 24  # 6 h of 15-min intervals
        for k, offer in enumerate(result.offers):
            first = axis.index_of(offer.earliest_start)
            assert k * per_period <= first < (k + 1) * per_period

    def test_modified_nonnegative(self, paper_day, rng):
        extractor = BasicExtractor(params=FlexOfferParams(flexible_share=0.05))
        result = extractor.extract(paper_day.series, rng)
        assert result.modified.is_nonnegative()
        # Modified + extracted == original, interval-wise.
        recon = result.modified + result.extracted_series()
        assert recon.allclose(paper_day.series)

    def test_share_sweep_01_to_65_percent(self, paper_day):
        """The paper's [7] band: 0.1-6.5 % of consumption is flexible."""
        for share in (0.001, 0.01, 0.03, 0.065):
            extractor = BasicExtractor(params=FlexOfferParams(flexible_share=share))
            result = extractor.extract(paper_day.series, np.random.default_rng(1))
            assert result.extracted_share == pytest.approx(share, rel=0.05)

    def test_attributes_within_limits(self, paper_day, rng):
        params = FlexOfferParams(flexible_share=0.05)
        result = BasicExtractor(params=params).extract(paper_day.series, rng)
        limits = PolicyLimits(
            max_slices=params.slices_max,
            max_time_flexibility=params.time_flexibility_max,
        )
        assert check_all(result.offers, limits) == []

    def test_custom_period(self, paper_day, rng):
        extractor = BasicExtractor(
            params=FlexOfferParams(flexible_share=0.05), period_hours=12
        )
        result = extractor.extract(paper_day.series, rng)
        assert len(result.offers) == 2

    def test_period_validation(self):
        with pytest.raises(Exception):
            BasicExtractor(period_hours=0)

    def test_multiday(self, fleet, rng):
        extractor = BasicExtractor(params=FlexOfferParams(flexible_share=0.02))
        metered = fleet.traces[0].metered()
        for grid in (FIFTEEN_MINUTES, timedelta(minutes=30), ONE_HOUR):
            series = downsample_sum(metered, grid)
            result = extractor.extract(series, rng)
            assert len(result.offers) == pytest.approx(4 * 7, abs=3)
            assert result.energy_conservation_error() < 1e-6
            # Offers are sliced on the grid of the series they came from.
            for offer in result.offers:
                assert offer.resolution == grid
                assert (offer.earliest_start - series.axis.start) % grid == timedelta(0)
                assert offer.time_flexibility % grid == timedelta(0)
