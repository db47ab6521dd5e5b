"""Tests for the multi-tariff extraction approach (§3.3)."""

from __future__ import annotations

from datetime import timedelta

import numpy as np
import pytest

from repro.errors import ExtractionError
from repro.extraction.multitariff import (
    MultiTariffExtractor,
    typical_daily_profiles_by_day_type,
)
from repro.extraction.params import FlexOfferParams
from repro.timeseries.calendar import DayType
from repro.timeseries.resample import downsample_sum
from repro.timeseries.axis import FIFTEEN_MINUTES, ONE_HOUR


class TestTypicalProfiles:
    def test_profiles_for_all_day_types(self, tariff_pair):
        profiles = typical_daily_profiles_by_day_type(tariff_pair.single.metered())
        assert set(profiles) == set(DayType)
        for profile in profiles.values():
            assert profile.shape == (96,)
            assert (profile >= 0).all()

    def test_mean_profile_carries_sparse_usage(self, tariff_pair):
        """The mean keeps washer/dishwasher mass that a median would drop."""
        profiles = typical_daily_profiles_by_day_type(tariff_pair.single.metered())
        workday = profiles[DayType.WORKDAY]
        reference = tariff_pair.single.metered()
        per_day = reference.axis.intervals_per_day
        whole = reference.axis.length // per_day
        matrix = reference.values[: whole * per_day].reshape(whole, per_day)
        median = np.median(matrix, axis=0)
        # Appliance mass makes the mean strictly heavier than the median.
        assert workday.sum() > median.sum()

    def test_too_short_reference_raises(self, tariff_pair):
        short = tariff_pair.single.metered().slice(0, 50)
        with pytest.raises(ExtractionError):
            typical_daily_profiles_by_day_type(short)


class TestMultiTariffExtractor:
    @pytest.fixture()
    def extraction(self, tariff_pair):
        extractor = MultiTariffExtractor(
            reference=tariff_pair.single.metered(), scheme=tariff_pair.scheme
        )
        return extractor.extract(tariff_pair.multi.metered(), np.random.default_rng(0))

    def test_energy_conservation(self, extraction):
        assert extraction.energy_conservation_error() < 1e-6

    def test_reference_passed_through_unchanged(self, extraction, tariff_pair):
        """Paper: 'outputs unchanged historical time series ... one tariff'."""
        assert extraction.extras["reference"] == tariff_pair.single.metered()

    def test_offers_touch_low_tariff_windows(self, extraction, tariff_pair):
        """One end of each offer's start window is the observed low-tariff run.

        (Which end depends on whether the behavioural shift wrapped past
        midnight: an evening run delayed into the small hours shows up in the
        *next* day window, where the deficit lies later than the excess.)
        """
        scheme = tariff_pair.scheme
        assert extraction.offers
        for offer in extraction.offers:
            assert scheme.is_low(offer.earliest_start) or scheme.is_low(offer.latest_start)

    def test_recovers_majority_of_shifted_energy(self, extraction, tariff_pair):
        true_shift = tariff_pair.shifted_energy_kwh
        assert true_shift > 0
        assert extraction.extracted_energy >= 0.4 * true_shift
        assert extraction.extracted_energy <= 1.5 * true_shift

    def test_time_flexibility_spans_shift(self, extraction):
        """Offers demonstrate behavioural shiftability: non-trivial windows."""
        flexes = [o.time_flexibility for o in extraction.offers]
        assert max(flexes) >= timedelta(hours=1)

    @pytest.mark.parametrize("grid", [timedelta(minutes=30), ONE_HOUR], ids=["30min", "60min"])
    def test_offers_sit_on_a_coarser_input_grid(self, tariff_pair, grid):
        """Offers are sliced on the grid of the series they came from."""
        observed = downsample_sum(tariff_pair.multi.metered(), grid)
        extractor = MultiTariffExtractor(
            reference=downsample_sum(tariff_pair.single.metered(), grid),
            scheme=tariff_pair.scheme,
        )
        result = extractor.extract(observed, np.random.default_rng(0))
        assert result.offers
        assert result.energy_conservation_error() < 1e-6
        for offer in result.offers:
            assert offer.resolution == grid
            assert (offer.earliest_start - observed.axis.start) % grid == timedelta(0)
            assert offer.time_flexibility % grid == timedelta(0)

    def test_modified_series_nonnegative(self, extraction):
        assert extraction.modified.is_nonnegative()

    def test_no_response_no_offers(self, tariff_pair):
        """Extracting from the *unchanged* series finds ~nothing."""
        extractor = MultiTariffExtractor(
            reference=tariff_pair.single.metered(), scheme=tariff_pair.scheme
        )
        result = extractor.extract(tariff_pair.single.metered(), np.random.default_rng(0))
        # Day-to-day noise can produce a few small offers, but the energy
        # must be far below what the behavioural shift produces.
        shifted = MultiTariffExtractor(
            reference=tariff_pair.single.metered(), scheme=tariff_pair.scheme
        ).extract(tariff_pair.multi.metered(), np.random.default_rng(0))
        assert result.extracted_energy < 0.5 * max(shifted.extracted_energy, 1e-9)

    def test_resolution_mismatch_rejected(self, tariff_pair):
        hourly_ref = downsample_sum(tariff_pair.single.metered(), ONE_HOUR)
        extractor = MultiTariffExtractor(reference=hourly_ref, scheme=tariff_pair.scheme)
        with pytest.raises(ExtractionError):
            extractor.extract(tariff_pair.multi.metered(), np.random.default_rng(0))

    def test_max_offers_per_day_cap(self, tariff_pair):
        extractor = MultiTariffExtractor(
            reference=tariff_pair.single.metered(),
            scheme=tariff_pair.scheme,
            max_offers_per_day=1,
        )
        result = extractor.extract(tariff_pair.multi.metered(), np.random.default_rng(0))
        days = 28
        assert len(result.offers) <= days

    def test_day_reports_in_extras(self, extraction):
        days = extraction.extras["days"]
        assert len(days) == 28
        for report in days:
            assert report["shifted_kwh"] <= report["excess_low_kwh"] + 1e-9
            assert report["shifted_kwh"] <= report["deficit_high_kwh"] + 1e-9
