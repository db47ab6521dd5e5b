"""An offer's slice width is the grid its energies were built on.

:meth:`FlexOfferParams.build_offer` and
:meth:`FlexOfferParams.draw_time_flexibility` take that grid as an argument;
there is no separate slice-width knob that could mislabel the offers.  The
extractor tests run each household-level approach on coarser input.
"""

from __future__ import annotations

from datetime import timedelta

import numpy as np
import pytest

from repro.errors import ExtractionError
from repro.extraction.params import FlexOfferParams
from repro.timeseries.axis import FIFTEEN_MINUTES, ONE_HOUR, ONE_MINUTE
from repro.workloads.paper_day import figure5_day

HALF_HOUR = timedelta(minutes=30)


class TestGridArgument:
    @pytest.mark.parametrize(
        "grid",
        [ONE_MINUTE, timedelta(minutes=5), timedelta(minutes=10), FIFTEEN_MINUTES,
         timedelta(minutes=20), HALF_HOUR, timedelta(minutes=45), ONE_HOUR,
         timedelta(hours=2), timedelta(hours=5)],
        ids=lambda g: f"{int(g / ONE_MINUTE)}min",
    )
    def test_time_flexibility_draw_is_aligned_and_in_range(self, grid):
        params = FlexOfferParams()
        rng = np.random.default_rng(7)
        draws = {params.draw_time_flexibility(rng, grid) for _ in range(200)}
        assert len(draws) > 1
        for flexibility in draws:
            assert flexibility % grid == timedelta(0)
            assert params.time_flexibility_min <= flexibility <= params.time_flexibility_max

    @pytest.mark.parametrize(
        "grid", [timedelta(hours=13), timedelta(days=1)],
        ids=lambda g: f"{int(g / ONE_MINUTE)}min",
    )
    def test_grid_with_no_flexibility_in_range_is_refused(self, grid):
        # No whole number of intervals lies in [1 h, 12 h].
        with pytest.raises(ExtractionError, match=str(grid)):
            FlexOfferParams().draw_time_flexibility(np.random.default_rng(7), grid)

    @pytest.mark.parametrize(
        "grid", [ONE_MINUTE, FIFTEEN_MINUTES, HALF_HOUR, ONE_HOUR],
        ids=lambda g: f"{int(g / ONE_MINUTE)}min",
    )
    def test_build_offer_labels_slices_with_the_given_grid(self, grid):
        params = FlexOfferParams()
        earliest = figure5_day().series.axis.time_at(40)
        energies = np.array([0.4, 0.25, 0.1])
        offer = params.build_offer(
            earliest, energies, np.random.default_rng(3), "test", grid
        )
        assert offer.resolution == grid
        assert offer.duration == 3 * grid
        assert offer.time_flexibility % grid == timedelta(0)
        assert sum(s.midpoint for s in offer.slices) == pytest.approx(energies.sum())
