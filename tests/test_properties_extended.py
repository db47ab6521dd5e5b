"""Extended property-based tests: scheduling, bucketing, hierarchy.

Complements ``test_properties.py`` with invariants on the newer substrates:
water-filling stays within bounds and tracks the target, per-minute→grid
bucketing conserves energy, and
aggregation composes hierarchically (aggregates of aggregates still
disaggregate exactly — the multi-level aggregation MIRABEL [4] performs).
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.aggregation.aggregate import aggregate_group, disaggregate_schedule
from repro.extraction.frequency_based import slice_energies_on_grid
from repro.flexoffer.model import FlexOffer, ProfileSlice
from repro.flexoffer.schedule import ScheduledFlexOffer, default_schedule
from repro.scheduling.greedy import _water_fill, greedy_schedule
from repro.timeseries.axis import FIFTEEN_MINUTES, TimeAxis, axis_for_days
from repro.timeseries.series import TimeSeries

START = datetime(2012, 3, 5)


class TestWaterFillProperties:
    @given(
        remaining=arrays(np.float64, 8, elements=st.floats(-5, 5, allow_nan=False)),
        lows=arrays(np.float64, 8, elements=st.floats(0, 1, allow_nan=False)),
        widths=arrays(np.float64, 8, elements=st.floats(0, 2, allow_nan=False)),
    )
    def test_within_bounds_and_optimal(self, remaining, lows, widths):
        highs = lows + widths
        filled = _water_fill(remaining, lows, highs)
        assert (filled >= lows - 1e-12).all()
        assert (filled <= highs + 1e-12).all()
        # Per-interval optimality: the fill is the projection of the target
        # onto [lo, hi], so no other feasible value is closer.
        clipped = np.clip(remaining, lows, highs)
        assert np.allclose(filled, clipped)

    @given(
        target_level=st.floats(0.0, 3.0, allow_nan=False),
        e=st.floats(0.5, 2.0, allow_nan=False),
    )
    @settings(deadline=None, max_examples=30)
    def test_greedy_schedule_energy_feasible(self, target_level, e):
        axis = axis_for_days(START, 1)
        target = TimeSeries.full(axis, target_level)
        offer = FlexOffer(
            earliest_start=START + timedelta(hours=2),
            latest_start=START + timedelta(hours=10),
            slices=(ProfileSlice(0.25 * e, e), ProfileSlice(0.25 * e, e)),
        )
        result = greedy_schedule([offer], target)
        assert len(result.schedules) == 1
        # ScheduledFlexOffer construction validates all bounds; reaching
        # here means the greedy placement was feasible.
        sched = result.schedules[0]
        assert offer.earliest_start <= sched.start <= offer.latest_start


class TestBucketingProperties:
    @given(
        length=st.integers(1, 300),
        start=st.integers(0, 2000),
        seed=st.integers(0, 10_000),
    )
    @settings(deadline=None, max_examples=50)
    def test_slice_bucketing_conserves_energy(self, length, start, seed):
        removal = np.random.default_rng(seed).uniform(0, 0.2, length)
        grid_index, energies = slice_energies_on_grid(removal, start)
        assert energies.sum() == pytest.approx(removal.sum())
        assert grid_index == start // 15
        # Bucket k covers minutes [15k, 15k+15) relative to the grid anchor.
        assert len(energies) >= int(np.ceil((start % 15 + length) / 15))


class TestHierarchicalAggregation:
    """MIRABEL aggregates in levels; level-2 must still disaggregate exactly."""

    def _leaf(self, offset_intervals: int, e: float) -> FlexOffer:
        est = START + FIFTEEN_MINUTES * offset_intervals
        return FlexOffer(
            earliest_start=est,
            latest_start=est + timedelta(hours=2),
            slices=(ProfileSlice(0.5 * e, 1.5 * e),),
        )

    def test_two_level_roundtrip(self):
        # Level 1: two groups of leaves.
        group_a = [self._leaf(0, 1.0), self._leaf(1, 2.0)]
        group_b = [self._leaf(0, 0.5), self._leaf(2, 1.5)]
        agg_a = aggregate_group(group_a)
        agg_b = aggregate_group(group_b)
        # Level 2: aggregate the aggregates.
        top = aggregate_group([agg_a.offer, agg_b.offer])

        schedule = default_schedule(top.offer, start=top.offer.earliest_start)
        level1 = disaggregate_schedule(top, schedule)
        assert len(level1) == 2
        total_level1 = sum(p.total_energy for p in level1)
        assert total_level1 == pytest.approx(schedule.total_energy)

        # Disaggregate each level-1 schedule to the leaves.
        leaves = []
        for agg, sched in zip((agg_a, agg_b), level1):
            leaves.extend(disaggregate_schedule(agg, sched))
        assert len(leaves) == 4
        assert sum(p.total_energy for p in leaves) == pytest.approx(
            schedule.total_energy
        )

    def test_two_level_flexibility_is_min_of_all(self):
        a = self._leaf(0, 1.0).with_time_flexibility(timedelta(hours=1))
        b = self._leaf(0, 1.0).with_time_flexibility(timedelta(hours=5))
        c = self._leaf(0, 1.0).with_time_flexibility(timedelta(hours=3))
        level1 = aggregate_group([a, b])
        top = aggregate_group([level1.offer, c])
        assert top.offer.time_flexibility == timedelta(hours=1)
