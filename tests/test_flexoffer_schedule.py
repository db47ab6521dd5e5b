"""Unit tests for :mod:`repro.flexoffer.schedule`."""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError, ValidationError
from repro.flexoffer.model import FlexOffer, ProfileSlice
from repro.flexoffer.schedule import (
    ScheduledFlexOffer,
    add_to_series,
    default_schedule,
    schedules_to_series,
)
from repro.timeseries.series import TimeSeries
from repro.timeseries.axis import FIFTEEN_MINUTES, TimeAxis, axis_for_days

START = datetime(2012, 3, 5, 18, 0)


def offer(**overrides) -> FlexOffer:
    defaults = dict(
        earliest_start=START,
        latest_start=START + timedelta(hours=2),
        slices=(ProfileSlice(0.5, 1.0), ProfileSlice(0.25, 0.5)),
    )
    defaults.update(overrides)
    return FlexOffer(**defaults)


class TestValidation:
    def test_valid_schedule(self):
        sched = ScheduledFlexOffer(offer(), START, (0.75, 0.3))
        assert sched.total_energy == pytest.approx(1.05)
        assert sched.end == START + timedelta(minutes=30)

    def test_start_outside_window_rejected(self):
        with pytest.raises(ValidationError):
            ScheduledFlexOffer(offer(), START - timedelta(minutes=15), (0.75, 0.3))
        with pytest.raises(ValidationError):
            ScheduledFlexOffer(offer(), START + timedelta(hours=3), (0.75, 0.3))

    def test_wrong_energy_count_rejected(self):
        with pytest.raises(ValidationError):
            ScheduledFlexOffer(offer(), START, (0.75,))

    def test_energy_out_of_slice_bounds_rejected(self):
        with pytest.raises(ValidationError):
            ScheduledFlexOffer(offer(), START, (1.5, 0.3))
        with pytest.raises(ValidationError):
            ScheduledFlexOffer(offer(), START, (0.75, 0.1))

    @pytest.mark.parametrize("failing", [0, 2, 4])
    def test_the_first_failing_slice_is_named_with_its_bounds(self, failing):
        bounds = [(0.1 * k, 0.1 * k + 0.5) for k in range(1, 6)]
        five = offer(slices=tuple(ProfileSlice(lo, hi) for lo, hi in bounds))
        energies = [0.3, 0.4, 0.5, 0.6, 0.7]
        energies[failing] = 9.0
        if failing < 4:
            energies[4] = -1.0  # a later failing slice is not the one reported
        sl = five.slices[failing]
        with pytest.raises(ValidationError) as caught:
            ScheduledFlexOffer(five, START, tuple(energies))
        assert str(caught.value) == (
            f"slice {failing} energy 9.0 outside [{sl.energy_min}, {sl.energy_max}]"
        )

    def test_slice_bounds_hold_up_to_the_tolerance(self):
        assert ScheduledFlexOffer(offer(), START, (1.0 + 1e-9, 0.25 - 1e-9))
        over = np.nextafter(1.0 + 1e-9, 2.0)
        with pytest.raises(ValidationError) as caught:
            ScheduledFlexOffer(offer(), START, (over, 0.3))
        assert str(caught.value) == f"slice 0 energy {over} outside [0.5, 1.0]"
        under = np.nextafter(0.25 - 1e-9, 0.0)
        with pytest.raises(ValidationError) as caught:
            ScheduledFlexOffer(offer(), START, (0.75, under))
        assert str(caught.value) == f"slice 1 energy {under} outside [0.25, 0.5]"

    def test_total_bounds_enforced(self):
        tight = offer(total_energy_max=1.0)
        with pytest.raises(ValidationError):
            ScheduledFlexOffer(tight, START, (1.0, 0.5))


class TestMaterialisation:
    def test_to_series_places_energy(self):
        axis = TimeAxis(START, FIFTEEN_MINUTES, 8)
        sched = ScheduledFlexOffer(offer(), START + timedelta(minutes=30), (0.75, 0.3))
        series = sched.to_series(axis)
        assert series.values[2] == pytest.approx(0.75)
        assert series.values[3] == pytest.approx(0.3)
        assert series.total() == pytest.approx(1.05)

    def test_multi_interval_slice_spread(self):
        axis = TimeAxis(START, FIFTEEN_MINUTES, 8)
        fo = offer(slices=(ProfileSlice(0.8, 1.2, duration=4),))
        sched = ScheduledFlexOffer(fo, START, (1.0,))
        series = sched.to_series(axis)
        assert np.allclose(series.values[:4], 0.25)

    def test_overrun_raises(self):
        axis = TimeAxis(START, FIFTEEN_MINUTES, 2)
        sched = ScheduledFlexOffer(offer(), START + timedelta(minutes=15), (0.75, 0.3))
        with pytest.raises(SchedulingError):
            sched.to_series(axis)

    def test_start_outside_axis_raises(self):
        axis = TimeAxis(START + timedelta(hours=5), FIFTEEN_MINUTES, 8)
        sched = ScheduledFlexOffer(offer(), START, (0.75, 0.3))
        with pytest.raises(SchedulingError):
            sched.to_series(axis)

    def test_schedules_to_series_accumulates(self):
        axis = axis_for_days(START.replace(hour=0), 1)
        s1 = ScheduledFlexOffer(offer(), START, (0.75, 0.3))
        s2 = ScheduledFlexOffer(offer(), START, (0.5, 0.25))
        combined = schedules_to_series([s1, s2], axis)
        assert combined.total() == pytest.approx(1.8)
        first = axis.index_of(START)
        assert combined.values[first] == pytest.approx(1.25)


class TestDefaultSchedule:
    def test_default_is_midpoint_at_earliest(self):
        sched = default_schedule(offer())
        assert sched.start == START
        assert sched.slice_energies == (0.75, 0.375)

    def test_level_zero_and_one(self):
        assert default_schedule(offer(), level=0.0).slice_energies == (0.5, 0.25)
        assert default_schedule(offer(), level=1.0).slice_energies == (1.0, 0.5)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            default_schedule(offer(), level=1.5)

    def test_custom_start(self):
        start = START + timedelta(hours=1)
        assert default_schedule(offer(), start=start).start == start

    def test_redistribution_hits_tight_total(self):
        tight = offer(total_energy_max=0.8)
        sched = default_schedule(tight, level=1.0)
        assert sched.total_energy == pytest.approx(0.8)
        # per-slice bounds still respected
        for energy, sl in zip(sched.slice_energies, tight.slices):
            assert sl.energy_min - 1e-9 <= energy <= sl.energy_max + 1e-9

    def test_redistribution_hits_tight_minimum(self):
        tight = offer(total_energy_min=1.4)
        sched = default_schedule(tight, level=0.0)
        assert sched.total_energy == pytest.approx(1.4)


# ---------------------------------------------------------------------- #
# schedules_to_series ≡ the sequential add_to_series loop, bitwise
# ---------------------------------------------------------------------- #

PLAN_AXIS = TimeAxis(START, FIFTEEN_MINUTES, 24)


@st.composite
def placements(draw, slack: int = 0) -> ScheduledFlexOffer:
    """A schedule starting on (or, with ``slack``, past) the plan axis,
    with multi-interval slices and an energy anywhere in each slice."""
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    energy = st.floats(-5.0, 5.0, allow_nan=False, allow_subnormal=False)
    bounds = [sorted(draw(st.tuples(energy, energy))) for _ in widths]
    slices = tuple(ProfileSlice(lo, hi, width) for (lo, hi), width in zip(bounds, widths))
    start = START + FIFTEEN_MINUTES * draw(st.integers(-slack, 24 - sum(widths) + slack))
    earliest = min(start, START)
    placed = FlexOffer(earliest_start=earliest, latest_start=max(start, earliest), slices=slices)
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=len(widths), max_size=len(widths)))
    return ScheduledFlexOffer(
        placed, start, tuple(lo + f * (hi - lo) for (lo, hi), f in zip(bounds, fractions))
    )


def sequential(schedules, axis) -> TimeSeries:
    series = TimeSeries.zeros(axis, name="scheduled-demand")
    for schedule in schedules:
        add_to_series(schedule, series)
    return series


class TestSchedulesToSeries:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(placements(), max_size=12))
    def test_matches_the_add_to_series_loop_bitwise(self, schedules):
        # Placements overlap freely on a 24-interval axis, so intervals sum
        # several energies: the order of those sums must be schedule order.
        combined = schedules_to_series(schedules, PLAN_AXIS)
        expected = sequential(schedules, PLAN_AXIS)
        assert combined.values.tobytes() == expected.values.tobytes()
        assert combined.name == expected.name
        assert combined.axis == PLAN_AXIS

    @settings(max_examples=150, deadline=None)
    @given(st.lists(placements(slack=3), min_size=1, max_size=6))
    def test_first_schedule_off_the_axis_raises_as_the_loop_does(self, schedules):
        try:
            expected = sequential(schedules, PLAN_AXIS)
        except SchedulingError as error:
            with pytest.raises(SchedulingError) as raised:
                schedules_to_series(schedules, PLAN_AXIS)
            assert str(raised.value) == str(error)
        else:
            combined = schedules_to_series(schedules, PLAN_AXIS)
            assert combined.values.tobytes() == expected.values.tobytes()

    def test_start_before_and_overrun_messages(self):
        before = default_schedule(offer(), start=START)
        axis = TimeAxis(START + FIFTEEN_MINUTES, FIFTEEN_MINUTES, 8)
        with pytest.raises(SchedulingError, match="outside axis"):
            schedules_to_series([before], axis)
        late = default_schedule(offer(), start=START + timedelta(hours=2))
        short = TimeAxis(START, FIFTEEN_MINUTES, 9)
        with pytest.raises(SchedulingError, match="overruns the axis end"):
            schedules_to_series([late], short)

    def test_no_schedules_is_a_zero_series(self):
        assert not schedules_to_series([], PLAN_AXIS).values.any()
