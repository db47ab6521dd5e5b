"""Property tests: resampling and calendar logic around DST and gaps.

The conformance matrix runs whole fleets across the 2012 European DST
spring-forward week; these hypothesis properties pin the substrate that
makes that safe: resampling round-trips are exact on *any* anchor date
(transition weeks included, since the library's naive standard-time axes
never jump), and axes stay strictly monotonic.
"""

from __future__ import annotations

from datetime import date, datetime, time, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.timeseries.axis import FIFTEEN_MINUTES, ONE_MINUTE, TimeAxis
from repro.timeseries.calendar import (
    DailyWindow,
    DayType,
    Season,
    day_type,
    is_holiday,
    minutes_since_midnight,
    season,
)
from repro.timeseries.resample import downsample_sum, upsample_spread
from repro.timeseries.series import TimeSeries

#: The 2012 European spring-forward instant falls inside this week.
DST_WEEK = datetime(2012, 3, 19)

#: Anchor dates biased toward the interesting calendar terrain: DST weeks
#: (spring and autumn 2012), year boundary, leap day, plus arbitrary days.
anchor_dates = st.one_of(
    st.just(DST_WEEK),
    st.just(datetime(2012, 10, 22)),   # autumn transition week (2012-10-28)
    st.just(datetime(2011, 12, 26)),   # year boundary + stacked holidays
    st.just(datetime(2012, 2, 27)),    # leap-day week
    st.datetimes(
        min_value=datetime(2010, 1, 1), max_value=datetime(2015, 1, 1)
    ).map(lambda dt: dt.replace(hour=0, minute=0, second=0, microsecond=0)),
)

energy_values = st.floats(
    min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


class TestResampleRoundTrips:
    @settings(deadline=None, max_examples=60)
    @given(start=anchor_dates, days=st.integers(1, 3), data=st.data())
    def test_upsample_then_downsample_is_identity(self, start, days, data):
        axis = TimeAxis(start, FIFTEEN_MINUTES, 96 * days)
        values = data.draw(
            arrays(np.float64, axis.length, elements=energy_values)
        )
        series = TimeSeries(axis, values)
        fine = upsample_spread(series, ONE_MINUTE)
        back = downsample_sum(fine, FIFTEEN_MINUTES)
        assert back.axis == series.axis
        np.testing.assert_allclose(back.values, series.values, atol=1e-9)

    @settings(deadline=None, max_examples=60)
    @given(start=anchor_dates, days=st.integers(1, 2), data=st.data())
    def test_downsample_sum_conserves_energy(self, start, days, data):
        axis = TimeAxis(start, ONE_MINUTE, 1440 * days)
        values = data.draw(
            arrays(np.float64, axis.length, elements=energy_values)
        )
        series = TimeSeries(axis, values)
        coarse = downsample_sum(series, FIFTEEN_MINUTES)
        assert coarse.total() == pytest.approx(series.total(), abs=1e-6)
        assert coarse.axis.start == series.axis.start
        assert coarse.axis.length * 15 == series.axis.length

class TestMonotonicAxes:
    @settings(deadline=None, max_examples=60)
    @given(start=anchor_dates, length=st.integers(1, 4 * 96))
    def test_times_strictly_increasing_and_invertible(self, start, length):
        axis = TimeAxis(start, FIFTEEN_MINUTES, length)
        times = list(axis.times())
        assert all(b - a == FIFTEEN_MINUTES for a, b in zip(times, times[1:]))
        probes = {0, length // 2, length - 1}
        for index in probes:
            assert axis.index_of(axis.time_at(index)) == index
        assert axis.end - axis.start == FIFTEEN_MINUTES * length

    @settings(deadline=None, max_examples=40)
    @given(start=anchor_dates, days=st.integers(1, 7))
    def test_day_slices_partition_whole_days(self, start, days):
        axis = TimeAxis(start, FIFTEEN_MINUTES, 96 * days)
        slices = axis.day_slices()
        assert len(slices) == days
        assert all(length == 96 for _, length in slices)
        assert sum(length for _, length in slices) == axis.length
        firsts = [first for first, _ in slices]
        assert firsts == sorted(firsts)


class TestCalendarProperties:
    @settings(deadline=None, max_examples=100)
    @given(
        day=st.dates(min_value=date(2010, 1, 1), max_value=date(2015, 12, 31))
    )
    def test_day_type_total_and_holiday_rule(self, day):
        dtype = day_type(day)
        assert dtype in DayType
        if is_holiday(day):
            assert dtype is DayType.SUNDAY
        elif day.weekday() < 5:
            assert dtype is DayType.WORKDAY
        assert dtype.is_weekend == (dtype is not DayType.WORKDAY)

    @settings(deadline=None, max_examples=100)
    @given(
        day=st.dates(min_value=date(2010, 1, 1), max_value=date(2015, 12, 31))
    )
    def test_season_total_function(self, day):
        expected = {
            12: Season.WINTER, 1: Season.WINTER, 2: Season.WINTER,
            3: Season.SPRING, 4: Season.SPRING, 5: Season.SPRING,
            6: Season.SUMMER, 7: Season.SUMMER, 8: Season.SUMMER,
            9: Season.AUTUMN, 10: Season.AUTUMN, 11: Season.AUTUMN,
        }
        assert season(day) is expected[day.month]

    def test_dst_week_day_types(self):
        # Mon 2012-03-19 .. Sun 2012-03-25 (the spring-forward Sunday).
        days = [DST_WEEK.date() + timedelta(days=i) for i in range(7)]
        types = [day_type(d) for d in days]
        assert types[:5] == [DayType.WORKDAY] * 5
        assert types[5] is DayType.SATURDAY
        assert types[6] is DayType.SUNDAY

    @settings(deadline=None, max_examples=100)
    @given(
        start_minute=st.integers(0, 1439),
        end_minute=st.integers(0, 1439),
        probe=st.integers(0, 1439),
    )
    def test_daily_window_contains_matches_arithmetic(
        self, start_minute, end_minute, probe
    ):
        window = DailyWindow(
            time(start_minute // 60, start_minute % 60),
            time(end_minute // 60, end_minute % 60),
        )
        when = time(probe // 60, probe % 60)
        if start_minute <= end_minute:
            expected = start_minute <= probe < end_minute
        else:
            expected = probe >= start_minute or probe < end_minute
        assert window.contains(when) == expected
        assert window.wraps_midnight == (end_minute < start_minute)
        assert minutes_since_midnight(when) == probe
        duration_minutes = (end_minute - start_minute) % (24 * 60)
        assert window.duration() == timedelta(minutes=duration_minutes)
