"""Tests for greedy/stochastic scheduling and the objectives (paper [5])."""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.flexoffer.model import FlexOffer, ProfileSlice
from repro.scheduling.greedy import ScheduleConfig, greedy_schedule, naive_schedule
from repro.scheduling.objective import (
    absolute_imbalance,
    overshoot,
    squared_imbalance,
    unmet_target,
)
from repro.scheduling.stochastic import improve_schedule
from repro.timeseries.axis import axis_for_days
from repro.timeseries.series import TimeSeries

START = datetime(2012, 3, 5)


def offer(start_h: float, flex_h: float, e: float = 1.0, slices: int = 2) -> FlexOffer:
    est = START + timedelta(hours=start_h)
    share = e / slices
    return FlexOffer(
        earliest_start=est,
        latest_start=est + timedelta(hours=flex_h),
        slices=tuple(ProfileSlice(0.5 * share, 1.5 * share) for _ in range(slices)),
    )


class TestObjectives:
    def test_squared_and_absolute(self):
        axis = axis_for_days(START, 1)
        demand = TimeSeries.full(axis, 1.0)
        target = TimeSeries.full(axis, 2.0)
        assert squared_imbalance(demand, target) == pytest.approx(96.0)
        assert absolute_imbalance(demand, target) == pytest.approx(96.0)

    def test_unmet_and_overshoot(self):
        axis = axis_for_days(START, 1)
        demand = TimeSeries(axis, np.r_[np.zeros(48), np.full(48, 2.0)])
        target = TimeSeries.full(axis, 1.0)
        assert unmet_target(demand, target) == pytest.approx(48.0)
        assert overshoot(demand, target) == pytest.approx(48.0)


class TestGreedy:
    def test_places_offer_on_target_spike(self):
        axis = axis_for_days(START, 1)
        target_values = np.zeros(axis.length)
        target_values[40:42] = 1.0  # 10:00-10:30
        target = TimeSeries(axis, target_values)
        fo = offer(start_h=0.0, flex_h=23.0, e=2.0)
        result = greedy_schedule([fo], target)
        assert len(result.schedules) == 1
        start_index = axis.index_of(result.schedules[0].start)
        assert start_index == 40

    def test_energy_levels_water_fill(self):
        axis = axis_for_days(START, 1)
        target_values = np.zeros(axis.length)
        target_values[40] = 0.6
        target_values[41] = 0.6
        target = TimeSeries(axis, target_values)
        fo = offer(start_h=0.0, flex_h=20.0, e=1.0)  # slices in [0.25, 0.75]
        result = greedy_schedule([fo], target)
        sched = result.schedules[0]
        assert all(abs(e - 0.6) < 1e-9 for e in sched.slice_energies)

    def test_respects_time_window(self):
        axis = axis_for_days(START, 1)
        target_values = np.zeros(axis.length)
        target_values[80] = 5.0  # 20:00 spike
        target = TimeSeries(axis, target_values)
        fo = offer(start_h=1.0, flex_h=2.0, e=1.0)  # can only start 01:00-03:00
        result = greedy_schedule([fo], target)
        start = result.schedules[0].start
        assert fo.earliest_start <= start <= fo.latest_start

    def test_greedy_beats_naive(self, fleet):
        from repro.extraction import PeakBasedExtractor, FlexOfferParams
        from repro.evaluation.comparison import collect_offers
        from repro.simulation.res import simulate_wind_production

        extractor = PeakBasedExtractor(params=FlexOfferParams(flexible_share=0.05))
        offers = collect_offers(fleet.traces, extractor)
        axis = fleet.metering_axis()
        wind = simulate_wind_production(axis, np.random.default_rng(2))
        total_flex = sum(o.profile_energy_max for o in offers)
        target = wind * (total_flex / wind.total())
        naive = naive_schedule(offers, target)
        greedy = greedy_schedule(offers, target)
        assert greedy.cost < naive.cost

    def test_orderings(self):
        axis = axis_for_days(START, 1)
        target = TimeSeries.full(axis, 0.5)
        offers = [offer(0.0, 5.0), offer(2.0, 1.0)]
        for order in ("least-flexible-first", "largest-first", "as-given"):
            result = greedy_schedule(offers, target, order=order)
            assert len(result.schedules) == 2
        with pytest.raises(SchedulingError):
            greedy_schedule(offers, target, order="nonsense")

    def test_offer_outside_axis_unplaced(self):
        axis = axis_for_days(START, 1)
        target = TimeSeries.full(axis, 0.5)
        outside = offer(start_h=30.0, flex_h=1.0)
        result = greedy_schedule([outside], target)
        assert result.schedules == []
        assert result.unplaced == [outside]

    def test_improvement_metric(self):
        axis = axis_for_days(START, 1)
        target_values = np.zeros(axis.length)
        target_values[40:42] = 0.5
        target = TimeSeries(axis, target_values)
        fo = offer(0.0, 23.0, e=1.0)
        result = greedy_schedule([fo], target)
        assert 0.0 < result.improvement <= 1.0
        assert result.baseline_cost == pytest.approx(float(np.dot(target_values, target_values)))


class TestNaive:
    def test_naive_places_at_earliest_midpoint(self):
        axis = axis_for_days(START, 1)
        target = TimeSeries.zeros(axis)
        fo = offer(start_h=3.0, flex_h=6.0, e=1.0)
        result = naive_schedule([fo], target)
        sched = result.schedules[0]
        assert sched.start == fo.earliest_start
        midpoint_total = sum(s.midpoint for s in fo.slices)
        assert sched.total_energy == pytest.approx(midpoint_total)


class TestScheduleConfig:
    def test_engine_and_order_validated(self):
        with pytest.raises(SchedulingError):
            ScheduleConfig(engine="turbo")
        with pytest.raises(SchedulingError):
            ScheduleConfig(order="nonsense")
        with pytest.raises(SchedulingError):
            ScheduleConfig(improve_iterations=-1)

    def test_auto_accepted_by_config_validation(self):
        assert ScheduleConfig(engine="auto").engine == "vectorized"
        with pytest.raises(SchedulingError):
            ScheduleConfig(engine="warp")

    def test_order_argument_overrides_config(self):
        axis = axis_for_days(START, 1)
        target = TimeSeries.full(axis, 0.5)
        offers = [offer(0.0, 5.0), offer(2.0, 1.0)]
        config = ScheduleConfig(order="largest-first")
        result = greedy_schedule(offers, target, order="as-given", config=config)
        assert [s.offer.offer_id for s in result.schedules] == [
            o.offer_id for o in offers
        ]


class TestEngineEquivalence:
    """The vectorized placement engine is a pure execution-plan change."""

    @pytest.fixture(scope="class")
    def workload(self):
        from repro.scheduling import build_schedule_workload

        aggregates, target = build_schedule_workload(n_aggregates=40, seed=23)
        return [a.offer for a in aggregates], target

    def test_greedy_engines_agree(self, workload):
        offers, target = workload
        reference = greedy_schedule(
            offers, target, config=ScheduleConfig(engine="reference")
        )
        vectorized = greedy_schedule(offers, target)
        assert [(s.offer.offer_id, s.start) for s in reference.schedules] == [
            (s.offer.offer_id, s.start) for s in vectorized.schedules
        ]
        assert [o.offer_id for o in reference.unplaced] == [
            o.offer_id for o in vectorized.unplaced
        ]
        for a, b in zip(reference.schedules, vectorized.schedules):
            assert a.slice_energies == pytest.approx(b.slice_energies, rel=1e-9)
        assert vectorized.cost == pytest.approx(reference.cost, rel=1e-9)

    def test_greedy_engines_agree_on_every_order(self, workload):
        offers, target = workload
        for order in ("least-flexible-first", "largest-first", "as-given"):
            reference = greedy_schedule(
                offers, target, config=ScheduleConfig(order=order, engine="reference")
            )
            vectorized = greedy_schedule(offers, target, order=order)
            assert [s.start for s in reference.schedules] == [
                s.start for s in vectorized.schedules
            ]

    def test_stochastic_engines_bitwise_identical(self, workload):
        offers, target = workload
        start = greedy_schedule(offers, target)
        reference = improve_schedule(
            start, np.random.default_rng(9), iterations=400, engine="reference"
        )
        vectorized = improve_schedule(
            start, np.random.default_rng(9), iterations=400, engine="vectorized"
        )
        assert [(s.start, s.slice_energies) for s in reference.schedules] == [
            (s.start, s.slice_energies) for s in vectorized.schedules
        ]
        assert reference.cost == vectorized.cost

    def test_stochastic_engine_validated(self, workload):
        offers, target = workload
        result = greedy_schedule(offers[:2], target)
        with pytest.raises(SchedulingError):
            improve_schedule(result, np.random.default_rng(0), engine="warp")

    def test_engines_agree_on_offers_off_the_axis_grid(self):
        # Offers anchored between metering intervals and spilling over the
        # horizon edges take every branch of the start-grid arithmetic.
        axis = axis_for_days(START, 1)
        target = TimeSeries(
            axis, np.random.default_rng(4).uniform(0, 1, axis.length)
        )
        offers = [
            FlexOffer(
                earliest_start=START + timedelta(minutes=7),
                latest_start=START + timedelta(hours=26),
                slices=(ProfileSlice(0.2, 0.8, 3), ProfileSlice(0.1, 0.5, 2)),
            ),
            FlexOffer(
                earliest_start=START - timedelta(hours=2),
                latest_start=START + timedelta(hours=1),
                slices=(ProfileSlice(0.5, 1.0),),
            ),
            FlexOffer(
                earliest_start=START + timedelta(days=2),
                latest_start=START + timedelta(days=3),
                slices=(ProfileSlice(0.5, 1.0),),
            ),
        ]
        reference = greedy_schedule(
            offers, target, config=ScheduleConfig(engine="reference")
        )
        vectorized = greedy_schedule(offers, target)
        assert [s.start for s in reference.schedules] == [
            s.start for s in vectorized.schedules
        ]
        assert [o.offer_id for o in reference.unplaced] == [
            o.offer_id for o in vectorized.unplaced
        ]


class TestEarliestAllowed:
    """The ``earliest_allowed`` commit boundary every engine must respect.

    A rolling-horizon session freezes placements inside its commit
    horizon; re-planning the open window passes the boundary down, and no
    engine may place a start before it.  ``None`` must stay bitwise the
    pre-session behaviour.
    """

    def test_boundary_pushes_start_past_earlier_spike(self):
        axis = axis_for_days(START, 1)
        target_values = np.zeros(axis.length)
        target_values[16:18] = 1.0  # 04:00 spike the offer would prefer
        target = TimeSeries(axis, target_values)
        fo = offer(start_h=0.0, flex_h=20.0, e=2.0)
        boundary = START + timedelta(hours=12)
        for engine in ("vectorized", "reference"):
            result = greedy_schedule(
                [fo],
                target,
                config=ScheduleConfig(engine=engine),
                earliest_allowed=boundary,
            )
            assert len(result.schedules) == 1, engine
            assert result.schedules[0].start >= boundary, engine

    def test_window_entirely_before_boundary_is_unplaced(self):
        axis = axis_for_days(START, 1)
        target = TimeSeries.full(axis, 1.0)
        fo = offer(start_h=1.0, flex_h=2.0, e=1.0)  # window closes 03:00
        for engine in ("vectorized", "reference"):
            result = greedy_schedule(
                [fo],
                target,
                config=ScheduleConfig(engine=engine),
                earliest_allowed=START + timedelta(hours=6),
            )
            assert result.schedules == [], engine
            assert [o.offer_id for o in result.unplaced] == [fo.offer_id], engine

    def test_none_is_bitwise_the_default(self):
        from repro.scheduling import build_schedule_workload

        aggregates, target = build_schedule_workload(n_aggregates=20, seed=29)
        offers = [a.offer for a in aggregates]
        plain = greedy_schedule(offers, target)
        gated = greedy_schedule(offers, target, earliest_allowed=None)
        assert gated == plain

    def test_engines_agree_under_a_boundary(self):
        from repro.scheduling import build_schedule_workload

        aggregates, target = build_schedule_workload(n_aggregates=30, seed=31)
        offers = [a.offer for a in aggregates]
        boundary = target.axis.start + timedelta(hours=36)
        results = [
            greedy_schedule(
                offers,
                target,
                config=ScheduleConfig(engine=engine),
                earliest_allowed=boundary,
            )
            for engine in ("vectorized", "reference")
        ]
        for result in results:
            for schedule in result.schedules:
                assert schedule.start >= boundary
        placements = [
            [(s.offer.offer_id, s.start) for s in result.schedules]
            for result in results
        ]
        assert placements[0] == placements[1]


class TestStartGrid:
    def test_matches_feasible_starts_filter(self):
        from repro.scheduling.greedy import start_grid

        axis = axis_for_days(START, 1)
        fo = FlexOffer(
            earliest_start=START + timedelta(minutes=5),
            latest_start=START + timedelta(hours=23, minutes=35),
            slices=(ProfileSlice(0.1, 0.4), ProfileSlice(0.1, 0.4)),
        )
        steps, firsts = start_grid(fo, axis, require_fit=False)
        expected = [s for s in fo.feasible_starts() if axis.contains(s)]
        starts = [fo.earliest_start + fo.resolution * int(k) for k in steps]
        assert starts == expected
        assert [axis.index_of(s) for s in expected] == list(firsts)

    def test_require_fit_drops_overruns(self):
        from repro.scheduling.greedy import start_grid

        axis = axis_for_days(START, 1)
        fo = offer(start_h=23.0, flex_h=3.0, e=1.0, slices=2)
        loose_steps, _ = start_grid(fo, axis, require_fit=False)
        tight_steps, tight_firsts = start_grid(fo, axis, require_fit=True)
        assert len(tight_steps) < len(loose_steps)
        assert all(first + 2 <= axis.length for first in tight_firsts)


class TestStochasticImprovement:
    def test_never_worse(self):
        axis = axis_for_days(START, 1)
        rng_target = np.random.default_rng(1)
        target = TimeSeries(axis, rng_target.uniform(0, 1, axis.length))
        offers = [offer(h, 6.0, e=1.0) for h in (0, 2, 4, 6, 8)]
        greedy = greedy_schedule(offers, target, order="as-given")
        improved = improve_schedule(greedy, np.random.default_rng(2), iterations=300)
        assert improved.cost <= greedy.cost + 1e-9

    def test_finds_obvious_improvement(self):
        axis = axis_for_days(START, 1)
        target_values = np.zeros(axis.length)
        target_values[60:62] = 1.0
        target = TimeSeries(axis, target_values)
        fo = offer(0.0, 20.0, e=2.0)
        # Deliberately bad starting point: naive places at earliest (00:00).
        bad = naive_schedule([fo], target)
        improved = improve_schedule(bad, np.random.default_rng(3), iterations=500)
        assert improved.cost < bad.cost

    def test_zero_iterations_identity(self):
        axis = axis_for_days(START, 1)
        target = TimeSeries.full(axis, 0.2)
        result = greedy_schedule([offer(0.0, 2.0)], target)
        same = improve_schedule(result, np.random.default_rng(0), iterations=0)
        assert same.cost == result.cost
