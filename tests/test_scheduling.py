"""Tests for greedy/stochastic scheduling and the objectives (paper [5])."""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.flexoffer.model import FlexOffer, ProfileSlice
from repro.scheduling.greedy import ScheduleConfig, greedy_schedule, naive_schedule
from repro.scheduling.objective import squared_imbalance
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
    def test_squared(self):
        axis = axis_for_days(START, 1)
        demand = TimeSeries.full(axis, 1.0)
        target = TimeSeries.full(axis, 2.0)
        assert squared_imbalance(demand, target) == pytest.approx(96.0)


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
        from repro.bench import build_schedule_workload

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

    def test_stochastic_engines_leave_the_generator_alike(self, workload):
        offers, target = workload
        start = greedy_schedule(offers, target)
        states = []
        for engine in ("reference", "vectorized"):
            rng = np.random.default_rng(9)
            improve_schedule(start, rng, iterations=400, engine=engine)
            states.append(rng.bit_generator.state)
        assert states[0] == states[1]

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
        from repro.bench import build_schedule_workload

        aggregates, target = build_schedule_workload(n_aggregates=20, seed=29)
        offers = [a.offer for a in aggregates]
        plain = greedy_schedule(offers, target)
        gated = greedy_schedule(offers, target, earliest_allowed=None)
        assert gated == plain

    @staticmethod
    def _expiring_workload():
        """30 aggregates and a boundary that expires more than a third."""
        from repro.bench import build_schedule_workload

        aggregates, target = build_schedule_workload(n_aggregates=30, seed=31)
        offers = [a.offer for a in aggregates]
        boundary = target.axis.start + timedelta(hours=96)
        expired = sum(o.latest_start < boundary for o in offers)
        assert 3 * expired >= len(offers)
        return offers, target, boundary

    def test_engines_agree_under_a_boundary(self):
        from repro.scheduling.robust import RobustConfig

        offers, target, boundary = self._expiring_workload()
        for robust in (None, RobustConfig()):
            results = [
                greedy_schedule(
                    offers,
                    target,
                    config=ScheduleConfig(engine=engine, robust=robust),
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
            assert placements[0] == placements[1], robust
            unplaced = [[o.offer_id for o in result.unplaced] for result in results]
            assert unplaced[0] == unplaced[1], robust

    @pytest.mark.parametrize("robust", [False, True], ids=["point", "robust"])
    def test_expired_offers_build_no_plan(self, monkeypatch, robust):
        import repro.scheduling.greedy as greedy
        from repro.scheduling.robust import RobustConfig

        offers, target, boundary = self._expiring_workload()
        planned = []
        build_plan = greedy._build_plan

        def counting_build_plan(offer, axis, earliest_allowed=None):
            planned.append(offer)
            return build_plan(offer, axis, earliest_allowed)

        monkeypatch.setattr(greedy, "_build_plan", counting_build_plan)
        result = greedy_schedule(
            offers,
            target,
            config=ScheduleConfig(robust=RobustConfig() if robust else None),
            earliest_allowed=boundary,
        )
        assert not [o for o in planned if o.latest_start < boundary]
        assert len(planned) == sum(o.latest_start >= boundary for o in offers)
        unplaced = {o.offer_id for o in result.unplaced}
        assert all(
            o.offer_id in unplaced for o in offers if o.latest_start < boundary
        )

    @settings(max_examples=200, deadline=None)
    @given(
        earliest_us=st.integers(-86_400 * 10**6, 2 * 86_400 * 10**6),
        resolution_us=st.integers(1, 2 * 3_600 * 10**6),
        steps=st.integers(0, 500),
        remainder_us=st.integers(0, 2 * 3_600 * 10**6),
        gap_us=st.integers(1, 3_600 * 10**6),
        require_fit=st.booleans(),
    )
    def test_start_grid_is_empty_past_latest_start(
        self, earliest_us, resolution_us, steps, remainder_us, gap_us, require_fit
    ):
        from repro.scheduling.greedy import start_grid

        axis = axis_for_days(START, 2)
        earliest = START + timedelta(microseconds=earliest_us)
        # At most 501 grid starts, with latest_start anywhere between two.
        flexibility_us = steps * resolution_us + remainder_us % resolution_us
        fo = FlexOffer(
            earliest_start=earliest,
            latest_start=earliest + timedelta(microseconds=flexibility_us),
            resolution=timedelta(microseconds=resolution_us),
            slices=(ProfileSlice(0.1, 0.4),),
        )
        boundary = fo.latest_start + timedelta(microseconds=gap_us)
        grid_steps, firsts = start_grid(
            fo, axis, require_fit=require_fit, earliest_allowed=boundary
        )
        assert grid_steps.size == 0 and firsts.size == 0


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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"improve_iterations": 2.5},
            {"improve_iterations": True},
            {"improve_iterations": -1},
            {"improve_iterations": "3"},
            {"improve_seed": "x"},
            {"improve_seed": -1},
            {"improve_seed": False},
            {"improve_seed": 1.0},
        ],
        ids=lambda kwargs: "-".join(f"{k}={v!r}" for k, v in kwargs.items()),
    )
    def test_config_rejects_non_integer_budgets_and_seeds(self, kwargs):
        # Each used to construct, then fail with a bare TypeError once
        # improvement ran (or, for True, silently run one iteration).
        with pytest.raises(SchedulingError, match=next(iter(kwargs))):
            ScheduleConfig(**kwargs)

    def test_config_accepts_integer_budgets_and_seeds(self):
        config = ScheduleConfig(improve_iterations=np.int64(3), improve_seed=0)
        assert (config.improve_iterations, config.improve_seed) == (3, 0)

    def test_zero_iterations_identity(self):
        axis = axis_for_days(START, 1)
        target = TimeSeries.full(axis, 0.2)
        result = greedy_schedule([offer(0.0, 2.0)], target)
        same = improve_schedule(result, np.random.default_rng(0), iterations=0)
        assert same.cost == result.cost


class TestLockstepDecisions:
    """The block scoring of :mod:`repro.scheduling.stochastic` never
    decides a move the sequential arithmetic would decide otherwise."""

    def test_a_move_back_to_the_current_start_is_rejected(self, monkeypatch):
        # One inflexible offer on a flat target, with dyadic numbers so the
        # residual arithmetic is exact: every move goes back to the current
        # start, both gains are exactly equal, and the sequential rule
        # (`gain_new <= gain_old` rejects) must keep the schedule as is.
        from repro.scheduling import stochastic

        axis = axis_for_days(START, 1)
        target = TimeSeries.full(axis, 0.5)
        fixed = FlexOffer(
            earliest_start=START + timedelta(hours=3),
            latest_start=START + timedelta(hours=3),
            slices=(ProfileSlice(0.25, 1.0), ProfileSlice(0.25, 1.0)),
        )
        result = greedy_schedule([fixed], target)
        tried = []
        real_try = stochastic._Lockstep._try

        def spy(self, row):
            accepted = real_try(self, row)
            tried.append(accepted)
            return accepted

        monkeypatch.setattr(stochastic._Lockstep, "_try", spy)
        improved = improve_schedule(result, np.random.default_rng(0), iterations=40)
        # The block cannot prove an exact tie a rejection: each move is
        # re-scored exactly, and rejected.
        assert tried == [False] * 40
        assert [(s.start, s.slice_energies) for s in improved.schedules] == [
            (s.start, s.slice_energies) for s in result.schedules
        ]
        reference = improve_schedule(
            result, np.random.default_rng(0), iterations=40, engine="reference"
        )
        assert improved.demand.values.tobytes() == reference.demand.values.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 40),
        pad=st.integers(0, 5),
        scale=st.sampled_from([1e-9, 1e-3, 1.0, 1e3, 1e9]),
    )
    def test_block_margin_is_within_tol_of_the_exact_margin(self, data, n, pad, scale):
        from fractions import Fraction

        from repro.scheduling.greedy import _placement_gain, _water_fill
        from repro.scheduling.stochastic import _block_margins

        def vector(label):
            values = data.draw(
                st.lists(
                    st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False),
                    min_size=n,
                    max_size=n,
                ),
                label=label,
            )
            return np.array(values) * scale

        window, old, current = vector("window"), vector("old"), vector("current")
        lows = np.minimum(vector("lows"), 0.5 * scale)
        highs = lows + np.abs(vector("widths"))
        fill = _water_fill(window, lows, highs)

        def padded(row):
            return np.concatenate([row, np.zeros(pad)])[None, :]

        margin, tol = _block_margins(
            padded(window), padded(fill), padded(old), padded(current), np.array([n])
        )
        exact = Fraction(_placement_gain(window, fill)) - Fraction(
            _placement_gain(old, current)
        )
        assert abs(Fraction(float(margin[0])) - exact) <= Fraction(float(tol[0]))
