"""Tests for robust scheduling: scenario fans, risk measures, realized loop.

The uncertainty stack rests on four load-bearing claims, each pinned
here: the risk arithmetic is one shared home (scalar :func:`risk_of`
versus batched :func:`risk_profile`, and through them the reference
versus vectorized robust engines, stay bitwise identical); robust mode
changes *which start wins* but never the wire-visible shape of a
schedule; :func:`evaluate_realized` is an exact arithmetic oracle; and
the session's hold-if-better replan never trades a cheaper open plan for
a costlier fresh one.  The fairness helper's failing-by-construction
fixture lives here too, proving the ``disaggregation-fairness``
invariant can actually fire.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.api.spec import RobustSpec, ScheduleSpec
from repro.conformance.invariants import (
    FAIRNESS_GINI_BOUND,
    FAIRNESS_MIN_SHARE,
    _fairness_violations,
    _gini,
)
from repro.errors import SchedulingError, SpecError
from repro.flexoffer.model import FlexOffer, ProfileSlice
from repro.scheduling import (
    RobustConfig,
    ScheduleConfig,
    build_schedule_workload,
    cvar_count,
    evaluate_realized,
    greedy_schedule,
    quantile_weights,
    resolve_fan,
    risk_of,
    risk_profile,
    synthetic_fan,
)
from repro.timeseries.axis import axis_for_days
from repro.timeseries.series import TimeSeries

START = datetime(2012, 3, 5)


@pytest.fixture(scope="module")
def workload():
    """A small but realistic scheduling workload (24 aggregates, 2 days)."""
    aggregates, target = build_schedule_workload(
        n_aggregates=24, members_per_aggregate=2, days=2, seed=7
    )
    return [a.offer for a in aggregates], target


def placements(result):
    return [
        (s.offer.offer_id, s.start, tuple(s.slice_energies)) for s in result.schedules
    ]


class TestRobustConfig:
    def test_defaults_valid(self):
        config = RobustConfig()
        assert config.quantiles == (0.1, 0.5, 0.9)
        assert config.risk == "expected"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"quantiles": ()},
            {"quantiles": (0.0, 0.5)},
            {"quantiles": (0.5, 1.0)},
            {"quantiles": (0.5, 0.5)},
            {"quantiles": (0.9, 0.1)},
            {"risk": "worst-case"},
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"sigma": -0.1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(SchedulingError):
            RobustConfig(**kwargs)

    def test_incremental_engine_accepted_as_vectorized(self):
        config = ScheduleConfig(engine="incremental", robust=RobustConfig())
        assert config.engine == "vectorized"

    def test_auto_and_reference_engines_accepted(self):
        assert ScheduleConfig(engine="auto", robust=RobustConfig()).engine == "vectorized"
        assert ScheduleConfig(engine="reference", robust=RobustConfig()).engine == "reference"


class TestRiskArithmetic:
    def test_quantile_weights_midpoint_partition(self):
        np.testing.assert_allclose(
            quantile_weights((0.1, 0.5, 0.9)), [0.3, 0.4, 0.3]
        )
        np.testing.assert_allclose(quantile_weights((0.5,)), [1.0])

    def test_quantile_weights_sum_to_one(self):
        for levels in [(0.2, 0.8), (0.05, 0.25, 0.5, 0.75, 0.95)]:
            assert quantile_weights(levels).sum() == pytest.approx(1.0)

    def test_cvar_count_covers_at_least_one(self):
        assert cvar_count(0.3, 3) == 1
        assert cvar_count(0.5, 3) == 2
        assert cvar_count(0.01, 3) == 1
        assert cvar_count(1.0, 5) == 5

    def test_risk_of_expected_is_weighted_mean(self):
        gains = np.array([1.0, 2.0, 4.0])
        weights = quantile_weights((0.1, 0.5, 0.9))
        assert risk_of(gains, weights, "expected", 0.3) == pytest.approx(
            0.3 * 1.0 + 0.4 * 2.0 + 0.3 * 4.0
        )

    def test_risk_of_cvar_is_worst_tail_mean(self):
        gains = np.array([4.0, 1.0, 2.0])
        weights = quantile_weights((0.1, 0.5, 0.9))
        assert risk_of(gains, weights, "cvar", 0.3) == pytest.approx(1.0)
        assert risk_of(gains, weights, "cvar", 0.5) == pytest.approx(1.5)
        assert risk_of(gains, weights, "cvar", 1.0) == pytest.approx(7.0 / 3.0)

    def test_risk_profile_matches_scalar_columns(self):
        rng = np.random.default_rng(3)
        gains = rng.normal(size=(3, 40))
        weights = quantile_weights((0.1, 0.5, 0.9))
        for risk, alpha in (("expected", 0.3), ("cvar", 0.3), ("cvar", 0.7)):
            batched = risk_profile(gains, weights, risk, alpha)
            scalar = [risk_of(gains[:, j], weights, risk, alpha) for j in range(40)]
            # Batched matmul may differ from per-column dots by an ulp;
            # the engines stay bitwise because near-ties re-score through
            # the scalar risk_of path.
            np.testing.assert_allclose(batched, scalar, rtol=1e-12)


class TestScenarioFans:
    def test_synthetic_fan_median_reproduces_target(self):
        axis = axis_for_days(START, 1)
        target = TimeSeries(axis, np.linspace(0, 5, axis.length), "wind")
        fan = synthetic_fan(target, RobustConfig(quantiles=(0.1, 0.5, 0.9)))
        assert np.array_equal(fan[1].values, target.values)
        assert fan[0].name == "wind@q0.1"

    def test_synthetic_fan_monotone_on_nonnegative_target(self):
        axis = axis_for_days(START, 1)
        target = TimeSeries(axis, np.abs(np.sin(np.arange(axis.length) / 7.0)))
        fan = synthetic_fan(target, RobustConfig())
        matrix = np.stack([s.values for s in fan])
        assert np.all(np.diff(matrix, axis=0) >= 0.0)

    def test_resolve_fan_synthesises_when_absent(self):
        axis = axis_for_days(START, 1)
        target = TimeSeries(axis, np.ones(axis.length), "t")
        robust = RobustConfig(sigma=0.1)
        matrix, weights = resolve_fan(target, robust)
        explicit = np.stack([s.values for s in synthetic_fan(target, robust)])
        assert np.array_equal(matrix, explicit)
        assert weights.sum() == pytest.approx(1.0)

    def test_resolve_fan_validates_explicit_scenarios(self):
        axis = axis_for_days(START, 1)
        target = TimeSeries(axis, np.ones(axis.length), "t")
        robust = RobustConfig(quantiles=(0.1, 0.5, 0.9))
        with pytest.raises(SchedulingError):
            resolve_fan(target, robust, scenarios=[target, target])  # 2 != 3
        with pytest.raises(SchedulingError):
            resolve_fan(target, robust, scenarios=[target, np.ones(axis.length), target])


class TestEngineEquivalence:
    @pytest.mark.parametrize("risk", ["expected", "cvar"])
    def test_reference_and_vectorized_bitwise_identical(self, workload, risk):
        offers, target = workload
        robust = RobustConfig(quantiles=(0.1, 0.5, 0.9), risk=risk, alpha=0.3)
        vec = greedy_schedule(offers, target, config=ScheduleConfig(robust=robust))
        ref = greedy_schedule(
            offers, target, config=ScheduleConfig(engine="reference", robust=robust)
        )
        assert placements(vec) == placements(ref)
        assert vec.cost == pytest.approx(ref.cost, rel=1e-9)

    def test_robust_runs_deterministic(self, workload):
        offers, target = workload
        config = ScheduleConfig(robust=RobustConfig(risk="cvar"))
        first = greedy_schedule(offers, target, config=config)
        second = greedy_schedule(offers, target, config=config)
        assert placements(first) == placements(second)

    def test_robust_changes_starts_not_feasibility(self, workload):
        """Every robust placement is still a valid point-mode placement."""
        offers, target = workload
        robust = greedy_schedule(
            offers, target, config=ScheduleConfig(robust=RobustConfig(risk="cvar"))
        )
        assert robust.schedules
        for sched in robust.schedules:
            assert sched.offer.earliest_start <= sched.start <= sched.offer.latest_start
            for energy, profile in zip(sched.slice_energies, sched.offer.slices):
                assert profile.energy_min - 1e-9 <= energy <= profile.energy_max + 1e-9

    def test_explicit_scenarios_steer_placement(self):
        """A fan that contradicts the point target moves the chosen start."""
        axis = axis_for_days(START, 1)
        point = np.zeros(axis.length)
        point[40:42] = 1.0
        shifted = np.zeros(axis.length)
        shifted[60:62] = 1.0
        target = TimeSeries(axis, point, "t")
        est = START
        fo = FlexOffer(
            earliest_start=est,
            latest_start=est + timedelta(hours=23),
            slices=(ProfileSlice(0.4, 0.6), ProfileSlice(0.4, 0.6)),
        )
        robust = RobustConfig(quantiles=(0.1, 0.5, 0.9), risk="cvar", alpha=0.3)
        fan = [TimeSeries(axis, shifted, "s")] * 3
        steered = greedy_schedule(
            [fo], target, config=ScheduleConfig(robust=robust), scenarios=fan
        )
        plain = greedy_schedule([fo], target)
        assert axis.index_of(plain.schedules[0].start) == 40
        assert axis.index_of(steered.schedules[0].start) == 60


class TestEvaluateRealized:
    def make_result(self):
        axis = axis_for_days(START, 1)
        values = np.zeros(axis.length)
        values[40:42] = 1.0
        target = TimeSeries(axis, values, "t")
        fo = FlexOffer(
            earliest_start=START,
            latest_start=START + timedelta(hours=20),
            slices=(ProfileSlice(0.3, 0.7), ProfileSlice(0.3, 0.7)),
        )
        return greedy_schedule([fo], target), target

    def test_exact_arithmetic(self):
        result, target = self.make_result()
        realized = TimeSeries(target.axis, target.values * 1.5, "realized")
        evaluation = evaluate_realized(result, realized)
        diff = result.demand.values - realized.values
        assert evaluation.realized_cost == pytest.approx(float(diff @ diff))
        assert evaluation.realized_baseline_cost == pytest.approx(
            float(realized.values @ realized.values)
        )
        assert evaluation.planned_cost == pytest.approx(result.cost)
        assert evaluation.forecast_regret == pytest.approx(
            evaluation.realized_cost - evaluation.planned_cost
        )
        assert 0.0 <= evaluation.realized_improvement <= 1.0

    def test_perfect_realization_zero_regret(self):
        result, target = self.make_result()
        evaluation = evaluate_realized(result, target)
        assert evaluation.forecast_regret == pytest.approx(0.0)
        assert evaluation.realized_cost == pytest.approx(result.cost)

    def test_axis_mismatch_rejected(self):
        result, target = self.make_result()
        other = TimeSeries(axis_for_days(START + timedelta(days=1), 1), np.ones(96))
        with pytest.raises(Exception):
            evaluate_realized(result, other)
        with pytest.raises(SchedulingError):
            evaluate_realized(result, target.values)

    def test_summary_keys(self):
        result, target = self.make_result()
        summary = evaluate_realized(result, target).summary()
        assert set(summary) == {
            "realized_cost",
            "realized_baseline_cost",
            "realized_improvement",
            "planned_cost",
            "forecast_regret",
        }


class TestRobustSpecWire:
    def test_round_trip_with_robust(self):
        spec = ScheduleSpec(
            robust=RobustSpec(quantiles=(0.1, 0.5, 0.9), risk="cvar", alpha=0.25)
        )
        encoded = spec.to_dict()
        assert encoded["robust"]["risk"] == "cvar"
        back = ScheduleSpec.from_dict(encoded)
        assert back.robust is not None
        assert back.robust.quantiles == (0.1, 0.5, 0.9)
        assert back.robust.alpha == 0.25
        assert back.to_dict() == encoded

    def test_wire_key_omitted_when_absent(self):
        spec = ScheduleSpec()
        assert "robust" not in spec.to_dict()
        assert ScheduleSpec.from_dict(spec.to_dict()).robust is None

    def test_robust_spec_validation_surfaces_as_spec_error(self):
        with pytest.raises(SpecError):
            RobustSpec(risk="worst-case").config()

    def test_config_bridge(self):
        config = RobustSpec(quantiles=(0.2, 0.8), risk="cvar", alpha=0.4).config()
        assert isinstance(config, RobustConfig)
        assert config.quantiles == (0.2, 0.8)


class TestSessionRealizedContract:
    """Hold-if-better replans: retargeting to reality never hurts ex post."""

    def test_replan_after_retarget_never_worse_on_realized(self):
        from repro.api import input_series_for
        from repro.pipeline.fleet import fleet_schedule_target
        from repro.session import FlexibilitySession
        from repro.workloads.scenarios import small_fleet

        fleet = small_fleet(n=2, days=2, seed=5)
        target = fleet_schedule_target(fleet, seed=3)
        session = FlexibilitySession.for_fleet(fleet, target=target)
        inputs = [input_series_for(session.extractor, trace) for trace in fleet]
        axis = inputs[0].axis
        half = axis.length // 2
        for index, series in enumerate(inputs):
            session.ingest(index, 0, series.values[:half])
        session.replan()
        session.commit(axis.start + half * axis.resolution)
        for index, series in enumerate(inputs):
            session.ingest(index, half, series.values[half:])
        stale = session.replan()
        assert stale.schedule is not None
        rng = np.random.default_rng(42)
        realized = TimeSeries(
            target.axis,
            target.values * (1.0 + 0.25 * (rng.random(target.axis.length) - 0.5)),
            "realized",
        )
        stale_eval = evaluate_realized(stale.schedule, realized)
        session.retarget(realized)
        fresh = session.replan()
        fresh_eval = evaluate_realized(fresh.schedule, realized)
        tolerance = 1e-9 * max(1.0, abs(stale_eval.realized_cost))
        assert fresh_eval.realized_cost <= stale_eval.realized_cost + tolerance


class TestFairnessHelper:
    """The disaggregation-fairness machinery can actually fire."""

    def test_gini_extremes(self):
        assert _gini([1.0, 1.0, 1.0, 1.0]) == pytest.approx(0.0)
        assert _gini([0.0, 0.0, 0.0, 100.0]) == pytest.approx(0.75)
        assert _gini([5.0]) == 0.0
        assert _gini([]) == 0.0

    def test_failing_by_construction_fixture(self):
        # One member hoards everything over equal capacities: both the
        # min-share floor and the Gini bound must fire.
        violations = _fairness_violations("fixture", [100.0, 0.0], [1.0, 1.0])
        assert violations
        assert any("share" in v for v in violations)

    def test_skewed_allocation_trips_gini_bound(self):
        allocations = [97.0, 1.0, 1.0, 1.0]
        capacities = [1.0, 1.0, 1.0, 1.0]
        ratios = [a / c for a, c in zip(allocations, capacities)]
        assert _gini(ratios) > FAIRNESS_GINI_BOUND
        assert _fairness_violations("fixture", allocations, capacities)

    def test_proportional_allocation_is_clean(self):
        # Allocations exactly proportional to capacity: no violations.
        capacities = [1.0, 2.0, 3.0]
        allocations = [10.0, 20.0, 30.0]
        assert _fairness_violations("fixture", allocations, capacities) == []

    def test_min_share_floor_scales_with_capacity(self):
        # A small-capacity member getting its fair (proportional) share
        # stays above the floor even when large members dwarf it.
        capacities = [10.0, 1.0]
        allocations = [100.0, 10.0]
        assert _fairness_violations("fixture", allocations, capacities) == []
        starved = [109.0, 1.0]
        floor = FAIRNESS_MIN_SHARE * (1.0 / 11.0) * 110.0
        assert starved[1] < floor
        assert _fairness_violations("fixture", starved, capacities)
