"""Unit tests for household simulation (activations, base load, traces)."""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.appliances.database import default_database
from repro.errors import DataError, ValidationError
from repro.simulation import activations
from repro.simulation.activations import (
    Activation,
    draw_daily_activations,
    materialise,
    total_energy,
)
from repro.simulation.household import (
    HouseholdConfig,
    base_load_series,
    simulate_household,
)
from repro.timeseries.axis import FIFTEEN_MINUTES, ONE_MINUTE, TimeAxis

START = datetime(2012, 3, 5)


class TestActivationDrawing:
    def test_draw_respects_frequency_scale_zero(self, rng):
        spec = default_database().get("washing-machine-y")
        acts = draw_daily_activations(spec, START, rng, frequency_scale=0.0)
        assert acts == []

    def test_draw_mean_count(self):
        spec = default_database().get("television")  # daily
        rng = np.random.default_rng(0)
        counts = [
            len(draw_daily_activations(spec, START, rng)) for _ in range(1000)
        ]
        assert np.mean(counts) == pytest.approx(1.0, abs=0.1)

    def test_activation_attributes(self, rng):
        spec = default_database().get("washing-machine-y")
        acts = draw_daily_activations(spec, START, rng, household_id="h1",
                                      frequency_scale=20.0)
        assert acts
        for act in acts:
            assert act.appliance == "washing-machine-y"
            assert act.flexible
            assert spec.energy_min_kwh <= act.energy_kwh <= spec.energy_max_kwh
            assert act.duration == spec.cycle_duration
            assert act.household_id == "h1"
            assert START <= act.start < START + timedelta(days=1)

    def test_shifted(self):
        act = Activation("x", START, 1.0, timedelta(hours=1), True)
        moved = act.shifted(timedelta(hours=2))
        assert moved.start == START + timedelta(hours=2)
        assert moved.end == START + timedelta(hours=3)


class TestMaterialise:
    def test_energy_conservation(self, rng):
        db = default_database()
        spec = db.get("dishwasher-z")
        axis = TimeAxis(START, ONE_MINUTE, 2 * 24 * 60)
        acts = [
            Activation(spec.name, START + timedelta(hours=5), 1.5, spec.cycle_duration, True),
            Activation(spec.name, START + timedelta(hours=30), 1.8, spec.cycle_duration, True),
        ]
        series = materialise(acts, {spec.name: spec}, axis)
        assert series.total() == pytest.approx(3.3)

    def test_truncation_at_axis_end(self):
        db = default_database()
        spec = db.get("dishwasher-z")  # 85-minute cycle
        axis = TimeAxis(START, ONE_MINUTE, 24 * 60)
        late = Activation(
            spec.name, START + timedelta(hours=23, minutes=30), 1.5, spec.cycle_duration, True
        )
        series = materialise([late], {spec.name: spec}, axis)
        assert 0 < series.total() < 1.5  # partially truncated

    def test_activation_before_axis_raises(self):
        db = default_database()
        spec = db.get("dishwasher-z")
        axis = TimeAxis(START, ONE_MINUTE, 24 * 60)
        early = Activation(spec.name, START - timedelta(hours=1), 1.5, spec.cycle_duration, True)
        with pytest.raises(DataError):
            materialise([early], {spec.name: spec}, axis)

    def test_unknown_appliance_raises(self):
        axis = TimeAxis(START, ONE_MINUTE, 60)
        act = Activation("mystery", START, 1.0, timedelta(minutes=10), True)
        with pytest.raises(DataError):
            materialise([act], {}, axis)

    def test_requires_minute_axis(self):
        axis = TimeAxis(START, FIFTEEN_MINUTES, 96)
        with pytest.raises(DataError):
            materialise([], {}, axis)

    def test_total_energy_sums_every_run(self):
        db = default_database()
        wm = db.get("washing-machine-y")   # flexible
        oven = db.get("oven")              # not flexible
        acts = [
            Activation(wm.name, START + timedelta(hours=10), 2.0, wm.cycle_duration, wm.flexible),
            Activation(oven.name, START + timedelta(hours=18), 1.5, oven.cycle_duration, oven.flexible),
        ]
        assert total_energy(acts) == pytest.approx(3.5)


class TestBaseLoad:
    def test_base_load_positive_and_structured(self, rng):
        config = HouseholdConfig(household_id="h")
        axis = TimeAxis(START, ONE_MINUTE, 7 * 24 * 60)
        base = base_load_series(config, axis, rng)
        assert base.is_nonnegative()
        profile = base.daily_profile()
        evening = profile[20 * 60]   # 20:00
        night = profile[3 * 60]      # 03:00
        assert evening > 1.5 * night  # evening hump

    def test_base_load_requires_minute_axis(self, rng):
        config = HouseholdConfig(household_id="h")
        axis = TimeAxis(START, FIFTEEN_MINUTES, 96)
        with pytest.raises(ValidationError):
            base_load_series(config, axis, rng)

    def test_occupants_scale_load(self):
        axis = TimeAxis(START, ONE_MINUTE, 24 * 60)
        small = HouseholdConfig(household_id="s", occupants=1, noise_std_kw=0.0)
        large = HouseholdConfig(household_id="l", occupants=4, noise_std_kw=0.0)
        base_small = base_load_series(small, axis, np.random.default_rng(0))
        base_large = base_load_series(large, axis, np.random.default_rng(0))
        assert base_large.total() > base_small.total()


class TestHouseholdConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            HouseholdConfig(household_id="")
        with pytest.raises(ValidationError):
            HouseholdConfig(household_id="h", occupants=0)
        with pytest.raises(ValidationError):
            HouseholdConfig(household_id="h", standby_kw=-0.1)
        with pytest.raises(ValidationError):
            HouseholdConfig(household_id="h", noise_std_kw=-0.1)


class TestSimulateHousehold:
    def test_trace_consistency(self, rng):
        config = HouseholdConfig(household_id="h1")
        trace = simulate_household(config, START, 3, rng)
        # total == base + sum(per appliance)
        reconstructed = trace.base_load.values.copy()
        for series in trace.per_appliance.values():
            reconstructed += series.values
        assert np.allclose(reconstructed, trace.total.values)

    def test_trace_renders_appliances_from_its_activation_log(self, rng, check_rendered_trace):
        database = default_database()
        owned = ("washing-machine-y", "ev-small", "oven", "tumble-dryer")
        config = HouseholdConfig(household_id="h1", appliances=owned)
        trace = simulate_household(config, START, 3, rng, database)
        specs = {name: database.get(name) for name in config.appliances}
        check_rendered_trace(trace, specs)

    def test_flexible_minutely_values_render_only_flexible_appliances(self, rng, monkeypatch):
        trace = simulate_household(HouseholdConfig(household_id="h1"), START, 4, rng)
        flexible = {a.appliance for a in trace.activations if a.flexible}
        assert flexible and flexible != set(trace.per_appliance)
        eager = np.zeros(trace.axis.length)
        for name, series in trace.per_appliance.items():
            if name in flexible:
                eager += series.values
        rendered = []

        def counting(runs, specs, axis):
            rendered.append({a.appliance for a in runs})
            return materialise(runs, specs, axis)

        monkeypatch.setattr(activations, "materialise", counting)
        assert trace.flexible_minutely_values().tobytes() == eager.tobytes()
        assert rendered == [{name} for name in trace.per_appliance if name in flexible]

    def test_metered_resolution_and_conservation(self, rng):
        config = HouseholdConfig(household_id="h1")
        trace = simulate_household(config, START, 2, rng)
        metered = trace.metered()
        assert metered.axis.resolution == FIFTEEN_MINUTES
        assert metered.total() == pytest.approx(trace.total.total())

    def test_activation_log_matches_appliance_energy(self, rng):
        config = HouseholdConfig(household_id="h1")
        trace = simulate_household(config, START, 3, rng)
        logged = sum(a.energy_kwh for a in trace.activations)
        materialised = sum(s.total() for s in trace.per_appliance.values())
        # Truncation at the horizon can only lose energy, never create it.
        assert materialised <= logged + 1e-9
        assert materialised > 0.5 * logged

    def test_flexible_share_consistent(self, rng):
        config = HouseholdConfig(household_id="h1")
        trace = simulate_household(config, START, 5, rng)
        share = trace.flexible_share
        assert 0.0 <= share < 1.0
        flexible = [a for a in trace.flexible_activations()]
        assert all(a.flexible for a in flexible)

    def test_true_flexible_bounded_by_total(self, rng):
        config = HouseholdConfig(household_id="h1")
        trace = simulate_household(config, START, 3, rng)
        flexible = trace.true_flexible()
        metered = trace.metered()
        assert (flexible.values <= metered.values + 1e-9).all()

    def test_days_validation(self, rng):
        with pytest.raises(ValidationError):
            simulate_household(HouseholdConfig(household_id="h"), START, 0, rng)

    def test_deterministic_given_seed(self):
        config = HouseholdConfig(household_id="h1")
        a = simulate_household(config, START, 2, np.random.default_rng(9))
        b = simulate_household(config, START, 2, np.random.default_rng(9))
        assert a.total == b.total
        assert len(a.activations) == len(b.activations)
