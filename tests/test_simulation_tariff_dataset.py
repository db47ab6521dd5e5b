"""Unit tests for the tariff-response model and fleet generation."""

from __future__ import annotations

from datetime import datetime, time, timedelta

import numpy as np
import pytest

from repro.appliances.database import default_database
from repro.errors import ValidationError
from repro.simulation.activations import Activation
from repro.simulation.dataset import generate_fleet, random_household_config
from repro.simulation.household import HouseholdConfig
from repro.simulation.tariff import (
    TariffScheme,
    night_tariff,
    shift_into_low_window,
    simulate_tariff_pair,
)
from repro.timeseries.calendar import DailyWindow

START = datetime(2012, 3, 5)


class TestTariffScheme:
    def test_flat(self):
        scheme = TariffScheme(name="flat")
        assert scheme.is_flat
        assert not scheme.is_low(START.replace(hour=23))
        assert scheme.price_at(START) == scheme.high_price

    def test_night_tariff_windows(self):
        scheme = night_tariff()
        assert scheme.is_low(START.replace(hour=23))
        assert scheme.is_low(START.replace(hour=3))
        assert not scheme.is_low(START.replace(hour=12))
        assert scheme.price_at(START.replace(hour=23)) == scheme.low_price

    def test_price_order_enforced(self):
        with pytest.raises(ValidationError):
            TariffScheme(name="bad", high_price=0.1, low_price=0.2)


class TestShifting:
    def test_shift_lands_in_low_window(self):
        scheme = night_tariff()
        act = Activation("washing-machine-y", START.replace(hour=18), 2.0,
                         timedelta(minutes=100), True)
        rng = np.random.default_rng(0)
        for _ in range(20):
            moved = shift_into_low_window(act, scheme, rng)
            assert scheme.is_low(moved.start)
            assert moved.start >= act.start
            assert moved.energy_kwh == act.energy_kwh

    def test_flat_scheme_no_shift(self):
        act = Activation("x", START, 1.0, timedelta(hours=1), True)
        assert shift_into_low_window(act, TariffScheme(name="flat"), np.random.default_rng(0)) is act


class TestTariffPair:
    def test_pair_consistency(self, tariff_pair):
        study = tariff_pair
        # Same base load in both traces.
        assert study.single.base_load == study.multi.base_load
        # Total energy only differs by shifts falling off the horizon.
        assert study.multi.total.total() <= study.single.total.total() + 1e-6

    def test_both_traces_render_appliances_from_their_logs(self, check_rendered_trace):
        config = HouseholdConfig(household_id="h1")
        study = simulate_tariff_pair(config, START, 5, np.random.default_rng(4))
        assert study.shifts
        database = default_database()
        specs = {name: database.get(name) for name in config.appliances}
        check_rendered_trace(study.single, specs)
        check_rendered_trace(study.multi, specs, suffix="-tou")

    def test_all_shifts_moved_to_low(self, tariff_pair):
        scheme = tariff_pair.scheme
        for record in tariff_pair.shifts:
            assert not scheme.is_low(record.original.start)
            assert scheme.is_low(record.shifted.start)
            assert record.delay >= timedelta(0)

    def test_night_consumption_increases(self, tariff_pair):
        """Behavioural response moves energy into the 22:00-06:00 window."""
        night = DailyWindow(time(22, 0), time(6, 0))

        def night_energy(trace):
            return sum(e for t, e in trace.metered() if night.contains(t))

        assert night_energy(tariff_pair.multi) > night_energy(tariff_pair.single)

    def test_cost_drops_under_night_tariff(self, tariff_pair):
        study = tariff_pair
        assert study.cost(study.multi) < study.cost(study.single)

    def test_response_rate_zero_changes_nothing(self):
        config = HouseholdConfig(household_id="h")
        study = simulate_tariff_pair(
            config, START, 7, np.random.default_rng(3), response_rate=0.0
        )
        assert study.shifts == []
        assert study.single.total == study.multi.total

    def test_invalid_response_rate(self):
        with pytest.raises(ValidationError):
            simulate_tariff_pair(
                HouseholdConfig(household_id="h"), START, 2,
                np.random.default_rng(0), response_rate=1.5,
            )


class TestFleet:
    def test_fleet_shape(self, fleet):
        assert len(fleet) == 6
        agg = fleet.aggregate_metered()
        assert len(agg) == 7 * 96
        assert agg.total() > 0

    def test_household_heterogeneity(self, fleet):
        occupants = {t.config.occupants for t in fleet}
        appliance_sets = {tuple(t.config.appliances) for t in fleet}
        assert len(appliance_sets) > 1 or len(occupants) > 1

    def test_every_household_has_wet_appliance(self):
        rng = np.random.default_rng(0)
        for i in range(30):
            config = random_household_config(f"h{i}", rng)
            assert (
                "washing-machine-y" in config.appliances
                or "dishwasher-z" in config.appliances
            )

    def test_aggregate_true_flexible_bounded(self, fleet):
        flexible = fleet.aggregate_true_flexible()
        total = fleet.aggregate_metered()
        assert (flexible.values <= total.values + 1e-9).all()
        assert 0.0 < fleet.flexible_share < 1.0

    def test_true_flexible_matrix_sums_the_flexible_appliance_series(self, fleet):
        rows = []
        for trace in fleet.traces:
            flexible = {a.appliance for a in trace.activations if a.flexible}
            row = np.zeros(trace.axis.length)
            for name, series in trace.per_appliance.items():
                if name in flexible:
                    row += series.values
            rows.append(row.reshape(-1, 15).sum(axis=1))
        assert fleet.true_flexible_matrix().tobytes() == np.stack(rows).tobytes()

    def test_deterministic(self):
        a = generate_fleet(3, START, 1, seed=42)
        b = generate_fleet(3, START, 1, seed=42)
        assert a.aggregate_metered() == b.aggregate_metered()

    def test_seed_changes_fleet(self):
        a = generate_fleet(3, START, 1, seed=1)
        b = generate_fleet(3, START, 1, seed=2)
        assert a.aggregate_metered() != b.aggregate_metered()

    def test_validation(self):
        with pytest.raises(ValidationError):
            generate_fleet(0, START, 1)
