"""Shared fixtures: deterministic RNGs, canonical axes and cached scenarios.

Simulation-backed fixtures are session-scoped (the underlying scenario
builders are ``lru_cache``d as well), so the suite pays for each simulation
exactly once.
"""

from __future__ import annotations

import gc
import pickle
from datetime import datetime

import numpy as np
import pytest

from repro.appliances.model import ApplianceSpec
from repro.simulation.activations import materialise
from repro.timeseries.axis import FIFTEEN_MINUTES, ONE_MINUTE, TimeAxis, axis_for_days
from repro.timeseries.series import TimeSeries
from repro.workloads.paper_day import figure5_day
from repro.workloads.scenarios import (
    SCENARIO_START,
    nilm_household,
    small_fleet,
    tariff_study,
    weekend_skewed_household,
)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture()
def day_axis() -> TimeAxis:
    """One day of 15-minute intervals starting at the scenario anchor."""
    return axis_for_days(SCENARIO_START, 1)


@pytest.fixture()
def week_axis() -> TimeAxis:
    """One week of 15-minute intervals."""
    return axis_for_days(SCENARIO_START, 7)


@pytest.fixture()
def minute_axis() -> TimeAxis:
    """One day of 1-minute intervals."""
    return TimeAxis(SCENARIO_START, ONE_MINUTE, 24 * 60)


@pytest.fixture()
def ramp_series(day_axis: TimeAxis) -> TimeSeries:
    """A simple increasing series over one day."""
    return TimeSeries(day_axis, np.linspace(0.1, 1.0, day_axis.length), "ramp")


@pytest.fixture()
def paper_day():
    """The reconstructed Figure 5 day."""
    return figure5_day(datetime(2012, 3, 7))


@pytest.fixture(scope="session")
def nilm_trace():
    """Cached 14-day five-appliance household (disaggregation target)."""
    return nilm_household(days=14, seed=3)


@pytest.fixture(scope="session")
def weekend_trace():
    """Cached 28-day household with weekend-skewed dishwasher."""
    return weekend_skewed_household(days=28, seed=11)


@pytest.fixture(scope="session")
def fleet():
    """Cached 6-household, 7-day fleet."""
    return small_fleet(n=6, days=7, seed=5)


@pytest.fixture(scope="session")
def tariff_pair():
    """Cached 28-day one-tariff/night-tariff study."""
    return tariff_study(days=28, seed=9)


def reachable_array_bytes(root) -> int:
    """Bytes of every distinct ndarray reachable from ``root``.

    Appliance specs are skipped: their shape vectors belong to the shared
    appliance database, not to any one trace.
    """
    seen, stack, total = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ApplianceSpec)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += obj.nbytes
        else:
            stack.extend(gc.get_referents(obj))
    return total


@pytest.fixture(scope="session")
def check_rendered_trace():
    """The checker below, for tests of every simulator's traces."""
    return _check_rendered_trace


def _check_rendered_trace(trace, specs, suffix: str = "") -> None:
    """A trace stores only its total and base load; ``per_appliance``
    renders each appliance's series from the activation log, bitwise and
    under the name ``<id>-<appliance><suffix>``, without caching it."""
    stored = trace.total.values.nbytes + trace.base_load.values.nbytes
    assert reachable_array_bytes(vars(trace)) == stored
    assert list(trace.per_appliance) == list(specs)
    total = trace.base_load.values.copy()
    for name, series in trace.per_appliance.items():
        runs = [a for a in trace.activations if a.appliance == name]
        eager = materialise(runs, specs, trace.axis)
        assert series.name == f"{trace.config.household_id}-{name}{suffix}"
        assert series.values.tobytes() == eager.values.tobytes()
        assert series.values is not trace.per_appliance[name].values
        total += eager.values
    assert total.tobytes() == trace.total.values.tobytes()
    assert reachable_array_bytes(vars(trace)) == stored

    restored = pickle.loads(pickle.dumps(trace))
    assert restored == trace
    assert restored.per_appliance == trace.per_appliance
    name = next(iter(specs))
    assert name in trace.per_appliance and "no-such-appliance" not in trace.per_appliance
    with pytest.raises(KeyError):
        trace.per_appliance["no-such-appliance"]
    with pytest.raises(TypeError):
        trace.per_appliance[name] = trace.total
    with pytest.raises(TypeError):
        del trace.per_appliance[name]
