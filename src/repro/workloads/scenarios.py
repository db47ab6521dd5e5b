"""Reusable simulated scenarios for tests, benchmarks and examples.

Each builder is deterministic (fixed seeds) and cached per process, so
benches and tests that share a scenario do not pay for re-simulation.

Beyond the classic single-household/paper-week builders, this module
provides the *conformance fleet scenarios*: named, heterogeneous fleet
workloads (seasonal, DST week, gap-ridden metering, EV-heavy, heat-pump
winter, PV prosumers, weekend-skewed, 100-household, tariff-switch) that
the :mod:`repro.conformance` matrix crosses with every registered
extraction approach.  All timestamps are naive local *standard* time — the
metering grid never jumps — so the DST-week scenario exercises the
calendar logic across the transition date without a wall-clock
discontinuity (exactly how §3.3's day-type reasoning consumes it).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime
from functools import lru_cache

import numpy as np

from repro.appliances.database import ApplianceDatabase, default_database, extended_database
from repro.simulation.dataset import SimulatedDataset, generate_fleet
from repro.simulation.household import HouseholdConfig, HouseholdTrace, simulate_household
from repro.simulation.tariff import TariffStudy, simulate_tariff_pair
from repro.timeseries.axis import TimeAxis, axis_for_days
from repro.timeseries.series import TimeSeries

#: Canonical scenario start: a Monday (aligned day types across scenarios).
SCENARIO_START = datetime(2012, 3, 5)

#: Deep-winter Monday (heating season, winter lighting factor active).
WINTER_START = datetime(2012, 1, 9)

#: Mid-summer Monday (no winter lighting, PV-relevant irradiance season).
SUMMER_START = datetime(2012, 7, 9)

#: Monday of the 2012 European DST spring-forward week (transition on
#: Sunday 2012-03-25); the axis stays on standard time throughout.
DST_WEEK_START = datetime(2012, 3, 19)

#: Monday of the 2012 European DST fall-back week (transition on Sunday
#: 2012-10-28, the 25-hour wall-clock day); the axis stays on standard time.
DST_FALLBACK_WEEK_START = datetime(2012, 10, 22)

_MINUTES_PER_DAY = 24 * 60


@lru_cache(maxsize=None)
def nilm_household(days: int = 14, seed: int = 3) -> HouseholdTrace:
    """A five-appliance household for disaggregation experiments."""
    config = HouseholdConfig(
        household_id=f"nilm-{days}d-{seed}",
        appliances=(
            "washing-machine-y",
            "dishwasher-z",
            "oven",
            "television",
            "vacuum-robot-x",
        ),
    )
    rng = np.random.default_rng(seed)
    return simulate_household(config, SCENARIO_START, days, rng)


@lru_cache(maxsize=None)
def weekend_skewed_household(days: int = 28, seed: int = 11) -> HouseholdTrace:
    """A household whose dishwasher is strongly weekend-skewed (§4.2 example)."""
    config = HouseholdConfig(
        household_id=f"weekend-{days}d-{seed}",
        appliances=("washing-machine-y", "dishwasher-z", "oven", "television"),
        frequency_scale={"dishwasher-z": 1.3},
    )
    rng = np.random.default_rng(seed)
    return simulate_household(config, SCENARIO_START, days, rng)


@lru_cache(maxsize=None)
def small_fleet(n: int = 10, days: int = 7, seed: int = 5) -> SimulatedDataset:
    """A small heterogeneous fleet for comparison experiments."""
    return generate_fleet(n, SCENARIO_START, days, seed=seed)


@lru_cache(maxsize=None)
def tariff_study(days: int = 28, seed: int = 9) -> TariffStudy:
    """Paired one-tariff/night-tariff traces of one household (§3.3 data)."""
    config = HouseholdConfig(household_id=f"tariff-{days}d-{seed}")
    rng = np.random.default_rng(seed)
    return simulate_tariff_pair(config, SCENARIO_START, days, rng)


def catalogue() -> ApplianceDatabase:
    """The appliance catalogue scenarios draw from."""
    return default_database()


def metering_axis(days: int = 7) -> TimeAxis:
    """The standard 15-minute axis of the scenarios."""
    return axis_for_days(SCENARIO_START, days)


# ---------------------------------------------------------------------- #
# Conformance fleet scenarios
# ---------------------------------------------------------------------- #


def _custom_fleet(
    configs: list[HouseholdConfig],
    start: datetime,
    days: int,
    seed: int,
    database: ApplianceDatabase | None = None,
) -> SimulatedDataset:
    """Simulate an explicit list of household configs into a dataset.

    Mirrors :func:`repro.simulation.dataset.generate_fleet`'s child-seed
    scheme (one independent deterministic stream per household) but keeps
    the caller in charge of the appliance mix — the lever the EV-heavy,
    heat-pump and weekend-skewed scenarios pull.
    """
    root = np.random.default_rng(seed)
    child_seeds = root.integers(0, 2**63 - 1, size=len(configs))
    traces = [
        simulate_household(
            config, start, days, np.random.default_rng(int(child_seeds[i])), database
        )
        for i, config in enumerate(configs)
    ]
    return SimulatedDataset(traces=_frozen_traces(traces), start=start, days=days)


def _frozen_traces(traces: list[HouseholdTrace]) -> list[HouseholdTrace]:
    """Freeze each trace's total vector (builders are lru_cached and shared).

    Matches :func:`repro.simulation.dataset.generate_fleet`: an accidental
    in-place mutation of a cached scenario would corrupt every later
    consumer in the process, so it must fail loudly instead.
    """
    for trace in traces:
        trace.total.values.flags.writeable = False
    return traces


@lru_cache(maxsize=None)
def winter_fleet(n: int = 5, days: int = 5, seed: int = 31) -> SimulatedDataset:
    """A deep-winter fleet (seasonal lighting/heating-season behaviour)."""
    return generate_fleet(n, WINTER_START, days, seed=seed)


@lru_cache(maxsize=None)
def summer_fleet(n: int = 5, days: int = 5, seed: int = 32) -> SimulatedDataset:
    """A mid-summer fleet (no winter lighting; vacation-season behaviour)."""
    return generate_fleet(n, SUMMER_START, days, seed=seed)


@lru_cache(maxsize=None)
def dst_transition_fleet(n: int = 4, days: int = 7, seed: int = 33) -> SimulatedDataset:
    """The 2012 European spring-forward week (Mon 03-19 … Sun 03-25).

    The metering axis stays regular (naive standard time), but every
    calendar-aware component — day types, typical-day profiles, habit
    windows — spans the transition date, which is exactly where naive
    day-bucketing code historically breaks.
    """
    return generate_fleet(n, DST_WEEK_START, days, seed=seed)


@lru_cache(maxsize=None)
def dst_fallback_fleet(n: int = 4, days: int = 7, seed: int = 41) -> SimulatedDataset:
    """The 2012 European autumn fall-back week (Mon 10-22 … Sun 10-28).

    The mirror image of :func:`dst_transition_fleet`: the wall-clock Sunday
    is 25 hours long.  The metering axis stays regular (naive standard
    time), so the calendar-aware components — day types, typical-day
    profiles, habit windows — and the market-facing schedule stage both
    span the transition date without a grid discontinuity, exactly how
    §3.3's day-type reasoning consumes autumn data.
    """
    return generate_fleet(n, DST_FALLBACK_WEEK_START, days, seed=seed)


@lru_cache(maxsize=None)
def gap_ridden_fleet(n: int = 4, days: int = 5, seed: int = 34) -> SimulatedDataset:
    """A fleet whose meters suffer deterministic dead windows (outages).

    Each household's 1-minute total gets 2–4 zeroed gaps of 30–180 minutes
    (a dead meter reads zero, it does not read NaN — NaN input is rejected
    upstream by :class:`~repro.timeseries.series.TimeSeries`).  Ground-truth
    appliance series are kept as simulated; the gaps make recall drop, not
    the invariants.
    """
    fleet = generate_fleet(n, SCENARIO_START, days, seed=seed)
    rng = np.random.default_rng(seed + 1)
    damaged: list[HouseholdTrace] = []
    for trace in fleet.traces:
        values = trace.total.values.copy()
        for _ in range(int(rng.integers(2, 5))):
            width = int(rng.integers(30, 181))
            first = int(rng.integers(0, max(1, len(values) - width)))
            values[first : first + width] = 0.0
        total = TimeSeries(trace.axis, values, name=f"{trace.config.household_id}-total")
        damaged.append(replace(trace, total=total))
    return SimulatedDataset(
        traces=_frozen_traces(damaged), start=fleet.start, days=fleet.days
    )


@lru_cache(maxsize=None)
def ev_heavy_fleet(n: int = 5, days: int = 5, seed: int = 35) -> SimulatedDataset:
    """Every household charges an EV (small/medium/large round-robin).

    The Salter & Huang device-mix axis: EV charging dominates the flexible
    volume, with cycle energies 30–70 kWh dwarfing the wet appliances.
    """
    ev_models = ("ev-small", "ev-medium", "ev-large")
    configs = [
        HouseholdConfig(
            household_id=f"ev-{i:03d}",
            appliances=(
                "washing-machine-y",
                "dishwasher-z",
                "television",
                ev_models[i % len(ev_models)],
            ),
            occupants=2 + i % 3,
        )
        for i in range(n)
    ]
    return _custom_fleet(configs, SCENARIO_START, days, seed)


@lru_cache(maxsize=None)
def heat_pump_fleet(n: int = 5, days: int = 5, seed: int = 36) -> SimulatedDataset:
    """A winter fleet where every household runs a heat pump.

    Uses :func:`repro.appliances.database.extended_database` (the default
    catalogue deliberately excludes the heat pump); extractors run on this
    scenario must be handed the same catalogue — the conformance matrix
    wires that through its per-scenario extractor parameters.
    """
    configs = [
        HouseholdConfig(
            household_id=f"hp-{i:03d}",
            appliances=("washing-machine-y", "oven", "television", "heat-pump"),
            occupants=1 + i % 4,
        )
        for i in range(n)
    ]
    return _custom_fleet(configs, WINTER_START, days, seed, database=extended_database())


@lru_cache(maxsize=None)
def pv_prosumer_fleet(n: int = 4, days: int = 5, seed: int = 37) -> SimulatedDataset:
    """Net-metered PV prosumers: midday generation eats into consumption.

    A deterministic irradiance bell (13:00 centre, per-day cloudiness
    factor) is subtracted from each household's 1-minute total and the
    result clipped at zero — the meter sees net consumption only, so the
    extractors face daytime troughs and masked appliance runs.
    """
    fleet = generate_fleet(n, SUMMER_START, days, seed=seed)
    rng = np.random.default_rng(seed + 1)
    axis = fleet.traces[0].axis
    minute_of_day = np.arange(axis.length) % _MINUTES_PER_DAY
    delta = np.abs(minute_of_day - 13.0 * 60)
    bell = np.exp(-0.5 * (delta / 140.0) ** 2)
    day_index = np.arange(axis.length) // _MINUTES_PER_DAY
    prosumers: list[HouseholdTrace] = []
    for trace in fleet.traces:
        capacity_kw = float(rng.uniform(1.5, 3.5))
        cloudiness = rng.uniform(0.3, 1.0, size=int(day_index[-1]) + 1)
        pv_kwh_per_minute = (capacity_kw / 60.0) * bell * cloudiness[day_index]
        net = np.clip(trace.total.values - pv_kwh_per_minute, 0.0, None)
        total = TimeSeries(axis, net, name=f"{trace.config.household_id}-total")
        prosumers.append(replace(trace, total=total))
    return SimulatedDataset(
        traces=_frozen_traces(prosumers), start=fleet.start, days=fleet.days
    )


@lru_cache(maxsize=None)
def weekend_skewed_fleet(n: int = 4, days: int = 7, seed: int = 38) -> SimulatedDataset:
    """A full week of households whose wet appliances crowd the weekend."""
    configs = [
        HouseholdConfig(
            household_id=f"we-{i:03d}",
            appliances=("washing-machine-y", "dishwasher-z", "oven", "television"),
            occupants=2 + i % 2,
            frequency_scale={"dishwasher-z": 1.4, "washing-machine-y": 1.2},
        )
        for i in range(n)
    ]
    return _custom_fleet(configs, SCENARIO_START, days, seed)


@lru_cache(maxsize=None)
def large_fleet(n: int = 100, days: int = 2, seed: int = 39) -> SimulatedDataset:
    """A 100-household fleet: the aggregation-at-scale workload (§6)."""
    return generate_fleet(n, SCENARIO_START, days, seed=seed)


@lru_cache(maxsize=None)
def zoned_market_fleet(n: int = 5, days: int = 5, seed: int = 42) -> SimulatedDataset:
    """A fleet scheduled against a *zoned* market (multi-zone targets).

    The households themselves are a plain heterogeneous fleet; what makes
    the scenario distinct is downstream — the conformance runner pairs it
    with a three-zone :class:`~repro.scheduling.zones.ZonedTarget`
    (:func:`repro.pipeline.fleet.fleet_zoned_target`), so every extractor's
    aggregates are sharded across zone markets by household identity, half
    through the explicit assignment policy and half through the hash-shard
    fallback.
    """
    return generate_fleet(n, SCENARIO_START, days, seed=seed)


@dataclass(frozen=True)
class TariffFleet:
    """A fleet of paired tariff studies: observed traces + references.

    ``dataset`` holds each household's *multi-tariff* (observed) trace;
    ``references`` holds the matching one-tariff metering series, index-
    aligned — the per-household behavioural reference the §3.3 multi-tariff
    approach requires.
    """

    dataset: SimulatedDataset
    references: tuple[TimeSeries, ...]
    studies: tuple[TariffStudy, ...]


@lru_cache(maxsize=None)
def tariff_switch_fleet(n: int = 3, days: int = 14, seed: int = 40) -> TariffFleet:
    """Households observed under a night tariff, with one-tariff references."""
    root = np.random.default_rng(seed)
    child_seeds = root.integers(0, 2**63 - 1, size=n)
    studies = []
    for i in range(n):
        config = HouseholdConfig(household_id=f"tf-{i:03d}", occupants=2 + i % 3)
        rng = np.random.default_rng(int(child_seeds[i]))
        studies.append(simulate_tariff_pair(config, SCENARIO_START, days, rng))
    dataset = SimulatedDataset(
        traces=_frozen_traces([s.multi for s in studies]),
        start=SCENARIO_START,
        days=days,
    )
    references = tuple(s.single.metered() for s in studies)
    return TariffFleet(dataset=dataset, references=references, studies=tuple(studies))
