"""The declarative scenario matrix: workloads × registered extractors.

A :class:`ConformanceScenario` names one deterministic fleet workload (a
cached builder from :mod:`repro.workloads.scenarios`) plus the per-approach
construction overrides it needs (e.g. the heat-pump fleet hands the
extended appliance catalogue to the appliance-level extractors; the
tariff-switch fleet hands each household its own one-tariff reference).

Compatibility is explicit and queryable: :func:`incompatibility` states
*why* a cell is excluded, :func:`matrix_cells` enumerates every cell the
conformance runner (and the tier-2 pytest suite) must prove.  Related work
motivates the axes: flexibility varies by time and season (Kara et al.)
and by device mix — EVs, heat pumps, PV (Salter & Huang).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Any

from repro.api.registry import ExtractorEntry, available_extractors, get_entry
from repro.errors import ReproError


class ConformanceError(ReproError):
    """Raised for unknown scenario names or malformed matrix queries."""


@dataclass(frozen=True)
class ConformanceScenario:
    """One named workload of the conformance matrix.

    Parameters
    ----------
    name:
        Stable matrix-wide identifier (kebab-case, used by CLI and tests).
    description:
        One line of intent: what behaviour this workload stresses.
    build:
        Zero-argument cached builder returning the scenario's
        :class:`~repro.simulation.dataset.SimulatedDataset`.  Builders are
        ``lru_cache``-backed, so every cell sharing a scenario shares one
        simulation.
    tags:
        Capability/trait markers consumed by the compatibility rules
        (``appliance`` admits the strict 1-minute approaches, ``tariff``
        admits the multi-tariff approach, ...) and by the runner
        (``zoned`` pairs the scenario's schedule stage with a multi-zone
        :class:`~repro.scheduling.zones.ZonedTarget` instead of a single
        market target).
    seed:
        Base seed for the per-household extraction rng streams.
    extractor_params:
        Per-approach constructor overrides, e.g.
        ``{"frequency-based": {"database": extended_database()}}``.
    per_household_params:
        Per-approach *per-household* overrides: ``name -> (index -> params)``.
        Approaches listed here (the multi-tariff approach with its
        per-consumer reference series) run through a per-household loop
        instead of a single shared pipeline extractor.
    """

    name: str
    description: str
    build: Callable[[], Any]
    tags: frozenset[str] = frozenset()
    seed: int = 0
    extractor_params: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    per_household_params: Mapping[str, Callable[[int], Mapping[str, Any]]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "tags", frozenset(self.tags))
        object.__setattr__(
            self, "extractor_params", MappingProxyType(dict(self.extractor_params))
        )
        object.__setattr__(
            self,
            "per_household_params",
            MappingProxyType(dict(self.per_household_params)),
        )

    def params_for(self, approach: str) -> dict[str, Any]:
        """This scenario's constructor overrides for one approach."""
        return dict(self.extractor_params.get(approach, {}))


@lru_cache(maxsize=None)
def scenario_matrix() -> tuple[ConformanceScenario, ...]:
    """The full scenario matrix, built once per process.

    Scenario builders themselves stay uncalled until a cell needs them;
    only the heat-pump catalogue and the tariff-reference closures are
    prepared here.
    """
    from repro.appliances.database import extended_database
    from repro.workloads import scenarios as w

    heatpump_db = extended_database()
    appliance_db_params = {
        "frequency-based": {"database": heatpump_db},
        "schedule-based": {"database": heatpump_db},
    }

    def tariff_reference(index: int) -> dict[str, Any]:
        return {"reference": w.tariff_switch_fleet().references[index]}

    return (
        ConformanceScenario(
            name="seasonal-winter",
            description="Deep-winter week: heating-season base load and lighting",
            build=w.winter_fleet,
            tags=frozenset({"appliance", "seasonal"}),
        ),
        ConformanceScenario(
            name="seasonal-summer",
            description="Mid-summer week: no winter lighting, lighter base load",
            build=w.summer_fleet,
            tags=frozenset({"appliance", "seasonal"}),
        ),
        ConformanceScenario(
            name="dst-transition-week",
            description="The 2012 European spring-forward week (Mon..Sun over 03-25)",
            build=w.dst_transition_fleet,
            tags=frozenset({"appliance", "calendar"}),
        ),
        ConformanceScenario(
            name="dst-fallback-week",
            description="The 2012 European autumn fall-back week (Mon..Sun over 10-28)",
            build=w.dst_fallback_fleet,
            tags=frozenset({"appliance", "calendar"}),
        ),
        ConformanceScenario(
            name="gap-ridden-metering",
            description="Meters with 30-180 min dead windows (outages read zero)",
            build=w.gap_ridden_fleet,
            tags=frozenset({"appliance", "degraded"}),
        ),
        ConformanceScenario(
            name="ev-heavy",
            description="Every household charges an EV; 30-70 kWh flexible cycles",
            build=w.ev_heavy_fleet,
            tags=frozenset({"appliance", "device-mix"}),
        ),
        ConformanceScenario(
            name="heat-pump-winter",
            description="Winter fleet of heat-pump households (extended catalogue)",
            build=w.heat_pump_fleet,
            tags=frozenset({"appliance", "device-mix", "seasonal"}),
            extractor_params=appliance_db_params,
        ),
        ConformanceScenario(
            name="pv-prosumer",
            description="Net-metered PV prosumers: midday troughs mask appliances",
            build=w.pv_prosumer_fleet,
            tags=frozenset({"appliance", "prosumer"}),
        ),
        ConformanceScenario(
            name="weekend-skewed",
            description="Full week with wet-appliance usage crowded onto weekends",
            build=w.weekend_skewed_fleet,
            tags=frozenset({"appliance", "behavioural"}),
        ),
        ConformanceScenario(
            name="large-fleet",
            description="100 households: aggregation at fleet scale (paper §6)",
            build=w.large_fleet,
            tags=frozenset({"scale"}),
        ),
        ConformanceScenario(
            name="zoned-market",
            description="Three-zone market: aggregates sharded by household, "
            "zoned schedule stage",
            build=w.zoned_market_fleet,
            tags=frozenset({"appliance", "zoned", "market"}),
        ),
        ConformanceScenario(
            name="priced-market",
            description="Three-zone priced market: merit-order clearing "
            "before placement, spill couplings between adjacent zones",
            build=w.zoned_market_fleet,
            tags=frozenset({"appliance", "zoned", "market", "priced"}),
        ),
        ConformanceScenario(
            name="tariff-switch",
            description="Night-tariff households with per-consumer one-tariff references",
            build=lambda: w.tariff_switch_fleet().dataset,
            tags=frozenset({"appliance", "tariff", "behavioural"}),
            per_household_params={"multi-tariff": tariff_reference},
        ),
    )


def scenario_names() -> tuple[str, ...]:
    """All matrix scenario names, in declaration order."""
    return tuple(s.name for s in scenario_matrix())


def get_scenario(name: str) -> ConformanceScenario:
    """Look up one scenario; raises with the valid names on a miss."""
    for scenario in scenario_matrix():
        if scenario.name == name:
            return scenario
    raise ConformanceError(
        f"unknown conformance scenario {name!r}; available: "
        f"{', '.join(scenario_names())}"
    )


def incompatibility(scenario: ConformanceScenario, entry: ExtractorEntry) -> str | None:
    """Why a (scenario, extractor) cell is excluded — or ``None`` if it runs.

    Two rules only, both capability-driven:

    * the multi-tariff approach needs a per-consumer one-tariff reference,
      which only tariff-paired scenarios carry;
    * the strict 1-minute (appliance-level) approaches run on every
      scenario tagged ``appliance`` — the 100-household scale scenario
      deliberately budgets household-level approaches only.
    """
    if entry.name == "multi-tariff" and "tariff" not in scenario.tags:
        return "needs a per-household one-tariff reference series (tariff scenarios only)"
    if entry.input == "total" and "appliance" not in scenario.tags:
        return "appliance-level extraction not budgeted on this scenario"
    return None


def matrix_cells(
    scenarios: tuple[str, ...] | list[str] | None = None,
    extractors: tuple[str, ...] | list[str] | None = None,
) -> list[tuple[ConformanceScenario, ExtractorEntry]]:
    """Every compatible (scenario, extractor) cell of the (sub)matrix.

    ``scenarios``/``extractors`` restrict the cross product by name;
    unknown names raise rather than silently shrinking the matrix.
    """
    chosen_scenarios = (
        [get_scenario(name) for name in scenarios]
        if scenarios is not None
        else list(scenario_matrix())
    )
    names = (
        tuple(extractors) if extractors is not None else available_extractors()
    )
    entries = [get_entry(name) for name in names]
    return [
        (scenario, entry)
        for scenario in chosen_scenarios
        for entry in entries
        if incompatibility(scenario, entry) is None
    ]
