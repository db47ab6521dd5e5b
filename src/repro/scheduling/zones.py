"""Zone-sharded multi-market scheduling of aggregated flex-offers.

The paper's scheduling step (§6 via Tušar et al.) places aggregates
against *one* market target; real balance-responsible parties operate per
grid zone — the space-time load-shifting framing of Zhang & Zavala
(arXiv:2303.10217) and the distribution-grid flexibility-trading setting
of Eck et al. (arXiv:1909.10870).  This module scales the schedule stage
past one market:

* :class:`MarketZone` — one named zone: its own demand profile (the target
  series the zone's offers chase) and its own clearing-price band.
* :class:`ZonedTarget` — the zoned market: the zone list plus the
  assignment policy mapping household/consumer ids to zone names.
* :func:`assign_zones` — the deterministic offer→zone routing: an
  aggregate goes to the zone its routing key (the first member's consumer
  id) is mapped to, falling back to a stable hash shard over the zone
  names for unmapped keys.  The hash is :func:`zlib.crc32`-based, so the
  routing is identical across processes and Python runs (``PYTHONHASHSEED``
  never leaks into schedules).
* :func:`schedule_zones` — the driver: schedules every zone independently
  and in process (each zone is its own greedy run, then the optional
  stochastic improvement runs over every zone in one lockstep pass).  A
  zone run takes tens of milliseconds, so a process pool only ever added
  fork and pickling cost.

Inside each zone the placement engine is selectable via
:class:`~repro.scheduling.greedy.ScheduleConfig` and defaults to the
vectorized engine, like the single-market path; it is gated
placement-identical to the reference loop and benchmarked in
``benchmarks/bench_zones.py`` (``BENCH_zones.json``).
"""

from __future__ import annotations

import zlib
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.aggregation.aggregate import AggregatedFlexOffer
from repro.errors import SchedulingError
from repro.scheduling.greedy import ScheduleConfig, ScheduleResult, greedy_schedule
from repro.scheduling.stochastic import improve_schedule, improve_scope
from repro.timeseries.series import TimeSeries
from repro.wire import Key, wire_format

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.market.clearing import ClearingResult

@dataclass(frozen=True)
class MarketZone:
    """One grid zone of a zoned market.

    ``target`` is the zone's own demand profile — the series its offers
    are scheduled against (e.g. the zone's RES surplus).  ``price_floor``
    and ``price_cap`` bound the zone's clearing price (EUR/kWh): when a
    :class:`~repro.market.model.MarketConfig` is set they parameterise the
    zone's supply ramp in merit-order clearing (:mod:`repro.market`);
    without one they only value the zone's scheduled energy in reports at
    the band midpoint.  ``price_floor == price_cap == 0.0`` means "no
    market" (see :attr:`priced`); clearing refuses such zones loudly.
    """

    name: str
    target: TimeSeries
    price_floor: float = 0.0
    price_cap: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise SchedulingError("zone name must be non-empty")
        if self.price_floor < 0 or self.price_cap < 0:
            raise SchedulingError(f"zone {self.name!r}: prices must be >= 0")
        if self.price_cap < self.price_floor:
            raise SchedulingError(
                f"zone {self.name!r}: price_cap {self.price_cap} below "
                f"price_floor {self.price_floor}"
            )

    @property
    def price_mid(self) -> float:
        """Midpoint of the price band (the report's valuation price)."""
        return 0.5 * (self.price_floor + self.price_cap)

    @property
    def priced(self) -> bool:
        """True when the zone has a real price band a market can clear on.

        The all-zero default band is the explicit "no market" state: it is
        valid for plain zoned placement but rejected by merit-order
        clearing (a zero-width zero ramp would clear everything for free).
        """
        return self.price_floor > 0.0 or self.price_cap > 0.0


@dataclass(frozen=True)
class ZonedTarget:
    """A zoned market: named zones plus the offer-assignment policy.

    ``assignment`` maps routing keys (household/consumer ids — the
    metadata the simulator stamps on every offer) to zone names; keys
    absent from the mapping fall back to the deterministic hash shard of
    :func:`assign_zone`.  The mapping is frozen at construction so a
    zoned target is immutable end to end, like the spec layer.
    """

    zones: tuple[MarketZone, ...]
    assignment: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "zones", tuple(self.zones))
        if not self.zones:
            raise SchedulingError("a zoned target needs at least one zone")
        names = [zone.name for zone in self.zones]
        if len(set(names)) != len(names):
            raise SchedulingError(f"duplicate zone names: {', '.join(names)}")
        unknown = sorted(set(self.assignment.values()) - set(names))
        if unknown:
            raise SchedulingError(
                f"assignment routes to unknown zone(s) {', '.join(unknown)}; "
                f"zones: {', '.join(names)}"
            )
        object.__setattr__(
            self, "assignment", MappingProxyType(dict(self.assignment))
        )

    @property
    def names(self) -> tuple[str, ...]:
        """Zone names in declaration order."""
        return tuple(zone.name for zone in self.zones)

    def zone(self, name: str) -> MarketZone:
        """Look up one zone; raises with the valid names on a miss."""
        for zone in self.zones:
            if zone.name == name:
                return zone
        raise SchedulingError(
            f"unknown zone {name!r}; zones: {', '.join(self.names)}"
        )


def routing_key(aggregate: AggregatedFlexOffer) -> str:
    """The metadata key an aggregate is routed by.

    Aggregates are built from one grouping-grid cell, so their members are
    near-identical in time; the first member's consumer id (the household
    identity the simulator stamps on every offer) identifies where the
    demand physically sits.  Offers without consumer metadata (synthetic
    benchmark offers) fall back to the aggregate's own id — still stable
    and deterministic, routed by the hash shard.
    """
    for member in aggregate.members:
        if member.consumer_id:
            return member.consumer_id
    return aggregate.offer.offer_id


def hash_shard(key: str, names: tuple[str, ...]) -> str:
    """The fallback zone of an unmapped routing key: a stable hash shard.

    ``zlib.crc32`` over the UTF-8 key — deterministic across processes and
    runs (unlike built-in ``hash``), so worker fan-outs and re-runs route
    identically.
    """
    return names[zlib.crc32(key.encode("utf-8")) % len(names)]


def assign_zone(aggregate: AggregatedFlexOffer, zoned: ZonedTarget) -> str:
    """The zone one aggregate is scheduled in.

    Explicit policy first: the aggregate goes to the zone of its first
    member whose consumer id appears in the assignment mapping — grouping
    can merge offers of *different* households into one aggregate, and an
    explicitly assigned household must not be silently overridden just
    because an unmapped household's offer happens to lead the group.  (An
    aggregate is one indivisible offer, so when members are mapped to
    different zones the earliest mapped member still wins — declaration
    order inside the aggregate is deterministic.)  Aggregates with no
    mapped member fall back to their routing key: mapped directly if the
    key itself is in the policy, hash-sharded otherwise.
    """
    for member in aggregate.members:
        mapped = zoned.assignment.get(member.consumer_id)
        if member.consumer_id and mapped is not None:
            return mapped
    key = routing_key(aggregate)
    mapped = zoned.assignment.get(key)
    return mapped if mapped is not None else hash_shard(key, zoned.names)


def zone_name(index: int) -> str:
    """The default name of zone ``index``: ``zone-a`` … ``zone-z``, then
    numeric (``zone-27``, …) so large markets never get non-letter names."""
    if index < 26:
        return f"zone-{chr(ord('a') + index)}"
    return f"zone-{index + 1}"


def make_market_zones(
    axis, count: int, seed: int, zone_kwh: float
) -> tuple[MarketZone, ...]:
    """``count`` deterministic wind-profile zones on one metering axis.

    The shared zone-market constructor behind
    :func:`repro.pipeline.fleet.fleet_zoned_target` and the zones
    benchmark workload: zone ``i`` draws its own wind profile from
    ``default_rng(seed + i)``, rescaled to ``zone_kwh``, with a
    deterministic per-zone price band.
    """
    from repro.simulation.res import simulate_wind_production

    if count < 1:
        raise SchedulingError("a zoned market needs at least one zone")
    zones = []
    for index in range(count):
        name = zone_name(index)
        production = simulate_wind_production(
            axis, np.random.default_rng(seed + index)
        )
        if production.total() > 0 and zone_kwh > 0:
            production = production * (zone_kwh / production.total())
        zones.append(
            MarketZone(
                name=name,
                target=production.with_name(f"{name}-target"),
                price_floor=round(0.02 + 0.01 * index, 4),
                price_cap=round(0.12 + 0.02 * index, 4),
            )
        )
    return tuple(zones)


def assign_zones(
    aggregates: tuple[AggregatedFlexOffer, ...] | list[AggregatedFlexOffer],
    zoned: ZonedTarget,
) -> dict[str, list[AggregatedFlexOffer]]:
    """Partition aggregates into zones, preserving input order per zone.

    Every zone appears in the result (possibly empty), in declaration
    order; every aggregate lands in exactly one zone.
    """
    buckets: dict[str, list[AggregatedFlexOffer]] = {
        name: [] for name in zoned.names
    }
    for aggregate in aggregates:
        buckets[assign_zone(aggregate, zoned)].append(aggregate)
    return buckets


@wire_format(
    "zone",
    widen=True,
    keys=(
        Key("name", str, lambda entry: entry.zone.name),
        Key("price_floor", float, lambda entry: entry.zone.price_floor, 0.0),
        Key("price_cap", float, lambda entry: entry.zone.price_cap, 0.0),
        Key("result", ScheduleResult),
    ),
    build=lambda name, price_floor, price_cap, result: _ZoneEntry(
        MarketZone(name, result.target, price_floor, price_cap), result
    ),
)
class _ZoneEntry(NamedTuple):
    """One zone of a zoned result on the wire: its price band and its
    schedule result, whose target doubles as the zone's demand profile."""

    zone: MarketZone
    result: ScheduleResult


@wire_format(
    "zoned schedule",
    selected_by="zones",
    imports=("repro.market.clearing",),
    keys=(
        Key(
            "zones",
            tuple[_ZoneEntry, ...],
            lambda zoned: tuple(map(_ZoneEntry, zoned.zones, zoned.results)),
        ),
        Key("clearing", "ClearingResult | None", default=None, omit=True),
    ),
    build=lambda zones, clearing: ZonedScheduleResult(
        tuple(entry.zone for entry in zones),
        tuple(entry.result for entry in zones),
        clearing,
    ),
)
@dataclass(frozen=True)
class ZonedScheduleResult:
    """Every zone's scheduling outcome, in zone declaration order.

    ``zones`` are the market zones scheduled; ``results[i]`` is zone
    ``zones[i]``'s :class:`~repro.scheduling.greedy.ScheduleResult` over
    exactly the aggregates routed to it.  Scalar properties sum over
    zones, so a zoned result drops into the same report slots a
    single-market result occupies.  When the run cleared a market first,
    ``clearing`` holds the :class:`~repro.market.clearing.ClearingResult`
    (``None`` for plain zoned placement — old results are unchanged).

    On the wire the ``"zones"`` key tells a zoned result from a plain one;
    the ``"clearing"`` key is omitted when the run never cleared, so
    pre-market documents load and re-encode unchanged.
    """

    zones: tuple[MarketZone, ...]
    results: tuple[ScheduleResult, ...]
    clearing: "ClearingResult | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "zones", tuple(self.zones))
        object.__setattr__(self, "results", tuple(self.results))
        if len(self.zones) != len(self.results):
            raise SchedulingError(
                f"{len(self.zones)} zones but {len(self.results)} results"
            )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(zone.name for zone in self.zones)

    def zone_result(self, name: str) -> ScheduleResult:
        """One zone's schedule, by name."""
        for zone, result in zip(self.zones, self.results):
            if zone.name == name:
                return result
        raise SchedulingError(
            f"unknown zone {name!r}; zones: {', '.join(self.names)}"
        )

    def assignment(self) -> dict[str, str]:
        """Offer id → zone name, over placed and unplaced offers alike."""
        routed: dict[str, str] = {}
        for zone, result in zip(self.zones, self.results):
            for schedule in result.schedules:
                routed[schedule.offer.offer_id] = zone.name
            for offer in result.unplaced:
                routed[offer.offer_id] = zone.name
        return routed

    @property
    def schedules(self):
        """All placements, zone-major (declaration order)."""
        return [s for result in self.results for s in result.schedules]

    @property
    def unplaced(self):
        """All unplaced offers, zone-major (declaration order)."""
        return [o for result in self.results for o in result.unplaced]

    @property
    def cost(self) -> float:
        """Total squared imbalance, summed over zones."""
        return float(sum(result.cost for result in self.results))

    @property
    def baseline_cost(self) -> float:
        """Cost of scheduling nothing in any zone."""
        return float(sum(result.baseline_cost for result in self.results))

    @property
    def improvement(self) -> float:
        """Relative cost reduction vs scheduling nothing (0..1)."""
        base = self.baseline_cost
        return (base - self.cost) / base if base > 0 else 0.0

    @property
    def scheduled_energy(self) -> float:
        """Total energy placed across every zone (kWh)."""
        return float(sum(result.scheduled_energy for result in self.results))

    @property
    def market_value(self) -> float:
        """Scheduled energy valued at each zone's price-band midpoint (EUR)."""
        return float(
            sum(
                zone.price_mid * result.scheduled_energy
                for zone, result in zip(self.zones, self.results)
            )
        )

    def summary(self) -> dict[str, float]:
        """Scalar overview matching :meth:`ScheduleResult.summary`'s keys.

        Market-cleared runs append the clearing's welfare metrics
        (``market_*`` keys); plain zoned runs keep the historical shape.
        """
        summary: dict[str, float] = {
            "schedule_placed": float(len(self.schedules)),
            "schedule_unplaced": float(len(self.unplaced)),
            "schedule_cost": self.cost,
            "schedule_improvement": self.improvement,
            "schedule_energy_kwh": self.scheduled_energy,
            "schedule_zones": float(len(self.zones)),
            "schedule_value_eur": self.market_value,
        }
        if self.clearing is not None:
            summary.update(
                (key, float(value))
                for key, value in self.clearing.summary().items()
            )
        return summary

    def zone_rows(self) -> list[dict[str, float | str]]:
        """One human-readable row per zone (CLI output)."""
        return [
            {
                "zone": zone.name,
                "placed": len(result.schedules),
                "unplaced": len(result.unplaced),
                "target_kwh": round(result.target.total(), 2),
                "scheduled_kwh": round(result.scheduled_energy, 2),
                "improvement": f"{result.improvement:.1%}",
                "value_eur": round(zone.price_mid * result.scheduled_energy, 2),
            }
            for zone, result in zip(self.zones, self.results)
        ]


def schedule_zones(
    aggregates: tuple[AggregatedFlexOffer, ...] | list[AggregatedFlexOffer],
    zoned: ZonedTarget,
    config: ScheduleConfig | None = None,
) -> ZonedScheduleResult:
    """Schedule every zone of a zoned market independently.

    Aggregates are routed by :func:`assign_zones` (explicit assignment,
    hash-shard fallback); each zone then runs the greedy placement against
    its own target, one zone after another in this process.  The optional
    stochastic-improvement pass of ``config`` follows for every zone at
    once: each zone keeps its own generator seeded from
    ``config.improve_seed`` and its own residual, and one lockstep run
    (:func:`~repro.scheduling.stochastic.improve_scope`) answers the
    per-zone :func:`~repro.scheduling.stochastic.improve_schedule` calls,
    bitwise what zone-by-zone runs give.

    With ``config.market`` set, merit-order clearing runs *before*
    placement (:func:`repro.market.clearing.clear_zones`): only cleared
    bids are scheduled — in the zone they cleared in, which for spilled
    bids differs from their home zone — and rejected bids surface as
    unplaced offers of their home zone.  Clearing requires every zone to
    be priced (:attr:`MarketZone.priced`).  Zoned markets keep point
    scheduling: a ``config.robust`` is refused.
    """
    config = config if config is not None else ScheduleConfig()
    if config.robust is not None:
        raise SchedulingError(
            "robust placement applies to plain targets only; zoned markets "
            "keep point scheduling: drop the robust config or schedule a "
            "plain target"
        )
    clearing = None
    rejected: dict[str, list] = {}
    if config.market is not None:
        unpriced = sorted(zone.name for zone in zoned.zones if not zone.priced)
        if unpriced:
            raise SchedulingError(
                f"market clearing requested but zone(s) {', '.join(unpriced)} "
                "have no price band (price_floor == price_cap == 0.0); set "
                "price_floor/price_cap on the zone or drop the market config"
            )
        from repro.market.clearing import clear_zones

        clearing = clear_zones(aggregates, zoned, config.market)
        outcomes = clearing.by_offer()
        buckets = {zone.name: [] for zone in zoned.zones}
        rejected = {zone.name: [] for zone in zoned.zones}
        for aggregate in aggregates:
            outcome = outcomes[aggregate.offer.offer_id]
            if outcome.cleared:
                buckets[outcome.zone].append(aggregate)
            else:
                rejected[outcome.home_zone].append(aggregate.offer)
    else:
        buckets = assign_zones(aggregates, zoned)
    results = [
        greedy_schedule(
            [aggregate.offer for aggregate in buckets[zone.name]],
            zone.target,
            config=config,
        )
        for zone in zoned.zones
    ]
    if config.improve_iterations > 0:
        # One generator per zone, seeded alike, as a lone zone's run is;
        # one improve_schedule call per zone, answered by one lockstep run.
        rngs = [np.random.default_rng(config.improve_seed) for _ in results]
        iterations = config.improve_iterations
        with improve_scope(results, rngs, iterations):
            results = [
                improve_schedule(
                    result, rng, iterations=iterations, engine=config.engine
                )
                for result, rng in zip(results, rngs)
            ]
    if clearing is not None:
        # Market-rejected bids were never handed to placement; account for
        # them as unplaced offers of their home zone.
        results = [
            replace(result, unplaced=list(result.unplaced) + rejected[zone.name])
            for zone, result in zip(zoned.zones, results)
        ]
    return ZonedScheduleResult(zones=zoned.zones, results=results, clearing=clearing)
