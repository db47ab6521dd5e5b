"""The reusable invariant library of the conformance matrix.

Each invariant is a pure function ``CellRun -> InvariantResult`` checking
one facet of the extraction contract (paper §2/Figure 2 plus the system
guarantees added by the pipeline and API layers):

``offer-validity``
    Every emitted flex-offer and fleet aggregate passes the §3.1 policy
    checks (:mod:`repro.flexoffer.validate`), with production-level offers
    allowed their negative-energy sign convention; ids are unique.
``energy-conservation``
    For conservative approaches, per-household ``|extracted − removed|``
    stays within tolerance and the offer profile midpoints account for
    exactly the reported extracted energy.
``aggregate-roundtrip``
    Aggregation partitions the offers exactly, and every aggregate's
    schedules (min/max energy at earliest start, midpoint at latest start)
    disaggregate into feasible member schedules that reproduce the
    aggregate's per-interval energy — the N-to-1 contract of paper [4].
``batched-equals-sequential``
    The batched :class:`~repro.pipeline.FleetPipeline` result is *exactly*
    the sequential reference loop's — offer ids included (deterministic
    per-household id scopes).
``engine-fidelity``
    For approaches with a pluggable matching engine, the vectorized engine
    reproduces the reference engine's offers within float round-off.
``scheduling-feasibility``
    The schedule stage (greedy placement of the fleet aggregates) and a
    stochastic-improvement pass over it respect every offer's time window
    and slice bounds, partition the aggregates, and never regress cost —
    zone by zone on zoned cells.
``zone-partition``
    Zoned cells only: every aggregate is scheduled in exactly one zone,
    in the zone the assignment policy (explicit household mapping,
    hash-shard fallback) routes it to — or, on market-cleared cells, the
    zone its clearing outcome placed it in — and each zone's demand plan
    conserves its placements' energy.
``market-clearing``
    Market-cleared cells only: the auction settles every cleared bid at
    its slice's uniform price (budget balance), never charges a bid more
    than it bid (individual rationality), and never rejects a bid as
    priced-out while accepting a cheaper one in the same zone and slice
    (merit-order consistency).
``grouping-monotonicity``
    Coarsening the grouping grid is monotone: doubling the (start,
    flexibility) tolerances — 1x, 2x, 4x — never increases the number of
    groups the cell's offers aggregate into.
``report-roundtrip``
    The cell's output survives the RunSpec→RunReport JSON wire format
    losslessly and deterministically.
``committed-placement-stability``
    A mini rolling-horizon session over the cell's first two households
    never moves a committed placement: once a placement falls inside the
    commit horizon, every later replan reproduces it bitwise, both in the
    committed ledger and in the combined schedule.
``crash-recovery-equivalence``
    The durability contract: a journaled mini-session killed at an event
    boundary and recovered via :class:`~repro.session.SessionJournal`
    (latest snapshot + WAL tail) finishes the remaining events in a state
    bitwise identical to the uninterrupted run's final snapshot.
``replan-no-worse-realized``
    The uncertainty contract of the robust-scheduling subsystem: a
    mini-session that committed its early placements and then learns the
    *realized* series (a deterministic perturbation of the cell's target)
    never does worse by re-planning the open window against it — the
    re-planned schedule's realized imbalance is at most the stale
    schedule's, committed placements frozen in both.
``fleet-monotonicity``
    Metamorphic: doubling the cell's (mini) fleet — every household
    cloned with fresh ids but the *same* extraction rng seeds — never
    shrinks the total energy the extract→group→aggregate chain emits.
    More flexibility in can never mean less flexibility out.
``disaggregation-fairness``
    Across schedule→disaggregate probes of the cell's multi-member
    aggregates, no member is systematically starved: every member's
    allocated energy share stays above a floor proportional to its
    capacity share, and the spread of allocation/capacity ratios stays
    under a pinned Gini bound.

Invariants never raise on contract violations — they return them as
messages — so one broken cell cannot hide the rest of the matrix.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ReproError
from repro.flexoffer.model import FlexOffer
from repro.flexoffer.schedule import default_schedule
from repro.flexoffer.validate import PolicyLimits, check_all
from repro.wire import Encodable, wire_format

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.registry import ExtractorEntry
    from repro.conformance.matrix import ConformanceScenario
    from repro.extraction.base import FlexibilityExtractor
    from repro.pipeline.fleet import FleetResult
    from repro.simulation.dataset import SimulatedDataset

#: Registry levels whose approaches do not remove energy from the input
#: (the random baseline invents offers; production offers describe a
#: forecast, they do not modify it).
NON_CONSERVATIVE_LEVELS: frozenset[str] = frozenset({"baseline", "production"})

#: Absolute per-household tolerance on |extracted − removed| (kWh).
CONSERVATION_TOLERANCE_KWH = 1e-6

#: Schedule probes of the aggregate round-trip: (energy level, start kind).
_ROUNDTRIP_PROBES: tuple[tuple[float, str], ...] = (
    (0.0, "earliest"),
    (1.0, "earliest"),
    (0.5, "latest"),
)

#: Schedule probes of the disaggregation-fairness check.  Deliberately
#: excludes the all-minimum probe (level 0.0): at minimum energy every
#: member legitimately receives only its own floor, which says nothing
#: about how *discretionary* energy is shared.
_FAIRNESS_PROBES: tuple[tuple[float, str], ...] = (
    (0.5, "earliest"),
    (1.0, "earliest"),
    (0.5, "latest"),
)

#: Fairness floor: each member must receive at least this fraction of its
#: capacity-proportional share of the energy actually allocated.
FAIRNESS_MIN_SHARE = 0.2

#: Fairness spread bound on the members' allocation/capacity ratios.
#: 0.0 is perfectly proportional sharing; the slack admits the slack-
#: proportional remainder rule's legitimate tilt toward flexible members.
FAIRNESS_GINI_BOUND = 0.5

#: How many multi-member aggregates the fairness check probes per cell
#: (bounds invariant cost on offer-heavy cells; aggregates are probed in
#: deterministic report order).
FAIRNESS_MAX_AGGREGATES = 6


@wire_format("invariant result")
@dataclass(frozen=True)
class InvariantResult(Encodable):
    """Outcome of one invariant on one cell."""

    name: str
    status: str  # "pass" | "fail" | "skipped"
    violations: tuple[str, ...] = ()
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status not in ("pass", "fail", "skipped"):
            raise ValueError(f"bad invariant status {self.status!r}")
        object.__setattr__(self, "violations", tuple(self.violations))


def _passed(name: str, detail: str = "") -> InvariantResult:
    return InvariantResult(name=name, status="pass", detail=detail)


def _skipped(name: str, detail: str) -> InvariantResult:
    return InvariantResult(name=name, status="skipped", detail=detail)


def _outcome(name: str, violations: list[str], detail: str = "") -> InvariantResult:
    if violations:
        return InvariantResult(
            name=name, status="fail", violations=tuple(violations), detail=detail
        )
    return _passed(name, detail)


@dataclass(frozen=True)
class CellRun:
    """Everything the invariants may inspect about one executed cell."""

    scenario: "ConformanceScenario"
    entry: "ExtractorEntry"
    fleet: "SimulatedDataset"
    result: "FleetResult"
    #: The sequential-loop rerun, or ``None`` for per-household approaches
    #: (which have no single shared pipeline extractor to compare against).
    sequential: "FleetResult | None"
    #: The schedule-stage target the cell actually ran against (a
    #: ``TimeSeries``, or a ``ZonedTarget`` on zoned scenarios) — carried
    #: here so invariants validate against the very policy that scheduled,
    #: never a recomputation that could drift from it.
    target: Any = None
    #: Build a fresh extractor of this cell's approach, with overrides
    #: (used by the engine-fidelity invariant to flip ``engine``).
    make_extractor: Callable[..., "FlexibilityExtractor"] = field(repr=False, default=None)


# ---------------------------------------------------------------------- #
# Invariants
# ---------------------------------------------------------------------- #


def check_offer_validity(run: CellRun) -> InvariantResult:
    """Policy validity of every offer and every fleet aggregate."""
    offers = list(run.result.offers)
    if run.entry.level == "production":
        limits = PolicyLimits(min_total_energy=float("-inf"))
    else:
        limits = PolicyLimits()
    violations = list(check_all(offers, limits))
    # Aggregates: profile lengths may exceed one day (members embed at
    # offsets) and production aggregates stay sign-flipped.
    aggregate_limits = PolicyLimits(max_slices=None, min_total_energy=float("-inf"))
    seen: set[str] = {o.offer_id for o in offers}
    for aggregate in run.result.aggregates:
        violations.extend(aggregate_limits.check(aggregate.offer))
        if aggregate.offer.offer_id in seen:
            violations.append(f"duplicate aggregate id: {aggregate.offer.offer_id}")
        seen.add(aggregate.offer.offer_id)
    return _outcome(
        "offer-validity",
        violations,
        detail=f"{len(offers)} offers, {len(run.result.aggregates)} aggregates",
    )


def check_energy_conservation(run: CellRun) -> InvariantResult:
    """Extracted offer energy equals the energy removed from the input."""
    if run.entry.level in NON_CONSERVATIVE_LEVELS:
        return _skipped(
            "energy-conservation",
            f"{run.entry.level}-level approaches do not remove input energy",
        )
    violations: list[str] = []
    for household in run.result.households:
        error = household.summary.get("conservation_error_kwh")
        if error is None:
            violations.append(
                f"{household.household_id}: summary lacks conservation_error_kwh"
            )
        elif error > CONSERVATION_TOLERANCE_KWH:
            violations.append(
                f"{household.household_id}: conservation error {error:.3e} kWh "
                f"exceeds {CONSERVATION_TOLERANCE_KWH:.0e}"
            )
    midpoint_total = float(
        sum(s.midpoint for offer in run.result.offers for s in offer.slices)
    )
    reported_total = float(
        sum(h.summary.get("extracted_kwh", 0.0) for h in run.result.households)
    )
    if abs(midpoint_total - reported_total) > CONSERVATION_TOLERANCE_KWH * max(
        1.0, abs(reported_total)
    ):
        violations.append(
            f"offer midpoints sum to {midpoint_total:.6f} kWh but households "
            f"report {reported_total:.6f} kWh extracted"
        )
    return _outcome(
        "energy-conservation",
        violations,
        detail=f"fleet extracted {reported_total:.3f} kWh",
    )


def _roundtrip_one(aggregate, level: float, start_kind: str) -> list[str]:
    """One schedule probe of one aggregate; returns violation messages."""
    offer = aggregate.offer
    start = offer.earliest_start if start_kind == "earliest" else offer.latest_start
    label = f"{offer.offer_id} (level={level}, start={start_kind})"
    try:
        schedule = default_schedule(offer, start=start, level=level)
        parts = _disaggregate(aggregate, schedule)
    except ReproError as exc:
        return [f"{label}: round-trip raised {type(exc).__name__}: {exc}"]
    if len(parts) != len(aggregate.members):
        return [f"{label}: {len(parts)} member schedules for {len(aggregate.members)} members"]
    target = schedule.interval_energies()
    reconstructed = np.zeros_like(target)
    for part, offset in zip(parts, aggregate.member_offsets):
        energies = part.interval_energies()
        reconstructed[offset : offset + len(energies)] += energies
    if not np.allclose(reconstructed, target, rtol=1e-9, atol=1e-9):
        worst = float(np.max(np.abs(reconstructed - target)))
        return [f"{label}: member energies miss the aggregate schedule by {worst:.3e} kWh"]
    return []


def _disaggregate(aggregate, schedule):
    from repro.aggregation.aggregate import disaggregate_schedule

    return disaggregate_schedule(aggregate, schedule)


def check_aggregate_roundtrip(run: CellRun) -> InvariantResult:
    """Aggregation partitions the offers and disaggregation is lossless."""
    violations: list[str] = []
    offers = list(run.result.offers)
    member_ids = [m.offer_id for a in run.result.aggregates for m in a.members]
    if sorted(member_ids) != sorted(o.offer_id for o in offers):
        violations.append(
            f"aggregates carry {len(member_ids)} members for {len(offers)} offers "
            f"(partition broken)"
        )
    for aggregate in run.result.aggregates:
        for level, start_kind in _ROUNDTRIP_PROBES:
            violations.extend(_roundtrip_one(aggregate, level, start_kind))
    return _outcome(
        "aggregate-roundtrip",
        violations,
        detail=f"{len(run.result.aggregates)} aggregates x {len(_ROUNDTRIP_PROBES)} probes",
    )


def check_batched_equals_sequential(run: CellRun) -> InvariantResult:
    """The batched pipeline reproduces the sequential loop exactly."""
    from repro.pipeline.fleet import results_identical

    if run.sequential is None:
        return _skipped(
            "batched-equals-sequential",
            "per-household extractor parameters; no shared pipeline extractor",
        )
    violations: list[str] = []
    if not results_identical(run.result, run.sequential):
        batched, sequential = run.result, run.sequential
        if len(batched.offers) != len(sequential.offers):
            violations.append(
                f"offer counts differ: batched {len(batched.offers)} vs "
                f"sequential {len(sequential.offers)}"
            )
        else:
            for index, (a, b) in enumerate(zip(batched.offers, sequential.offers)):
                if a != b:
                    violations.append(
                        f"offer {index} differs: {a.offer_id} vs {b.offer_id}"
                    )
                    break
            else:
                violations.append("aggregates or household summaries differ")
    return _outcome(
        "batched-equals-sequential",
        violations,
        detail="exact equality, offer ids included",
    )


def check_engine_fidelity(run: CellRun) -> InvariantResult:
    """The vectorized matching engine matches the reference engine."""
    import dataclasses

    from repro.api.registry import input_series_for
    from repro.bench import FIDELITY_RTOL
    from repro.pipeline.fleet import offers_equivalent

    if "matching" not in {f.name for f in dataclasses.fields(run.entry.cls)}:
        return _skipped(
            "engine-fidelity", "approach has no pluggable matching engine"
        )
    from repro.pipeline.fleet import stamp_household

    trace = run.fleet.traces[0]
    reference = run.make_extractor(engine="reference")
    series = input_series_for(reference, trace)
    rng = np.random.default_rng(run.scenario.seed)  # household 0's stream
    # The pipeline stamps household identity onto ownerless offers; the
    # bare re-extraction here must be stamped the same way to compare.
    reference_offers = list(
        stamp_household(
            reference.extract(series, rng).offers, trace.config.household_id
        )
    )
    vectorized_offers: list[FlexOffer] = list(run.result.households[0].offers)
    violations: list[str] = []
    if not offers_equivalent(vectorized_offers, reference_offers, rtol=FIDELITY_RTOL):
        violations.append(
            f"household 0: vectorized engine emitted {len(vectorized_offers)} "
            f"offers, reference engine {len(reference_offers)}; profiles differ "
            f"beyond rtol={FIDELITY_RTOL:g}"
        )
    return _outcome(
        "engine-fidelity",
        violations,
        detail=f"household 0, rtol={FIDELITY_RTOL:g}",
    )


def _schedule_violations(label: str, result) -> list[str]:
    """Bounds/partition checks on one scheduling run (shared by probes)."""
    violations: list[str] = []
    tolerance = 1e-9
    demand = np.zeros_like(result.demand.values)
    axis = result.demand.axis
    for schedule in result.schedules:
        offer = schedule.offer
        prefix = f"{label}: {offer.offer_id}"
        if not offer.earliest_start <= schedule.start <= offer.latest_start:
            violations.append(
                f"{prefix} starts at {schedule.start} outside "
                f"[{offer.earliest_start}, {offer.latest_start}]"
            )
        if (schedule.start - offer.earliest_start) % offer.resolution:
            violations.append(
                f"{prefix} start {schedule.start} is off the offer's grid"
            )
        for i, (energy, sl) in enumerate(zip(schedule.slice_energies, offer.slices)):
            if not sl.energy_min - tolerance <= energy <= sl.energy_max + tolerance:
                violations.append(
                    f"{prefix} slice {i} energy {energy} outside "
                    f"[{sl.energy_min}, {sl.energy_max}]"
                )
        tmin, tmax = offer.effective_total_bounds()
        if not tmin - tolerance <= schedule.total_energy <= tmax + tolerance:
            violations.append(
                f"{prefix} total {schedule.total_energy} outside [{tmin}, {tmax}]"
            )
        first = axis.index_of(schedule.start)
        energies = schedule.interval_energies()
        demand[first : first + len(energies)] += energies
    if not np.allclose(demand, result.demand.values, rtol=1e-9, atol=1e-9):
        worst = float(np.max(np.abs(demand - result.demand.values)))
        violations.append(
            f"{label}: demand plan misses the summed placements by {worst:.3e} kWh"
        )
    return violations


def check_scheduling_feasibility(run: CellRun) -> InvariantResult:
    """Greedy and stochastic scheduler output respects every offer's bounds.

    The cell's schedule stage (greedy placement of the fleet aggregates on
    the scenario target) and a stochastic-improvement pass over it must
    both produce placements inside each offer's time window and slice
    energy bounds and partition the aggregates into placed + unplaced; the
    stochastic pass must never cost more than its input.  (Greedy cost may
    legitimately exceed the do-nothing baseline: every offer's minimum
    energy must run somewhere, even when the target is already soaked up.)
    Zoned cells are checked zone by zone — each zone is its own
    independent scheduling run.
    """
    from repro.scheduling.stochastic import improve_schedule
    from repro.scheduling.zones import ZonedScheduleResult

    schedule = run.result.schedule
    if schedule is None:
        return _skipped(
            "scheduling-feasibility", "cell ran without a schedule stage"
        )
    violations: list[str] = []
    scheduled_ids = sorted(
        [s.offer.offer_id for s in schedule.schedules]
        + [o.offer_id for o in schedule.unplaced]
    )
    aggregate_ids = sorted(a.offer.offer_id for a in run.result.aggregates)
    if scheduled_ids != aggregate_ids:
        violations.append(
            f"schedule covers {len(scheduled_ids)} aggregates of "
            f"{len(aggregate_ids)} (partition broken)"
        )
    if isinstance(schedule, ZonedScheduleResult):
        parts = [
            (f"[{zone.name}]", result)
            for zone, result in zip(schedule.zones, schedule.results)
        ]
    else:
        parts = [("", schedule)]
    for suffix, part in parts:
        violations.extend(_schedule_violations(f"greedy{suffix}", part))
        try:
            improved = improve_schedule(
                part, np.random.default_rng(run.scenario.seed), iterations=60
            )
        except ReproError as exc:
            violations.append(
                f"stochastic improver{suffix} raised {type(exc).__name__}: {exc}"
            )
        else:
            violations.extend(_schedule_violations(f"stochastic{suffix}", improved))
            if improved.cost > part.cost + 1e-9:
                violations.append(
                    f"stochastic{suffix} cost {improved.cost:.6f} worse than "
                    f"its input {part.cost:.6f}"
                )
    return _outcome(
        "scheduling-feasibility",
        violations,
        detail=(
            f"{len(schedule.schedules)} placed, {len(schedule.unplaced)} "
            f"unplaced, improvement {schedule.improvement:.1%}"
        ),
    )


def check_zone_partition(run: CellRun) -> InvariantResult:
    """Zoned cells: every aggregate lands in exactly one zone, energy intact.

    Three facets of the zone-sharded schedule stage:

    * **partition** — the union of per-zone placed + unplaced offers is
      exactly the fleet's aggregates, with no offer in two zones;
    * **policy** — each aggregate sits in the zone the assignment policy
      (explicit household mapping, hash-shard fallback) of the cell's own
      zoned target routes it to; on market-cleared cells the clearing
      outcome is the routing authority instead (spilled bids legitimately
      land in an adjacent zone, rejected bids stay home as unplaced), but
      every bid's *home* zone must still match the assignment policy;
    * **per-zone energy conservation** — each zone's demand plan carries
      exactly the energy of the placements it claims (≤ 1e-6 kWh off).
    """
    from repro.scheduling.zones import ZonedScheduleResult, ZonedTarget, assign_zone

    schedule = run.result.schedule
    if not isinstance(schedule, ZonedScheduleResult):
        return _skipped("zone-partition", "cell ran without a zoned schedule stage")
    if not isinstance(run.target, ZonedTarget):
        return InvariantResult(
            name="zone-partition",
            status="fail",
            violations=(
                "cell produced a zoned schedule but carries no ZonedTarget "
                "to validate its routing against",
            ),
        )
    violations: list[str] = []
    per_zone_ids = [
        [s.offer.offer_id for s in result.schedules]
        + [o.offer_id for o in result.unplaced]
        for result in schedule.results
    ]
    flat = [offer_id for ids in per_zone_ids for offer_id in ids]
    if len(flat) != len(set(flat)):
        doubled = sorted({i for i in flat if flat.count(i) > 1})
        violations.append(f"offer(s) scheduled in more than one zone: {doubled}")
    aggregate_ids = sorted(a.offer.offer_id for a in run.result.aggregates)
    if sorted(flat) != aggregate_ids:
        violations.append(
            f"zones cover {len(flat)} offers of {len(aggregate_ids)} "
            f"aggregates (partition broken)"
        )
    zoned = run.target
    routed = schedule.assignment()
    outcomes = schedule.clearing.by_offer() if schedule.clearing is not None else None
    for aggregate in run.result.aggregates:
        offer_id = aggregate.offer.offer_id
        policy_zone = assign_zone(aggregate, zoned)
        expected = policy_zone
        if outcomes is not None:
            outcome = outcomes.get(offer_id)
            if outcome is None:
                violations.append(f"{offer_id}: missing from the clearing result")
                continue
            if outcome.home_zone != policy_zone:
                violations.append(
                    f"{offer_id}: clearing home zone {outcome.home_zone!r}, "
                    f"policy routes it to {policy_zone!r}"
                )
            # Cleared bids are scheduled where they cleared (possibly an
            # adjacent zone via spill); rejected bids stay home, unplaced.
            expected = outcome.zone if outcome.cleared else outcome.home_zone
        actual = routed.get(offer_id)
        if actual != expected:
            violations.append(
                f"{offer_id}: scheduled in zone {actual!r}, "
                f"policy routes it to {expected!r}"
            )
    for zone, result in zip(schedule.zones, schedule.results):
        placed = float(sum(s.total_energy for s in result.schedules))
        planned = float(result.demand.values.sum())
        if abs(placed - planned) > CONSERVATION_TOLERANCE_KWH * max(1.0, abs(placed)):
            violations.append(
                f"zone {zone.name}: demand plan carries {planned:.6f} kWh for "
                f"{placed:.6f} kWh of placements"
            )
    return _outcome(
        "zone-partition",
        violations,
        detail=(
            f"{len(schedule.zones)} zones, "
            f"{len(schedule.schedules)} placed offers"
        ),
    )


def check_market_clearing(run: CellRun) -> InvariantResult:
    """Market-cleared cells: the auction is a well-formed uniform-price one.

    Three economic facets of the clearing result:

    * **budget balance** — in every (zone, market slice), the payments of
      the cleared bids equal the slice's uniform price times its cleared
      quantity, so consumer payments and producer revenue are the same
      money;
    * **individual rationality** — no cleared bid pays more per kWh than
      its bid price (the uniform price sits at or below every accepted
      bid, first pass and spill pass alike);
    * **merit-order consistency** — within one (zone, slice), a bid the
      auction rejected as ``"priced-out"`` never bids strictly more than
      a locally accepted bid (migrated arrivals are excluded: the spill
      pass runs after, and under, the local merit order).
    """
    from repro.scheduling.zones import ZonedScheduleResult

    schedule = run.result.schedule
    if (
        not isinstance(schedule, ZonedScheduleResult)
        or schedule.clearing is None
    ):
        return _skipped("market-clearing", "cell ran without market clearing")
    clearing = schedule.clearing
    violations: list[str] = []
    rtol = 1e-9
    for zone in clearing.zones:
        slice_payments: dict[int, float] = {}
        local_accept_min: dict[int, float] = {}
        priced_out_max: dict[int, float] = {}
        for outcome in zone.outcomes:
            if outcome.cleared and outcome.quantity_kwh > 0.0:
                slice_payments[outcome.slice_index] = (
                    slice_payments.get(outcome.slice_index, 0.0)
                    + outcome.payment_eur
                )
                bid_value = outcome.price * outcome.quantity_kwh
                if outcome.payment_eur > bid_value * (1.0 + rtol) + 1e-12:
                    violations.append(
                        f"{outcome.offer_id}: pays {outcome.payment_eur:.9f} EUR "
                        f"for a bid worth {bid_value:.9f} EUR "
                        f"(individual rationality broken)"
                    )
                if not outcome.migrated:
                    current = local_accept_min.get(outcome.slice_index)
                    if current is None or outcome.price < current:
                        local_accept_min[outcome.slice_index] = outcome.price
            elif outcome.status == "rejected" and outcome.reason == "priced-out":
                current = priced_out_max.get(outcome.slice_index)
                if current is None or outcome.price > current:
                    priced_out_max[outcome.slice_index] = outcome.price
        for index, price in enumerate(zone.slice_prices):
            paid = slice_payments.get(index, 0.0)
            expected = price * zone.cleared_kwh[index]
            if abs(paid - expected) > rtol * max(1.0, abs(expected)):
                violations.append(
                    f"zone {zone.zone} slice {index}: {paid:.9f} EUR paid for "
                    f"{expected:.9f} EUR of cleared energy (budget broken)"
                )
        for index, rejected_price in priced_out_max.items():
            accepted_price = local_accept_min.get(index)
            if accepted_price is not None and rejected_price > accepted_price:
                violations.append(
                    f"zone {zone.zone} slice {index}: priced-out bid at "
                    f"{rejected_price:.9f} EUR/kWh outbids an accepted one at "
                    f"{accepted_price:.9f} (merit order broken)"
                )
    return _outcome(
        "market-clearing",
        violations,
        detail=(
            f"{len(clearing.outcomes)} bids, "
            f"{len(clearing.accepted) + len(clearing.partial)} cleared, "
            f"welfare {clearing.welfare_eur:.4f} EUR"
        ),
    )


def check_grouping_monotonicity(run: CellRun) -> InvariantResult:
    """Coarsening the grouping grid never increases the group count.

    The grid partitions offers by ``floor(delta / tolerance)`` buckets on
    (earliest start, time flexibility), so doubling both tolerances can
    only merge cells, and the ``max_group_size`` splitter obeys
    ``ceil((a+b)/M) <= ceil(a/M) + ceil(b/M)`` — the number of groups must
    therefore be non-increasing along a 1x → 2x → 4x tolerance ladder.
    This is the contract that makes the grouping grid a *compression knob*:
    turning it coarser trades flexibility for fewer aggregates, never both
    ways at once.
    """
    from repro.aggregation.grouping import GroupingParams, group_offers

    offers = list(run.result.offers)
    if not offers:
        return _skipped("grouping-monotonicity", "cell produced no offers")
    base = GroupingParams()
    counts: list[int] = []
    for scale in (1, 2, 4):
        params = GroupingParams(
            start_tolerance=base.start_tolerance * scale,
            flexibility_tolerance=base.flexibility_tolerance * scale,
            max_group_size=base.max_group_size,
        )
        counts.append(len(group_offers(offers, params)))
    violations: list[str] = []
    for (scale_a, count_a), (scale_b, count_b) in zip(
        zip((1, 2), counts), zip((2, 4), counts[1:])
    ):
        if count_b > count_a:
            violations.append(
                f"{scale_b}x tolerances produce {count_b} groups, more than "
                f"the {count_a} at {scale_a}x (coarsening must not split)"
            )
    return _outcome(
        "grouping-monotonicity",
        violations,
        detail=f"1x/2x/4x grid -> {counts[0]}/{counts[1]}/{counts[2]} groups",
    )


def check_report_roundtrip(run: CellRun) -> InvariantResult:
    """The cell's full output survives the JSON wire format losslessly."""
    from repro.api.service import ExtractorRunReport, RunReport
    from repro.api.spec import ExtractorSpec, RunSpec, ScenarioSpec

    cell_report = ExtractorRunReport(
        extractor=run.entry.name,
        households=len(run.fleet.traces),
        offers=tuple(run.result.offers),
        aggregates=run.result.aggregates,
        stage_seconds=run.result.timings.seconds,
        summary={
            "offers": float(len(run.result.offers)),
            "aggregates": float(len(run.result.aggregates)),
            "extracted_kwh": run.result.total_extracted_kwh,
        },
        schedule=run.result.schedule,
    )
    spec = RunSpec(
        kind="fleet",
        name=f"conformance:{run.scenario.name}",
        scenario=ScenarioSpec(
            households=len(run.fleet.traces),
            days=run.fleet.days,
            seed=run.scenario.seed,
            start=run.fleet.start,
        ),
        extractors=(ExtractorSpec(run.entry.name),),
    )
    report = RunReport(spec=spec, results=(cell_report,))
    violations: list[str] = []
    try:
        text = report.to_json()
        reloaded = RunReport.from_json(text)
        if reloaded.to_json() != text:
            violations.append("serialise→parse→serialise is not a fixed point")
        if reloaded.to_dict() != report.to_dict():
            violations.append("round-tripped report differs from the original")
        if json.loads(text)["version"] != report.version:
            violations.append("wire format lost the report version")
    except ReproError as exc:
        violations.append(f"round-trip raised {type(exc).__name__}: {exc}")
    return _outcome(
        "report-roundtrip",
        violations,
        detail=f"{len(cell_report.offers)} offers through the wire format",
    )


def check_committed_placement_stability(run: CellRun) -> InvariantResult:
    """Committed placements survive later replans bitwise.

    Drives a deliberately small :class:`~repro.session.FlexibilitySession`
    — the cell's approach over its first two households, two ingest halves
    with a replan after each, and a six-hour commit horizon — and checks
    that every placement committed at the first replan reappears
    *unchanged* in the second replan's committed ledger and in its
    combined schedule.  This is the session subsystem's dispatch contract:
    a placement inside the commit horizon has already been sent out and
    must never be re-planned.
    """
    from datetime import timedelta

    from repro.session import FlexibilitySession
    from repro.timeseries.series import TimeSeries

    if run.result.schedule is None:
        return _skipped(
            "committed-placement-stability", "cell ran without a schedule stage"
        )
    if not isinstance(run.target, TimeSeries):
        return _skipped(
            "committed-placement-stability",
            "sessions re-plan plain targets only; zoned markets keep the "
            "one-shot pipeline",
        )
    if run.entry.name in run.scenario.per_household_params:
        return _skipped(
            "committed-placement-stability",
            "per-household extractor parameters; no shared session extractor",
        )
    traces = run.fleet.traces[:2]
    session = FlexibilitySession.for_fleet(
        traces,
        extractor=run.make_extractor(),
        seed=run.scenario.seed,
        target=run.target,
        commit_horizon=timedelta(hours=6),
    )
    from repro.api.registry import input_series_for

    inputs = [input_series_for(session.extractor, trace) for trace in traces]
    half = inputs[0].axis.length // 2
    violations: list[str] = []
    try:
        for index, series in enumerate(inputs):
            session.ingest(index, 0, series.values[:half])
        first = session.replan()
        for index, series in enumerate(inputs):
            session.ingest(index, half, series.values[half:])
        second = session.replan()
    except ReproError as exc:
        return _outcome(
            "committed-placement-stability",
            [f"mini-session raised {type(exc).__name__}: {exc}"],
        )
    later_committed = {s.offer.offer_id: s for s in second.committed}
    later_planned = (
        {}
        if second.schedule is None
        else {s.offer.offer_id: s for s in second.schedule.schedules}
    )
    for placement in first.committed:
        offer_id = placement.offer.offer_id
        if later_committed.get(offer_id) != placement:
            violations.append(
                f"{offer_id}: committed placement changed between replans"
            )
        if later_planned.get(offer_id) != placement:
            violations.append(
                f"{offer_id}: committed placement missing from (or moved in) "
                f"the later combined schedule"
            )
    return _outcome(
        "committed-placement-stability",
        violations,
        detail=(
            f"{len(first.committed)} committed at replan 1, "
            f"{len(second.committed)} at replan 2"
        ),
    )


def check_crash_recovery_equivalence(run: CellRun) -> InvariantResult:
    """Kill + resume at an event boundary reproduces the uninterrupted run.

    Drives the same mini-session shape as ``committed-placement-stability``
    (first two households, two ingest halves with a replan after each,
    six-hour commit horizon, plus a closing explicit commit) three ways:
    uninterrupted in memory, journaled into a WAL with a snapshot per
    replan, and — for two crash boundaries — journaled only up to the
    boundary, recovered via snapshot + WAL tail, and finished.  The
    boundaries are chosen so recovery exercises both tail shapes: an
    ``ingest`` record after the snapshot (k=4) and a ``commit`` record
    after it (k=7, the full log).  Every recovered run's final snapshot
    must be bitwise the uninterrupted one.
    """
    import tempfile
    from datetime import timedelta

    from repro.session import FlexibilitySession, SessionJournal, restore_session
    from repro.timeseries.series import TimeSeries

    name = "crash-recovery-equivalence"
    if run.result.schedule is None:
        return _skipped(name, "cell ran without a schedule stage")
    if not isinstance(run.target, TimeSeries):
        return _skipped(
            name,
            "sessions re-plan plain targets only; zoned markets keep the "
            "one-shot pipeline",
        )
    if run.entry.name in run.scenario.per_household_params:
        return _skipped(
            name, "per-household extractor parameters; no shared session extractor"
        )
    traces = run.fleet.traces[:2]

    def fresh_session() -> FlexibilitySession:
        return FlexibilitySession.for_fleet(
            traces,
            extractor=run.make_extractor(),
            seed=run.scenario.seed,
            target=run.target,
            commit_horizon=timedelta(hours=6),
        )

    from repro.api.registry import input_series_for

    probe = fresh_session()
    inputs = [input_series_for(probe.extractor, trace) for trace in traces]
    half = inputs[0].axis.length // 2
    events: list[tuple] = [
        ("ingest", 0, 0, inputs[0].values[:half]),
        ("ingest", 1, 0, inputs[1].values[:half]),
        ("replan",),
        ("ingest", 0, half, inputs[0].values[half:]),
        ("ingest", 1, half, inputs[1].values[half:]),
        ("replan",),
    ]

    def apply(session: FlexibilitySession, tail: list[tuple]) -> None:
        for event in tail:
            if event[0] == "ingest":
                session.ingest(event[1], event[2], event[3])
            elif event[0] == "replan":
                session.replan()
            else:
                session.commit(event[1])

    violations: list[str] = []
    try:
        baseline = probe
        apply(baseline, events)
        events.append(("commit", baseline.state.watermark + timedelta(hours=12)))
        apply(baseline, events[-1:])
        final = baseline.snapshot().to_dict()
        for boundary in (4, len(events)):
            with tempfile.TemporaryDirectory() as tmp:
                crashed = fresh_session()
                crashed.attach_journal(SessionJournal.create(tmp, snapshot_every=1))
                apply(crashed, events[:boundary])
                crashed.journal.close()  # "crash": the rest never happens
                recovered = restore_session(fresh_session(), tmp)
                apply(recovered, events[boundary:])
                if recovered.snapshot().to_dict() != final:
                    violations.append(
                        f"resume at event boundary {boundary} diverged from "
                        f"the uninterrupted run"
                    )
    except ReproError as exc:
        return _outcome(name, [f"mini-session raised {type(exc).__name__}: {exc}"])
    return _outcome(
        name,
        violations,
        detail=f"2 crash boundaries over {len(events)} events, both bitwise equal",
    )


def check_replan_no_worse_realized(run: CellRun) -> InvariantResult:
    """Re-planning against the realized series never worsens realized cost.

    Drives a mini-session (first two households, no auto-commit horizon):
    ingest the first input halves, replan, freeze the early placements
    with an explicit commit through the target's midpoint, ingest the
    rest and replan — that is the *stale* schedule, planned against the
    forecast target.  Then reveal the realized series (a deterministic
    ±12.5% perturbation of the target), retarget the session and replan
    the open window.  Committed placements are frozen in both plans, so
    the re-planned schedule must score at least as well against the
    realized series as the stale one — learning the truth can only help.
    This is the oracle that pins the robust-scheduling subsystem's
    ``evaluate_realized``/``retarget`` loop end to end.
    """
    from repro.scheduling.robust import evaluate_realized
    from repro.session import FlexibilitySession
    from repro.timeseries.series import TimeSeries

    name = "replan-no-worse-realized"
    if run.result.schedule is None:
        return _skipped(name, "cell ran without a schedule stage")
    if not isinstance(run.target, TimeSeries):
        return _skipped(
            name,
            "sessions re-plan plain targets only; zoned markets keep the "
            "one-shot pipeline",
        )
    if run.entry.name in run.scenario.per_household_params:
        return _skipped(
            name, "per-household extractor parameters; no shared session extractor"
        )
    traces = run.fleet.traces[:2]
    session = FlexibilitySession.for_fleet(
        traces,
        extractor=run.make_extractor(),
        seed=run.scenario.seed,
        target=run.target,
    )
    from repro.api.registry import input_series_for

    inputs = [input_series_for(session.extractor, trace) for trace in traces]
    half = inputs[0].axis.length // 2
    axis = run.target.axis
    mid_instant = axis.start + (axis.length // 2) * axis.resolution
    rng = np.random.default_rng(run.scenario.seed + 104729)
    realized = TimeSeries(
        axis,
        run.target.values * (1.0 + 0.25 * (rng.random(axis.length) - 0.5)),
        name=f"{run.target.name}-realized",
    )
    try:
        for index, series in enumerate(inputs):
            session.ingest(index, 0, series.values[:half])
        session.replan()
        session.commit(mid_instant)
        for index, series in enumerate(inputs):
            session.ingest(index, half, series.values[half:])
        stale = session.replan()
        if stale.schedule is None:
            return _skipped(name, "mini-session produced no schedule to score")
        stale_eval = evaluate_realized(stale.schedule, realized)
        session.retarget(realized)
        fresh = session.replan()
        if fresh.schedule is None:
            return _outcome(name, ["re-planned mini-session lost its schedule"])
        fresh_eval = evaluate_realized(fresh.schedule, realized)
    except ReproError as exc:
        return _outcome(name, [f"mini-session raised {type(exc).__name__}: {exc}"])
    violations: list[str] = []
    tolerance = 1e-9 * max(1.0, abs(stale_eval.realized_cost))
    if fresh_eval.realized_cost > stale_eval.realized_cost + tolerance:
        violations.append(
            f"re-planning against the realized series worsened realized cost: "
            f"{fresh_eval.realized_cost:.9f} vs stale {stale_eval.realized_cost:.9f}"
        )
    return _outcome(
        name,
        violations,
        detail=(
            f"stale {stale_eval.realized_cost:.4f} -> replanned "
            f"{fresh_eval.realized_cost:.4f} realized cost, "
            f"{len(stale.committed)} committed placements frozen"
        ),
    )


def _mini_fleet_energy(run: CellRun, clone_factor: int) -> float:
    """|total aggregate midpoint energy| of a (possibly cloned) mini fleet.

    Re-runs the extract→group→aggregate chain over the cell's first two
    households, ``clone_factor`` times each.  Clone ``j`` reuses the rng
    stream of household ``j % base`` (same seeds — bitwise the same
    extraction) under a fresh offer-id scope and household id (fresh
    ids), exactly the metamorphic doubling the invariant promises.
    The absolute value keeps production-level cells (negative-energy sign
    convention) on the same "more is more" scale as consumption cells.
    """
    from repro.aggregation.aggregate import aggregate_all
    from repro.aggregation.grouping import group_offers
    from repro.api.registry import input_series_for
    from repro.evaluation.comparison import SEED_STRIDE
    from repro.flexoffer.model import offer_id_scope
    from repro.pipeline.fleet import stamp_household

    traces = run.fleet.traces[:2]
    base = len(traces)
    offers: list[FlexOffer] = []
    for job in range(base * clone_factor):
        index = job % base
        trace = traces[index]
        extractor = run.make_extractor()
        rng = np.random.default_rng(run.scenario.seed + SEED_STRIDE * index)
        series = input_series_for(extractor, trace)
        suffix = "" if job < base else f"~clone{job // base}"
        with offer_id_scope(f"mono-h{index}{suffix}"):
            result = extractor.extract(series, rng)
        offers.extend(
            stamp_household(result.offers, trace.config.household_id + suffix)
        )
    groups = group_offers(offers, None)
    with offer_id_scope(f"mono-fleet-x{clone_factor}"):
        aggregates = aggregate_all(groups)
    return abs(
        float(
            sum(s.midpoint for a in aggregates for s in a.offer.slices)
        )
    )


def check_fleet_monotonicity(run: CellRun) -> InvariantResult:
    """Doubling the fleet (fresh ids, same seeds) never shrinks energy out.

    Metamorphic relation over the extract→group→aggregate chain: cloning
    every household of a two-household mini fleet — fresh household and
    offer ids, the *same* per-household rng seeds, so each clone extracts
    bitwise the same offers — must at least double the inputs, and the
    aggregated output energy must therefore never *shrink*.  Catches id
    collisions silently dropping offers, grouping that loses members at
    scale, and aggregation folding clones into each other.
    """
    name = "fleet-monotonicity"
    if run.entry.name in run.scenario.per_household_params:
        return _skipped(
            name, "per-household extractor parameters; clone parameters ambiguous"
        )
    try:
        base_energy = _mini_fleet_energy(run, clone_factor=1)
        doubled_energy = _mini_fleet_energy(run, clone_factor=2)
    except ReproError as exc:
        return _outcome(name, [f"mini-fleet run raised {type(exc).__name__}: {exc}"])
    violations: list[str] = []
    tolerance = 1e-9 * max(1.0, base_energy)
    if doubled_energy < base_energy - tolerance:
        violations.append(
            f"doubled fleet aggregates {doubled_energy:.6f} kWh, less than the "
            f"base fleet's {base_energy:.6f} kWh (monotonicity broken)"
        )
    return _outcome(
        name,
        violations,
        detail=f"base {base_energy:.3f} kWh -> doubled {doubled_energy:.3f} kWh",
    )


def _gini(values: list[float]) -> float:
    """Gini coefficient of non-negative values (0 = equal, →1 = one-takes-all)."""
    sorted_values = np.sort(np.asarray(values, dtype=np.float64))
    n = sorted_values.size
    total = float(sorted_values.sum())
    if n < 2 or total <= 0.0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float((2 * ranks - n - 1) @ sorted_values / (n * total))


def _fairness_violations(
    label: str, allocations: list[float], capacities: list[float]
) -> list[str]:
    """Starvation checks on one aggregate's member energy allocations.

    Pure over its inputs (the unit fixture proves it fires on a
    constructed starvation), shared by the matrix invariant: every member
    with capacity must receive at least ``FAIRNESS_MIN_SHARE`` of its
    capacity-proportional share of the allocated total, and the Gini
    coefficient of allocation/capacity ratios must stay under
    ``FAIRNESS_GINI_BOUND``.
    """
    violations: list[str] = []
    total_alloc = float(sum(allocations))
    total_cap = float(sum(capacities))
    if total_alloc <= 0.0 or total_cap <= 0.0:
        return violations
    ratios: list[float] = []
    for member, (alloc, cap) in enumerate(zip(allocations, capacities)):
        if cap <= 0.0:
            continue
        floor = FAIRNESS_MIN_SHARE * (cap / total_cap) * total_alloc
        if alloc < floor - 1e-9:
            violations.append(
                f"{label}: member {member} starved — allocated {alloc:.6f} kWh, "
                f"floor {floor:.6f} (capacity share {cap / total_cap:.1%})"
            )
        ratios.append(alloc / cap)
    spread = _gini(ratios)
    if spread > FAIRNESS_GINI_BOUND:
        violations.append(
            f"{label}: allocation/capacity Gini {spread:.3f} exceeds "
            f"{FAIRNESS_GINI_BOUND} (systematic starvation)"
        )
    return violations


def check_disaggregation_fairness(run: CellRun) -> InvariantResult:
    """No aggregate member is systematically starved by disaggregation.

    Probes each multi-member aggregate's schedule→disaggregate loop at
    the ``_FAIRNESS_PROBES`` (mid and max energy, earliest and latest
    start), sums each member's allocated |energy| across the probes, and
    applies :func:`_fairness_violations`: a per-member floor proportional
    to capacity share plus a Gini bound on allocation/capacity ratios.
    Capacity is each member's largest-magnitude slice bound summed over
    slices, which keeps production-level (negative-energy) members on the
    same scale as consumption members.
    """
    name = "disaggregation-fairness"
    probed = [a for a in run.result.aggregates if len(a.members) > 1]
    if not probed:
        return _skipped(name, "cell produced no multi-member aggregates")
    probed = probed[:FAIRNESS_MAX_AGGREGATES]
    violations: list[str] = []
    for aggregate in probed:
        label = aggregate.offer.offer_id
        allocations = [0.0] * len(aggregate.members)
        try:
            for level, start_kind in _FAIRNESS_PROBES:
                offer = aggregate.offer
                start = (
                    offer.earliest_start
                    if start_kind == "earliest"
                    else offer.latest_start
                )
                schedule = default_schedule(offer, start=start, level=level)
                for member, part in enumerate(_disaggregate(aggregate, schedule)):
                    allocations[member] += abs(part.total_energy)
        except ReproError as exc:
            violations.append(
                f"{label}: fairness probe raised {type(exc).__name__}: {exc}"
            )
            continue
        capacities = [
            float(
                sum(
                    max(abs(s.energy_min), abs(s.energy_max))
                    for s in member.slices
                )
            )
            for member in aggregate.members
        ]
        violations.extend(_fairness_violations(label, allocations, capacities))
    return _outcome(
        name,
        violations,
        detail=(
            f"{len(probed)} multi-member aggregates x "
            f"{len(_FAIRNESS_PROBES)} probes"
        ),
    )


#: The invariant library, in report order.  Adding an entry here enrolls it
#: on every cell of the matrix.
INVARIANTS: dict[str, Callable[[CellRun], InvariantResult]] = {
    "offer-validity": check_offer_validity,
    "energy-conservation": check_energy_conservation,
    "aggregate-roundtrip": check_aggregate_roundtrip,
    "batched-equals-sequential": check_batched_equals_sequential,
    "engine-fidelity": check_engine_fidelity,
    "scheduling-feasibility": check_scheduling_feasibility,
    "zone-partition": check_zone_partition,
    "market-clearing": check_market_clearing,
    "grouping-monotonicity": check_grouping_monotonicity,
    "report-roundtrip": check_report_roundtrip,
    "committed-placement-stability": check_committed_placement_stability,
    "crash-recovery-equivalence": check_crash_recovery_equivalence,
    "replan-no-worse-realized": check_replan_no_worse_realized,
    "fleet-monotonicity": check_fleet_monotonicity,
    "disaggregation-fairness": check_disaggregation_fairness,
}


def validate_invariant_names(names: tuple[str, ...] | list[str]) -> None:
    """Raise (naming the alternatives) on any unknown invariant name."""
    unknown = [n for n in names if n not in INVARIANTS]
    if unknown:
        raise ReproError(
            f"unknown invariant(s) {', '.join(map(repr, unknown))}; "
            f"available: {', '.join(INVARIANTS)}"
        )


def run_invariants(
    run: CellRun, names: tuple[str, ...] | list[str] | None = None
) -> tuple[InvariantResult, ...]:
    """Run the (selected) invariant library over one executed cell."""
    if names is None:
        selected = INVARIANTS
    else:
        validate_invariant_names(names)
        selected = {n: INVARIANTS[n] for n in names}
    return tuple(check(run) for check in selected.values())
