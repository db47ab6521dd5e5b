"""Per-zone merit-order clearing with cross-zone spill.

Every market slice of every zone runs a uniform-price auction: demand bids
(:class:`~repro.market.model.PricedBid`) are sorted in merit order (price
descending) and intersected with the zone's supply curve — a linear ramp
from ``price_floor`` at zero quantity to ``price_cap`` at the slice's full
supply (the zone target's energy in that slice).  The maximal prefix of the
bid stack that stays above the ramp is accepted, the marginal bid may be
accepted partially (unless that would violate its minimum energy — a
"lumpy" rejection), and everyone cleared pays the slice's final uniform
price, so payments equal revenues by construction.

When a zone saturates, a second pass lets rejected bids spill into the
*adjacent* zones (declaration order forms a line) through a
bounded-capacity coupling.  Imports continue up the receiving zone's supply
ramp but may never push the slice price above the cheapest locally accepted
bid, so first-pass settlements stay individually rational.

Engine-equivalence contract (the ``greedy.py`` pattern)
-------------------------------------------------------
Engines are execution plans, never behaviours.  All accept/reject decisions
are made on *bitwise-identical* floats: the reference engine derives bids
one offer at a time through :func:`~repro.market.model.price_offer` (scalar
Python, left-to-right sums), while the vectorized engine batches the same
expressions over every offer at once
(:func:`~repro.market.model.price_offers_batched`), whose padded
column-parallel accumulation preserves the reference's exact addition
order — so the batched sums match the scalar ones bit for bit.  Slice
supplies come from one shared ``np.add.reduceat`` pass, the acceptance
walk uses the same scalar expressions in both engines, and ``np.cumsum``
(strictly sequential) mirrors the reference's running totals exactly.
The only engine-specific arithmetic
that may differ in the last bits is the bid-curve valuation (per-interval
integration in the reference, the closed-form ``curve_eur`` integral off
the batched prep arrays in the vectorized engine), which feeds consumer
surplus and welfare only — reconciled at ``rtol=1e-9``, never a decision
input.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.aggregation.aggregate import AggregatedFlexOffer
from repro.errors import MarketError
from repro.market.model import (
    BatchedBids,
    MarketConfig,
    PricedBid,
    price_offer,
    price_offers_batched,
)
from repro.scheduling.zones import MarketZone, ZonedTarget, assign_zones
from repro.wire import Encodable, Version, wire_format

CLEARING_VERSION = 1

#: Statuses a bid can end the auction with.
BID_STATUSES = ("accepted", "partial", "rejected")

#: Why a bid was rejected (or, for "pass-through", why it skipped the
#: auction): "priced-out" = below the supply ramp, "lumpy" = the partial
#: quantity at the intersection is below the bid's minimum energy,
#: "no-supply" = the slice has no supply, "pass-through" = non-consuming
#: (production) offers are admitted outside the market.
BID_REASONS = ("", "priced-out", "lumpy", "no-supply", "pass-through")


# --------------------------------------------------------------------- #
# Result model
# --------------------------------------------------------------------- #


@wire_format(
    "bid outcome", widen=True, rename={"offer_id": "offer", "slice_index": "slice"}
)
@dataclass(frozen=True, slots=True)
class BidOutcome(Encodable):
    """Final disposition of one bid after both clearing passes."""

    offer_id: str
    home_zone: str
    zone: str
    slice_index: int
    status: str
    reason: str
    price: float
    quantity_kwh: float
    payment_eur: float
    valuation_eur: float

    @property
    def cleared(self) -> bool:
        return self.status != "rejected"

    @property
    def migrated(self) -> bool:
        """True when the spill pass moved the bid to an adjacent zone."""
        return self.zone != self.home_zone


@wire_format("zone clearing", widen=True)
@dataclass(frozen=True, slots=True)
class ZoneClearing(Encodable):
    """One zone's auction outcome across all market slices.

    ``outcomes`` holds every bid whose final disposition is in this zone:
    home bids that were accepted or rejected here, plus bids migrated in by
    the spill pass (their ``home_zone`` differs).
    """

    zone: str
    price_floor: float
    price_cap: float
    slice_prices: tuple[float, ...]
    supply_kwh: tuple[float, ...]
    cleared_kwh: tuple[float, ...]
    outcomes: tuple[BidOutcome, ...]

    @property
    def revenue_eur(self) -> float:
        """Producer revenue: the sum of all payments settled in this zone."""
        return sum(o.payment_eur for o in self.outcomes)

    @property
    def consumer_surplus_eur(self) -> float:
        """Cleared bid-curve valuation minus payments."""
        return sum(o.valuation_eur - o.payment_eur for o in self.outcomes if o.cleared)

    @property
    def producer_surplus_eur(self) -> float:
        """Revenue above the supply ramp: ``sum_s p_s*Q_s - int_0^Q ramp``."""
        span = self.price_cap - self.price_floor
        total = 0.0
        for supply, cleared, price in zip(
            self.supply_kwh, self.cleared_kwh, self.slice_prices
        ):
            if supply <= 0.0 or cleared <= 0.0:
                continue
            slope = span / supply
            cost = self.price_floor * cleared + 0.5 * slope * cleared * cleared
            total += price * cleared - cost
        return total

    @property
    def welfare_eur(self) -> float:
        return self.consumer_surplus_eur + self.producer_surplus_eur


@wire_format(
    "clearing",
    error=MarketError,
    widen=True,
    version=Version(CLEARING_VERSION, "clearing"),
    order=("slices", "coupling_kwh", "engine", "zones"),
)
@dataclass(frozen=True, slots=True)
class ClearingResult(Encodable):
    """The full market outcome: one :class:`ZoneClearing` per zone."""

    zones: tuple[ZoneClearing, ...]
    slices: int
    coupling_kwh: float
    engine: str

    @property
    def outcomes(self) -> tuple[BidOutcome, ...]:
        return tuple(o for zone in self.zones for o in zone.outcomes)

    def by_offer(self) -> dict[str, BidOutcome]:
        return {o.offer_id: o for o in self.outcomes}

    @property
    def accepted(self) -> tuple[BidOutcome, ...]:
        return tuple(o for o in self.outcomes if o.status == "accepted")

    @property
    def partial(self) -> tuple[BidOutcome, ...]:
        return tuple(o for o in self.outcomes if o.status == "partial")

    @property
    def rejected(self) -> tuple[BidOutcome, ...]:
        return tuple(o for o in self.outcomes if o.status == "rejected")

    @property
    def migrated(self) -> tuple[BidOutcome, ...]:
        return tuple(o for o in self.outcomes if o.migrated)

    @property
    def revenue_eur(self) -> float:
        return sum(zone.revenue_eur for zone in self.zones)

    @property
    def payments_eur(self) -> float:
        """Consumer payments; equals :attr:`revenue_eur` by construction."""
        return sum(o.payment_eur for o in self.outcomes)

    @property
    def consumer_surplus_eur(self) -> float:
        return sum(zone.consumer_surplus_eur for zone in self.zones)

    @property
    def producer_surplus_eur(self) -> float:
        return sum(zone.producer_surplus_eur for zone in self.zones)

    @property
    def welfare_eur(self) -> float:
        return self.consumer_surplus_eur + self.producer_surplus_eur

    @property
    def cleared_kwh(self) -> float:
        return sum(sum(zone.cleared_kwh) for zone in self.zones)

    def summary(self) -> dict:
        return {
            "market_bids": len(self.outcomes),
            "market_accepted": len(self.accepted),
            "market_partial": len(self.partial),
            "market_rejected": len(self.rejected),
            "market_migrated": len(self.migrated),
            "market_cleared_kwh": self.cleared_kwh,
            "market_revenue_eur": self.revenue_eur,
            "market_consumer_surplus_eur": self.consumer_surplus_eur,
            "market_producer_surplus_eur": self.producer_surplus_eur,
            "market_welfare_eur": self.welfare_eur,
        }

    def table_rows(self) -> list[dict]:
        """Per-zone clearing table for the CLI (floats rounded to 4)."""
        rows = []
        for zone in self.zones:
            cleared = [o for o in zone.outcomes if o.cleared]
            rows.append(
                {
                    "zone": zone.zone,
                    "bids": len(zone.outcomes),
                    "accepted": sum(1 for o in cleared if o.status == "accepted"),
                    "partial": sum(1 for o in cleared if o.status == "partial"),
                    "rejected": len(zone.outcomes) - len(cleared),
                    "migrated_in": sum(1 for o in zone.outcomes if o.migrated),
                    "price_eur": round(
                        sum(zone.slice_prices) / len(zone.slice_prices), 4
                    ),
                    "cleared_kwh": round(sum(zone.cleared_kwh), 4),
                    "revenue_eur": round(zone.revenue_eur, 4),
                    "welfare_eur": round(zone.welfare_eur, 4),
                }
            )
        return rows


# --------------------------------------------------------------------- #
# Shared preparation and decision arithmetic
# --------------------------------------------------------------------- #


def _slice_bounds(length: int, n_slices: int) -> list[int]:
    """Interval boundaries of ``n_slices`` near-uniform market slices."""
    if n_slices > length:
        raise MarketError(
            f"market slices ({n_slices}) exceed target intervals ({length})"
        )
    return [(s * length) // n_slices for s in range(n_slices)] + [length]


def _zone_supplies(zone: MarketZone, bounds: list[int]) -> np.ndarray:
    """Supply (kWh) per market slice from the zone's target profile."""
    values = np.maximum(np.asarray(zone.target.values, dtype=np.float64), 0.0)
    return np.add.reduceat(values, np.asarray(bounds[:-1], dtype=np.intp))


def _attribute_slice(offer, zone: MarketZone, bounds: list[int]) -> int:
    """Market slice holding the offer's earliest start on the zone's axis."""
    axis = zone.target.axis
    res_us = int(axis.resolution.total_seconds() * 1_000_000)
    delta_us = round((offer.earliest_start - axis.start).total_seconds() * 1_000_000)
    index = min(max(delta_us // res_us, 0), axis.length - 1)
    return bisect_right(bounds, index) - 1


def _supply_price(floor: float, slope: float, cleared: float) -> float:
    """Uniform price on the linear supply ramp at ``cleared`` kWh."""
    return floor + slope * cleared


def _partial_quantity(
    price: float, floor: float, slope: float, cleared: float, supply: float
) -> float:
    """Quantity at which the bid meets the ramp, capped by remaining supply."""
    room = supply - cleared
    if slope <= 0.0:
        return room if price >= floor else 0.0
    return min(room, (price - floor) / slope - cleared)


def _build_zone_bids(
    zone: MarketZone,
    aggregates: Sequence[AggregatedFlexOffer],
    bounds: list[int],
) -> list[PricedBid]:
    """Reference bid derivation: one scalar :func:`price_offer` per offer."""
    bids = []
    for aggregate in aggregates:
        offer = aggregate.offer
        price, quantity, min_kwh, slice_prices = price_offer(
            offer, zone.price_floor, zone.price_cap
        )
        bids.append(
            PricedBid(
                offer=offer,
                zone=zone.name,
                slice_index=_attribute_slice(offer, zone, bounds),
                price=price,
                quantity_kwh=quantity,
                min_kwh=min_kwh,
                slice_prices=slice_prices,
            )
        )
    return bids


#: Field positions of the lightweight per-bid "row" tuples both engines hand
#: to the shared spill and finalize passes:
#: (offer_id, offer, slice_index, price, quantity_kwh, min_kwh).
_ROW_ID, _ROW_OFFER, _ROW_SLICE, _ROW_PRICE, _ROW_QTY, _ROW_MIN = range(6)


def _bid_rows(bids: Sequence[PricedBid]) -> list[tuple]:
    """Reference-path adapter: PricedBids -> shared row tuples."""
    return [
        (b.offer.offer_id, b.offer, b.slice_index, b.price, b.quantity_kwh, b.min_kwh)
        for b in bids
    ]


@dataclass(frozen=True)
class _ZoneStack:
    """One zone's bids in array form, straight off the batched derivation.

    The vectorized engine never materialises :class:`PricedBid` objects:
    pass 1 runs on these arrays, valuations come from the closed-form
    ``curve_eur`` column, and the shared spill/finalize passes consume the
    ``rows`` tuples (plain-Python scalars, bitwise equal to the reference
    path's bid fields via :func:`price_offers_batched`).
    """

    rows: list[tuple]
    ids: list[str]
    prices: np.ndarray
    quantities: np.ndarray
    min_kwh: np.ndarray
    slice_indices: np.ndarray
    batched: BatchedBids


def _attribute_slices_batched(
    offers: Sequence, zone: MarketZone, bounds: list[int]
) -> np.ndarray:
    """Vectorized :func:`_attribute_slice`: same clip/bisect per offer."""
    axis = zone.target.axis
    res_us = int(axis.resolution.total_seconds() * 1_000_000)
    start = axis.start
    deltas = np.fromiter(
        (
            round((offer.earliest_start - start).total_seconds() * 1_000_000)
            for offer in offers
        ),
        dtype=np.int64,
        count=len(offers),
    )
    indices = np.clip(deltas // res_us, 0, axis.length - 1)
    return np.searchsorted(np.asarray(bounds, dtype=np.int64), indices, side="right") - 1


def _build_zone_stack(
    zone: MarketZone,
    aggregates: Sequence[AggregatedFlexOffer],
    bounds: list[int],
) -> _ZoneStack:
    """Vectorized bid derivation via :func:`price_offers_batched` — bitwise
    equal to the reference's per-offer :func:`price_offer` loop."""
    offers = [aggregate.offer for aggregate in aggregates]
    batched = price_offers_batched(
        offers,
        zone.price_floor,
        zone.price_cap,
        profile_arrays=[aggregate.profile_bounds_arrays for aggregate in aggregates],
    )
    slice_indices = _attribute_slices_batched(offers, zone, bounds)
    ids = [offer.offer_id for offer in offers]
    rows = list(
        zip(
            ids,
            offers,
            slice_indices.tolist(),
            batched.prices.tolist(),
            batched.quantities.tolist(),
            batched.min_kwh.tolist(),
        )
    )
    return _ZoneStack(
        rows=rows,
        ids=ids,
        prices=batched.prices,
        quantities=batched.quantities,
        min_kwh=batched.min_kwh,
        slice_indices=slice_indices,
        batched=batched,
    )


def _merit_key(row: tuple) -> tuple[float, str]:
    return (-row[_ROW_PRICE], row[_ROW_ID])


# --------------------------------------------------------------------- #
# Pass 1 engines
# --------------------------------------------------------------------- #
#
# Both produce the identical intermediate state:
#   decisions: offer_id -> (status, reason, quantity)
#   state:     (zone_idx, slice_idx) -> [cleared_kwh, min_accepted_price]
#   valuations: offer_id -> full bid-curve valuation (engine arithmetic)


def _valuations_reference(bids: Iterable[PricedBid]) -> dict[str, float]:
    """Integrate each bid curve interval by interval, scalar Python."""
    valuations: dict[str, float] = {}
    for bid in bids:
        expansion = bid.offer.slice_expansion()
        total = 0.0
        k = 0
        for price, profile_slice in zip(bid.slice_prices, bid.offer.slices):
            for _ in range(profile_slice.duration):
                high = expansion[k][1]
                if high > 0.0:
                    total += high * price
                k += 1
        valuations[bid.offer.offer_id] = total
    return valuations


def _valuations_vectorized(stacks: Sequence["_ZoneStack"]) -> dict[str, float]:
    """Closed-form bid-curve integrals off the batched derivation.

    The bid price is constant within a profile slice, so the reference's
    per-interval sum telescopes to ``sum(demanded * slice_price)`` — the
    ``curve_eur`` column :func:`price_offers_batched` already computed
    (welfare input only, reconciled at ``rtol=1e-9``).
    """
    valuations: dict[str, float] = {}
    for stack in stacks:
        valuations.update(zip(stack.ids, stack.batched.curve_eur.tolist()))
    return valuations


def _clear_pass1_reference(
    zones: Sequence[MarketZone],
    rows_by_zone: Sequence[Sequence[tuple]],
    supplies_by_zone: Sequence[np.ndarray],
    n_slices: int,
) -> tuple[dict, dict]:
    decisions: dict[str, tuple[str, str, float]] = {}
    state: dict[tuple[int, int], list] = {}
    for zone_idx, zone in enumerate(zones):
        floor, cap = zone.price_floor, zone.price_cap
        supplies = supplies_by_zone[zone_idx]
        per_slice: dict[int, list[tuple]] = {}
        for row in rows_by_zone[zone_idx]:
            if row[_ROW_QTY] <= 0.0:
                decisions[row[_ROW_ID]] = ("accepted", "pass-through", 0.0)
                continue
            per_slice.setdefault(row[_ROW_SLICE], []).append(row)
        for slice_idx in range(n_slices):
            supply = float(supplies[slice_idx])
            merit = sorted(per_slice.get(slice_idx, ()), key=_merit_key)
            cleared = 0.0
            min_accepted: float | None = None
            if supply <= 0.0:
                for row in merit:
                    decisions[row[_ROW_ID]] = ("rejected", "no-supply", 0.0)
                state[(zone_idx, slice_idx)] = [cleared, min_accepted]
                continue
            slope = (cap - floor) / supply
            market_open = True
            for row in merit:
                offer_id = row[_ROW_ID]
                price, quantity_kwh = row[_ROW_PRICE], row[_ROW_QTY]
                if not market_open:
                    decisions[offer_id] = ("rejected", "priced-out", 0.0)
                    continue
                total = cleared + quantity_kwh
                threshold = _supply_price(floor, slope, total)
                if price >= threshold and total <= supply:
                    decisions[offer_id] = ("accepted", "", quantity_kwh)
                    cleared = total
                    min_accepted = price
                    continue
                quantity = _partial_quantity(price, floor, slope, cleared, supply)
                if quantity > 0.0 and quantity >= row[_ROW_MIN]:
                    decisions[offer_id] = ("partial", "", quantity)
                    cleared = cleared + quantity
                    min_accepted = price
                else:
                    reason = "lumpy" if quantity > 0.0 else "priced-out"
                    decisions[offer_id] = ("rejected", reason, 0.0)
                market_open = False
            state[(zone_idx, slice_idx)] = [cleared, min_accepted]
    return decisions, state


def _clear_pass1_vectorized(
    zones: Sequence[MarketZone],
    stacks: Sequence["_ZoneStack"],
    supplies_by_zone: Sequence[np.ndarray],
    n_slices: int,
) -> tuple[dict, dict]:
    decisions: dict[str, tuple[str, str, float]] = {}
    state: dict[tuple[int, int], list] = {}
    for zone_idx, zone in enumerate(zones):
        floor, cap = zone.price_floor, zone.price_cap
        supplies = supplies_by_zone[zone_idx]
        stack = stacks[zone_idx]
        consuming = stack.quantities > 0.0
        ids = stack.ids
        for j in np.nonzero(~consuming)[0]:
            decisions[ids[j]] = ("accepted", "pass-through", 0.0)
        market = np.nonzero(consuming)[0]
        prices = stack.prices[market]
        quantities = stack.quantities[market]
        slice_indices = stack.slice_indices[market]
        if market.size:
            market_ids = np.array([ids[j] for j in market])
            order = np.lexsort((market_ids, -prices, slice_indices))
        else:
            order = np.empty(0, dtype=np.intp)
        sorted_slices = slice_indices[order]
        segment_edges = np.searchsorted(
            sorted_slices, np.arange(n_slices + 1), side="left"
        )
        quantity_list = quantities.tolist()
        price_list = prices.tolist()
        for slice_idx in range(n_slices):
            lo, hi = int(segment_edges[slice_idx]), int(segment_edges[slice_idx + 1])
            segment = order[lo:hi]
            supply = float(supplies[slice_idx])
            cleared = 0.0
            min_accepted: float | None = None
            if lo == hi:
                state[(zone_idx, slice_idx)] = [cleared, min_accepted]
                continue
            if supply <= 0.0:
                for j in segment:
                    decisions[ids[market[j]]] = ("rejected", "no-supply", 0.0)
                state[(zone_idx, slice_idx)] = [cleared, min_accepted]
                continue
            slope = (cap - floor) / supply
            seg_prices = prices[segment]
            seg_quantities = quantities[segment]
            # np.cumsum is strictly sequential, so these running totals are
            # bitwise equal to the reference walk's scalar accumulation.
            running = np.cumsum(seg_quantities)
            thresholds = floor + slope * running
            full_accept = (seg_prices >= thresholds) & (running <= supply)
            if bool(full_accept.all()):
                boundary = len(segment)
            else:
                boundary = int(np.argmax(~full_accept))
            for j in segment[:boundary].tolist():
                decisions[ids[market[j]]] = ("accepted", "", quantity_list[j])
            if boundary:
                cleared = float(running[boundary - 1])
                min_accepted = float(seg_prices[boundary - 1])
            if boundary < len(segment):
                marginal = int(segment[boundary])
                price = price_list[marginal]
                quantity = _partial_quantity(price, floor, slope, cleared, supply)
                if quantity > 0.0 and quantity >= float(stack.min_kwh[market[marginal]]):
                    decisions[ids[market[marginal]]] = ("partial", "", quantity)
                    cleared = cleared + quantity
                    min_accepted = price
                else:
                    reason = "lumpy" if quantity > 0.0 else "priced-out"
                    decisions[ids[market[marginal]]] = ("rejected", reason, 0.0)
                for j in segment[boundary + 1 :].tolist():
                    decisions[ids[market[j]]] = ("rejected", "priced-out", 0.0)
            state[(zone_idx, slice_idx)] = [cleared, min_accepted]
    return decisions, state


# --------------------------------------------------------------------- #
# Pass 2: cross-zone spill (shared between engines, like greedy's
# _pick_best — a small exact tail on top of the engine-specific pass 1)
# --------------------------------------------------------------------- #


def _spill_pass(
    zones: Sequence[MarketZone],
    rows_by_zone: Sequence[Sequence[tuple]],
    bounds_by_zone: Sequence[list[int]],
    supplies_by_zone: Sequence[np.ndarray],
    decisions: dict,
    state: dict,
    coupling_kwh: float,
) -> dict[str, tuple[int, int, str, float]]:
    """Re-clear rejected bids in adjacent zones through bounded couplings.

    Returns ``offer_id -> (zone_idx, slice_idx, status, quantity)`` for
    migrated bids and advances ``state`` in place.  Imports never push a
    slice price above its cheapest locally accepted bid, keeping pass-1
    settlements individually rational.
    """
    migrations: dict[str, tuple[int, int, str, float]] = {}
    if coupling_kwh <= 0.0 or len(zones) < 2:
        return migrations
    rejected_pool: list[list[tuple]] = [
        [row for row in zone_rows if decisions[row[_ROW_ID]][0] == "rejected"]
        for zone_rows in rows_by_zone
    ]
    capacity: dict[tuple[int, int], float] = {}
    for target_idx, zone in enumerate(zones):
        floor, cap = zone.price_floor, zone.price_cap
        supplies = supplies_by_zone[target_idx]
        bounds = bounds_by_zone[target_idx]
        arrivals: list[tuple[int, tuple]] = []
        for source_idx in (target_idx - 1, target_idx + 1):
            if 0 <= source_idx < len(zones):
                arrivals.extend(
                    (source_idx, row)
                    for row in rejected_pool[source_idx]
                    if row[_ROW_ID] not in migrations
                )
        arrivals.sort(key=lambda pair: _merit_key(pair[1]))
        for source_idx, row in arrivals:
            edge = (source_idx, target_idx)
            remaining = capacity.setdefault(edge, coupling_kwh)
            if remaining <= 0.0:
                continue
            price, quantity_kwh = row[_ROW_PRICE], row[_ROW_QTY]
            slice_idx = _attribute_slice(row[_ROW_OFFER], zone, bounds)
            supply = float(supplies[slice_idx])
            if supply <= 0.0:
                continue
            slope = (cap - floor) / supply
            cleared, min_accepted = state[(target_idx, slice_idx)]
            # Imports may not lift the price past the cheapest pass-1 local
            # acceptance (individual rationality of settled bids).
            effective_supply = supply
            if min_accepted is not None and slope > 0.0:
                effective_supply = min(supply, (min_accepted - floor) / slope)
            total = cleared + quantity_kwh
            threshold = _supply_price(floor, slope, total)
            if (
                price >= threshold
                and total <= effective_supply
                and quantity_kwh <= remaining
            ):
                quantity = quantity_kwh
                status = "accepted"
            else:
                quantity = min(
                    _partial_quantity(price, floor, slope, cleared, effective_supply),
                    remaining,
                )
                if quantity <= 0.0 or quantity < row[_ROW_MIN]:
                    continue
                status = "partial"
            migrations[row[_ROW_ID]] = (target_idx, slice_idx, status, quantity)
            capacity[edge] = remaining - quantity
            state[(target_idx, slice_idx)][0] = cleared + quantity
    return migrations


# --------------------------------------------------------------------- #
# Orchestration
# --------------------------------------------------------------------- #


def clear_zones(
    aggregates: Sequence[AggregatedFlexOffer],
    zoned: ZonedTarget,
    config: MarketConfig | None = None,
) -> ClearingResult:
    """Run merit-order clearing for every zone of a zoned target.

    Bids are derived from the aggregates routed to each zone (same
    ``assign_zones`` policy as placement), cleared per market slice, then
    rejected bids spill to adjacent zones when ``config.coupling_kwh > 0``.
    """
    config = config if config is not None else MarketConfig()
    unpriced = [zone.name for zone in zoned.zones if not zone.priced]
    if unpriced:
        raise MarketError(
            f"cannot clear unpriced zones: {', '.join(sorted(unpriced))}"
        )
    buckets = assign_zones(aggregates, zoned)
    zones = zoned.zones
    bounds_by_zone = [
        _slice_bounds(zone.target.axis.length, config.slices) for zone in zones
    ]
    supplies_by_zone = [
        _zone_supplies(zone, bounds) for zone, bounds in zip(zones, bounds_by_zone)
    ]
    if config.engine == "reference":
        bids_by_zone = [
            _build_zone_bids(zone, buckets.get(zone.name, []), bounds)
            for zone, bounds in zip(zones, bounds_by_zone)
        ]
        rows_by_zone = [_bid_rows(zone_bids) for zone_bids in bids_by_zone]
        decisions, state = _clear_pass1_reference(
            zones, rows_by_zone, supplies_by_zone, config.slices
        )
        valuations = _valuations_reference(
            bid for zone_bids in bids_by_zone for bid in zone_bids
        )
    else:
        stacks = [
            _build_zone_stack(zone, buckets.get(zone.name, []), bounds)
            for zone, bounds in zip(zones, bounds_by_zone)
        ]
        rows_by_zone = [stack.rows for stack in stacks]
        decisions, state = _clear_pass1_vectorized(
            zones, stacks, supplies_by_zone, config.slices
        )
        valuations = _valuations_vectorized(stacks)
    migrations = _spill_pass(
        zones,
        rows_by_zone,
        bounds_by_zone,
        supplies_by_zone,
        decisions,
        state,
        config.coupling_kwh,
    )
    return _finalize(
        zones,
        rows_by_zone,
        supplies_by_zone,
        decisions,
        state,
        migrations,
        valuations,
        config,
    )


def _finalize(
    zones: Sequence[MarketZone],
    rows_by_zone: Sequence[Sequence[tuple]],
    supplies_by_zone: Sequence[np.ndarray],
    decisions: dict,
    state: dict,
    migrations: dict,
    valuations: dict,
    config: MarketConfig,
) -> ClearingResult:
    prices: dict[tuple[int, int], float] = {}
    for zone_idx, zone in enumerate(zones):
        supplies = supplies_by_zone[zone_idx]
        for slice_idx in range(config.slices):
            supply = float(supplies[slice_idx])
            if supply <= 0.0:
                prices[(zone_idx, slice_idx)] = zone.price_cap
                continue
            slope = (zone.price_cap - zone.price_floor) / supply
            cleared = state[(zone_idx, slice_idx)][0]
            prices[(zone_idx, slice_idx)] = _supply_price(
                zone.price_floor, slope, cleared
            )

    def outcome_for(
        row: tuple, home_zone: str, zone_idx: int, slice_idx: int, status: str,
        reason: str, quantity: float,
    ) -> BidOutcome:
        cleared = status != "rejected"
        price = prices[(zone_idx, slice_idx)]
        payment = quantity * price if cleared else 0.0
        valuation = 0.0
        if cleared and row[_ROW_QTY] > 0.0 and quantity > 0.0:
            valuation = valuations[row[_ROW_ID]] * (quantity / row[_ROW_QTY])
        return BidOutcome(
            offer_id=row[_ROW_ID],
            home_zone=home_zone,
            zone=zones[zone_idx].name,
            slice_index=slice_idx,
            status=status,
            reason=reason,
            price=row[_ROW_PRICE],
            quantity_kwh=quantity,
            payment_eur=payment,
            valuation_eur=valuation,
        )

    per_zone_outcomes: list[list[BidOutcome]] = [[] for _ in zones]
    for zone_idx, zone_rows in enumerate(rows_by_zone):
        home_zone = zones[zone_idx].name
        for row in zone_rows:
            offer_id = row[_ROW_ID]
            if offer_id in migrations:
                target_idx, slice_idx, status, quantity = migrations[offer_id]
                per_zone_outcomes[target_idx].append(
                    outcome_for(
                        row, home_zone, target_idx, slice_idx, status, "", quantity
                    )
                )
                continue
            status, reason, quantity = decisions[offer_id]
            per_zone_outcomes[zone_idx].append(
                outcome_for(
                    row, home_zone, zone_idx, row[_ROW_SLICE], status, reason, quantity
                )
            )
    zone_clearings = []
    for zone_idx, zone in enumerate(zones):
        outcomes = sorted(
            per_zone_outcomes[zone_idx],
            key=lambda o: (o.slice_index, -o.price, o.offer_id),
        )
        zone_clearings.append(
            ZoneClearing(
                zone=zone.name,
                price_floor=zone.price_floor,
                price_cap=zone.price_cap,
                slice_prices=tuple(
                    prices[(zone_idx, s)] for s in range(config.slices)
                ),
                supply_kwh=tuple(
                    float(v) for v in supplies_by_zone[zone_idx][: config.slices]
                ),
                cleared_kwh=tuple(
                    state[(zone_idx, s)][0] for s in range(config.slices)
                ),
                outcomes=tuple(outcomes),
            )
        )
    return ClearingResult(
        zones=tuple(zone_clearings),
        slices=config.slices,
        coupling_kwh=config.coupling_kwh,
        engine=config.engine,
    )
