"""The market subsystem: priced bids, merit-order clearing, welfare.

Covers the tentpole contract of ``repro.market``:

* bid derivation — :func:`price_offer` (scalar reference) versus
  :func:`price_offers_batched` (vectorized), held **bitwise equal** on real
  fleet offers, explicit total-energy bounds, and the cached
  ``profile_arrays`` fast path;
* per-zone merit-order clearing — engine equivalence (identical acceptance
  sets, bitwise prices), budget balance, individual rationality, lumpy /
  no-supply / pass-through dispositions, and the bounded cross-zone spill;
* the scheduling integration — ``ScheduleConfig(market=...)`` clears before
  placement, rejected bids surface as unplaced offers of their home zone,
  and unpriced zones are refused with a pinned error message;
* the wire format — :class:`ClearingResult` round trips, the zoned
  encoding gains a golden-pinned ``clearing`` section, and pre-market
  goldens keep loading with ``clearing is None``.
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from repro.aggregation.aggregate import AggregatedFlexOffer
from repro.api.registry import create_extractor
from repro.api.spec import MARKET_ENGINES as SPEC_MARKET_ENGINES
from repro.api.spec import MarketSpec, ScheduleSpec, ZoneSpec
from repro.errors import MarketError, SchedulingError, SpecError
from repro.flexoffer.io import zoned_result_from_dict, zoned_result_to_dict
from repro.flexoffer.model import FlexOffer, ProfileSlice
from repro.market import (
    MARKET_ENGINES,
    ClearingResult,
    MarketConfig,
    clear_zones,
    price_offer,
    price_offers_batched,
    shift_utility,
)
from repro.market.clearing import BID_REASONS, BID_STATUSES, _slice_bounds
from repro.pipeline.fleet import FleetPipeline, fleet_zoned_target
from repro.scheduling.greedy import ScheduleConfig
from repro.scheduling.zones import (
    MarketZone,
    ZonedTarget,
    make_market_zones,
    schedule_zones,
)
from repro.timeseries.axis import TimeAxis
from repro.timeseries.series import TimeSeries
from repro.workloads import scenarios as w

GOLDEN = Path(__file__).parent / "data" / "golden"
START = datetime(2012, 3, 5)
RES = timedelta(minutes=15)


def flat_zone(
    name: str,
    level: float = 0.5,
    length: int = 8,
    floor: float = 0.05,
    cap: float = 0.15,
) -> MarketZone:
    axis = TimeAxis(start=START, resolution=RES, length=length)
    return MarketZone(
        name=name,
        target=TimeSeries.full(axis, level, name=f"{name}-target"),
        price_floor=floor,
        price_cap=cap,
    )


def make_offer(
    offer_id: str,
    slices=((1.0, 2.0), (0.5, 1.5)),
    flex_hours: float = 6.0,
    start_hour: float = 0.0,
    consumer: str = "",
    total_min: float | None = None,
    total_max: float | None = None,
) -> FlexOffer:
    earliest = START + timedelta(hours=start_hour)
    return FlexOffer(
        earliest_start=earliest,
        latest_start=earliest + timedelta(hours=flex_hours),
        slices=tuple(ProfileSlice(lo, hi) for lo, hi in slices),
        offer_id=offer_id,
        consumer_id=consumer,
        total_energy_min=total_min,
        total_energy_max=total_max,
    )


def make_aggregate(offer: FlexOffer) -> AggregatedFlexOffer:
    """A single-member aggregate that keeps the offer's own (stable) id."""
    return AggregatedFlexOffer(offer=offer, members=(offer,), member_offsets=(0,))


@pytest.fixture(scope="module")
def fleet_clearing_inputs():
    """Real fleet aggregates plus a priced three-zone target."""
    fleet = w.zoned_market_fleet()
    extractor = create_extractor("peak-based", flexible_share=0.05)
    result = FleetPipeline(extractor, chunk_size=3).run(fleet)
    zoned = fleet_zoned_target(fleet, seed=1, zones=3)
    return result.aggregates, zoned


# --------------------------------------------------------------------- #
# Configuration and spec layer
# --------------------------------------------------------------------- #


class TestMarketConfig:
    def test_defaults(self):
        config = MarketConfig()
        assert config.slices == 8
        assert config.coupling_kwh == 0.0
        assert config.engine == "vectorized"

    def test_validation(self):
        with pytest.raises(MarketError, match="slices must be >= 1"):
            MarketConfig(slices=0)
        with pytest.raises(MarketError, match="coupling_kwh must be >= 0"):
            MarketConfig(coupling_kwh=-1.0)
        with pytest.raises(MarketError, match="unknown market engine"):
            MarketConfig(engine="quantum")

    def test_schedule_config_rejects_non_config_market(self):
        with pytest.raises(SchedulingError, match="MarketConfig"):
            ScheduleConfig(market="vectorized")


class TestMarketSpec:
    def test_validation(self):
        with pytest.raises(SpecError, match="slices must be >= 1"):
            MarketSpec(slices=0)
        with pytest.raises(SpecError, match="coupling_kwh must be >= 0"):
            MarketSpec(coupling_kwh=-0.5)
        with pytest.raises(SpecError, match="engine must be one of"):
            MarketSpec(engine="quantum")

    def test_config_mirrors_spec(self):
        spec = MarketSpec(slices=4, coupling_kwh=2.5, engine="reference")
        config = spec.config()
        assert isinstance(config, MarketConfig)
        assert (config.slices, config.coupling_kwh, config.engine) == (
            4,
            2.5,
            "reference",
        )

    def test_market_requires_zones(self):
        with pytest.raises(SpecError, match="requires schedule.zones"):
            ScheduleSpec(market=MarketSpec())

    def test_engines_stay_in_sync_with_market_layer(self):
        # spec.py duplicates the tuple to stay import-light; this is the
        # promised sync guard.
        assert SPEC_MARKET_ENGINES == MARKET_ENGINES

    def test_wire_roundtrip_and_omission(self):
        zones = (ZoneSpec(name="a"), ZoneSpec(name="b"))
        without = ScheduleSpec(zones=zones)
        assert "market" not in without.to_dict()
        assert ScheduleSpec.from_dict(without.to_dict()) == without
        spec = ScheduleSpec(
            zones=zones, market=MarketSpec(slices=4, coupling_kwh=1.0)
        )
        payload = spec.to_dict()
        assert payload["market"] == {
            "slices": 4,
            "coupling_kwh": 1.0,
            "engine": "vectorized",
        }
        assert ScheduleSpec.from_dict(payload) == spec

    def test_unknown_market_key_raises(self):
        with pytest.raises(SpecError, match="pipeline.schedule.market"):
            MarketSpec.from_dict({"slices": 4, "spread": 1.0})


# --------------------------------------------------------------------- #
# Bid derivation: scalar reference vs batched, bitwise
# --------------------------------------------------------------------- #


class TestBidDerivation:
    def test_shift_utility_bounds(self):
        assert shift_utility(timedelta(0)) == 1.0
        assert shift_utility(timedelta(days=1)) == 0.5
        assert 0.0 < shift_utility(timedelta(days=30)) < 0.05

    def test_slice_prices_stay_inside_the_band(self):
        offer = make_offer("band", flex_hours=12.0)
        price, quantity, min_kwh, slice_prices = price_offer(offer, 0.05, 0.15)
        assert all(0.05 <= p <= 0.15 for p in slice_prices)
        assert 0.05 <= price <= 0.15
        assert 0.0 <= min_kwh <= quantity

    def test_tighter_offers_bid_higher(self):
        loose = make_offer("loose", slices=((0.1, 2.0),))
        tight = make_offer("tight", slices=((1.9, 2.0),))
        assert price_offer(tight, 0.05, 0.15)[0] > price_offer(loose, 0.05, 0.15)[0]

    def test_more_flexible_offers_bid_lower(self):
        rushed = make_offer("rushed", flex_hours=0.5)
        relaxed = make_offer("relaxed", flex_hours=36.0)
        assert (
            price_offer(relaxed, 0.05, 0.15)[0] < price_offer(rushed, 0.05, 0.15)[0]
        )

    def test_batched_bitwise_equals_scalar_on_fleet(self, fleet_clearing_inputs):
        aggregates, _ = fleet_clearing_inputs
        offers = [aggregate.offer for aggregate in aggregates]
        assert offers
        batched = price_offers_batched(offers, 0.03, 0.17)
        for i, offer in enumerate(offers):
            price, quantity, min_kwh, slice_prices = price_offer(offer, 0.03, 0.17)
            assert batched.prices[i] == price
            assert batched.quantities[i] == quantity
            assert batched.min_kwh[i] == min_kwh
            lo = batched.offsets[i]
            assert tuple(batched.slice_prices[lo : lo + len(offer.slices)]) == (
                slice_prices
            )

    def test_batched_bitwise_with_explicit_totals(self):
        offers = [
            make_offer("plain"),
            make_offer("clamped-up", total_min=3.0),
            make_offer("clamped-down", total_max=2.0),
            make_offer("tie", total_min=1.5, total_max=3.5),
        ]
        batched = price_offers_batched(offers, 0.05, 0.15)
        for i, offer in enumerate(offers):
            price, quantity, min_kwh, _ = price_offer(offer, 0.05, 0.15)
            assert batched.prices[i] == price
            assert batched.quantities[i] == quantity
            assert batched.min_kwh[i] == min_kwh

    def test_profile_arrays_fast_path_is_bitwise_identical(
        self, fleet_clearing_inputs
    ):
        aggregates, _ = fleet_clearing_inputs
        offers = [aggregate.offer for aggregate in aggregates]
        arrays = [aggregate.profile_bounds_arrays for aggregate in aggregates]
        plain = price_offers_batched(offers, 0.03, 0.17)
        cached = price_offers_batched(offers, 0.03, 0.17, profile_arrays=arrays)
        for field in ("prices", "quantities", "min_kwh", "curve_eur"):
            assert np.array_equal(getattr(plain, field), getattr(cached, field))

    def test_empty_batch(self):
        batched = price_offers_batched([], 0.05, 0.15)
        assert batched.prices.size == 0
        assert batched.offsets.size == 0


# --------------------------------------------------------------------- #
# Clearing mechanics on handcrafted markets
# --------------------------------------------------------------------- #


def _clear_single_zone(zone, offers, **config_kwargs):
    zoned = ZonedTarget(zones=(zone,))
    aggregates = [make_aggregate(offer) for offer in offers]
    return clear_zones(
        aggregates, zoned, MarketConfig(slices=2, engine="reference", **config_kwargs)
    )


class TestClearingMechanics:
    def test_slice_bounds_partition_the_axis(self):
        assert _slice_bounds(8, 2) == [0, 4, 8]
        assert _slice_bounds(7, 3) == [0, 2, 4, 7]
        with pytest.raises(MarketError, match="exceed target intervals"):
            _slice_bounds(4, 8)

    def test_rich_supply_accepts_everything(self):
        zone = flat_zone("a", level=50.0)
        result = _clear_single_zone(zone, [make_offer("x"), make_offer("y")])
        assert {o.status for o in result.outcomes} == {"accepted"}
        assert result.payments_eur == pytest.approx(result.revenue_eur)

    def test_no_supply_rejects_consuming_bids(self):
        zone = flat_zone("dead", level=0.0)
        result = _clear_single_zone(zone, [make_offer("x")])
        (outcome,) = result.outcomes
        assert outcome.status == "rejected"
        assert outcome.reason == "no-supply"
        assert outcome.payment_eur == 0.0

    def test_saturated_zone_prices_out_the_cheapest_bid(self):
        # Supply 2 kWh/slice; the tight (expensive) bid clears, the loose
        # (cheap) one cannot climb the ramp behind it.
        zone = flat_zone("scarce", level=0.5)
        tight = make_offer("tight", slices=((1.9, 2.0),), flex_hours=1.0)
        loose = make_offer("loose", slices=((0.1, 2.0),), flex_hours=36.0)
        result = _clear_single_zone(zone, [tight, loose])
        by_offer = result.by_offer()
        assert by_offer["tight"].cleared
        assert not by_offer["loose"].cleared
        assert by_offer["loose"].reason in ("priced-out", "lumpy")

    def test_lumpy_rejection_respects_minimum_energy(self):
        # The marginal bid meets the ramp at a partial quantity below its
        # minimum energy: all-or-nothing, so it is rejected as lumpy.
        zone = flat_zone("lumpy", level=0.55)
        bid = make_offer("rigid", slices=((2.1, 2.2), (2.1, 2.2)), flex_hours=0.5)
        result = _clear_single_zone(zone, [bid])
        (outcome,) = result.outcomes
        assert outcome.status == "rejected"
        assert outcome.reason == "lumpy"

    def test_partial_acceptance_settles_at_the_uniform_price(self):
        zone = flat_zone("partial", level=0.55)
        bid = make_offer("flexible", slices=((0.0, 2.2), (0.0, 2.2)), flex_hours=0.5)
        result = _clear_single_zone(zone, [bid])
        (outcome,) = result.outcomes
        assert outcome.status == "partial"
        assert 0.0 < outcome.quantity_kwh < 4.4
        assert outcome.payment_eur == pytest.approx(
            outcome.quantity_kwh * result.zones[0].slice_prices[0]
        )

    def test_production_offers_pass_through(self):
        zone = flat_zone("prod", level=0.5)
        production = make_offer("wind", slices=((-3.0, 0.0), (-2.0, 0.0)))
        result = _clear_single_zone(zone, [production, make_offer("load")])
        outcome = result.by_offer()["wind"]
        assert outcome.status == "accepted"
        assert outcome.reason == "pass-through"
        assert outcome.quantity_kwh == 0.0
        assert outcome.payment_eur == 0.0

    def test_statuses_and_reasons_stay_enumerated(self, fleet_clearing_inputs):
        aggregates, zoned = fleet_clearing_inputs
        result = clear_zones(
            aggregates, zoned, MarketConfig(slices=6, coupling_kwh=2.0)
        )
        assert {o.status for o in result.outcomes} <= set(BID_STATUSES)
        assert {o.reason for o in result.outcomes} <= set(BID_REASONS)
        assert len(result.outcomes) == len(aggregates)

    def test_unpriced_zone_is_refused(self):
        axis = TimeAxis(start=START, resolution=RES, length=8)
        unpriced = MarketZone(name="flat", target=TimeSeries.full(axis, 1.0))
        assert not unpriced.priced
        with pytest.raises(MarketError, match="cannot clear unpriced zones: flat"):
            _clear_single_zone(unpriced, [make_offer("x")])


class TestSpillPass:
    def _two_zone_market(self):
        # zone-a is starved (one expensive local bid saturates it), zone-b
        # has room; the rejected cheap bid can only clear by migrating.
        scarce = flat_zone("a", level=0.5)
        roomy = flat_zone("b", level=50.0, floor=0.02, cap=0.08)
        tight = make_offer("tight", slices=((1.9, 2.0),), flex_hours=1.0, consumer="hh-a")
        loose = make_offer("loose", slices=((0.1, 2.0),), flex_hours=36.0, consumer="hh-a2")
        zoned = ZonedTarget(
            zones=(scarce, roomy),
            assignment={"hh-a": "a", "hh-a2": "a"},
        )
        aggregates = [make_aggregate(tight), make_aggregate(loose)]
        return zoned, aggregates

    def test_zero_coupling_disables_spill(self):
        zoned, aggregates = self._two_zone_market()
        result = clear_zones(
            aggregates, zoned, MarketConfig(slices=2, coupling_kwh=0.0)
        )
        assert result.migrated == ()
        assert not result.by_offer()["loose"].cleared

    def test_rejected_bid_spills_to_the_adjacent_zone(self):
        zoned, aggregates = self._two_zone_market()
        result = clear_zones(
            aggregates, zoned, MarketConfig(slices=2, coupling_kwh=10.0)
        )
        outcome = result.by_offer()["loose"]
        assert outcome.migrated
        assert outcome.home_zone == "a"
        assert outcome.zone == "b"
        assert outcome.cleared
        # The import settles in the receiving zone's books.
        zone_b = next(z for z in result.zones if z.zone == "b")
        assert any(o.offer_id == "loose" for o in zone_b.outcomes)

    def test_coupling_capacity_bounds_the_import(self):
        zoned, aggregates = self._two_zone_market()
        result = clear_zones(
            aggregates, zoned, MarketConfig(slices=2, coupling_kwh=0.5)
        )
        outcome = result.by_offer()["loose"]
        if outcome.migrated:
            assert outcome.quantity_kwh <= 0.5 + 1e-12


# --------------------------------------------------------------------- #
# Engine equivalence and economic invariants on a real fleet
# --------------------------------------------------------------------- #


def _decisions(result: ClearingResult):
    return sorted(
        (o.offer_id, o.home_zone, o.zone, o.slice_index, o.status, o.reason)
        for o in result.outcomes
    )


class TestEngineEquivalence:
    @pytest.fixture(scope="class")
    def both(self, fleet_clearing_inputs):
        aggregates, zoned = fleet_clearing_inputs
        return {
            engine: clear_zones(
                aggregates,
                zoned,
                MarketConfig(slices=6, coupling_kwh=2.0, engine=engine),
            )
            for engine in MARKET_ENGINES
        }

    def test_acceptance_sets_identical(self, both):
        assert _decisions(both["reference"]) == _decisions(both["vectorized"])

    def test_settlements_bitwise_identical(self, both):
        ref = {
            o.offer_id: (o.quantity_kwh, o.payment_eur, o.price)
            for o in both["reference"].outcomes
        }
        vec = {
            o.offer_id: (o.quantity_kwh, o.payment_eur, o.price)
            for o in both["vectorized"].outcomes
        }
        assert ref == vec

    def test_prices_and_cleared_energy_bitwise_identical(self, both):
        for ref_zone, vec_zone in zip(
            both["reference"].zones, both["vectorized"].zones
        ):
            assert ref_zone.slice_prices == vec_zone.slice_prices
            assert ref_zone.cleared_kwh == vec_zone.cleared_kwh

    def test_welfare_reconciles(self, both):
        ref, vec = both["reference"], both["vectorized"]
        assert vec.welfare_eur == pytest.approx(ref.welfare_eur, rel=1e-9)
        assert vec.consumer_surplus_eur == pytest.approx(
            ref.consumer_surplus_eur, rel=1e-9
        )

    def test_budget_balance(self, both):
        for result in both.values():
            assert result.payments_eur == pytest.approx(
                result.revenue_eur, rel=1e-12
            )
            for zone in result.zones:
                for index, price in enumerate(zone.slice_prices):
                    paid = sum(
                        o.payment_eur
                        for o in zone.outcomes
                        if o.cleared and o.slice_index == index
                    )
                    assert paid == pytest.approx(
                        price * zone.cleared_kwh[index], abs=1e-9
                    )

    def test_individual_rationality(self, both):
        for result in both.values():
            for outcome in result.outcomes:
                if outcome.cleared:
                    assert (
                        outcome.payment_eur
                        <= outcome.price * outcome.quantity_kwh * (1 + 1e-9) + 1e-12
                    )

    def test_surpluses_are_nonnegative(self, both):
        result = both["vectorized"]
        assert result.consumer_surplus_eur >= -1e-9
        assert result.producer_surplus_eur >= -1e-9
        assert result.welfare_eur > 0.0


# --------------------------------------------------------------------- #
# Scheduling integration
# --------------------------------------------------------------------- #


class TestScheduleIntegration:
    @pytest.fixture(scope="class")
    def cleared_schedule(self, fleet_clearing_inputs):
        aggregates, zoned = fleet_clearing_inputs
        config = ScheduleConfig(market=MarketConfig(slices=6, coupling_kwh=2.0))
        return aggregates, zoned, schedule_zones(aggregates, zoned, config)

    def test_clearing_is_attached_and_summarised(self, cleared_schedule):
        _, _, result = cleared_schedule
        assert result.clearing is not None
        summary = result.summary()
        assert summary["market_bids"] == summary["market_accepted"] + summary[
            "market_partial"
        ] + summary["market_rejected"]
        assert summary["market_welfare_eur"] == pytest.approx(
            result.clearing.welfare_eur
        )

    def test_rejected_bids_surface_as_unplaced_in_their_home_zone(
        self, cleared_schedule
    ):
        aggregates, _, result = cleared_schedule
        outcomes = result.clearing.by_offer()
        unplaced_by_zone = {
            zone.name: {offer.offer_id for offer in zone_result.unplaced}
            for zone, zone_result in zip(result.zones, result.results)
        }
        for aggregate in aggregates:
            outcome = outcomes[aggregate.offer.offer_id]
            if not outcome.cleared:
                assert outcome.offer_id in unplaced_by_zone[outcome.home_zone]

    def test_cleared_bids_are_placed_in_their_clearing_zone(self, cleared_schedule):
        aggregates, _, result = cleared_schedule
        outcomes = result.clearing.by_offer()
        migrated = [o for o in outcomes.values() if o.migrated and o.cleared]
        handled_by_zone = {
            zone.name: {s.offer.offer_id for s in zone_result.schedules}
            | {offer.offer_id for offer in zone_result.unplaced}
            for zone, zone_result in zip(result.zones, result.results)
        }
        for outcome in migrated:
            assert outcome.offer_id in handled_by_zone[outcome.zone]

    def test_unpriced_zone_error_message_is_pinned(self, fleet_clearing_inputs):
        aggregates, _ = fleet_clearing_inputs
        axis = TimeAxis(start=START, resolution=RES, length=8)
        zoned = ZonedTarget(
            zones=(
                MarketZone(name="flat", target=TimeSeries.full(axis, 1.0)),
                flat_zone("priced"),
            )
        )
        config = ScheduleConfig(market=MarketConfig(slices=2))
        with pytest.raises(SchedulingError) as excinfo:
            schedule_zones(aggregates[:1], zoned, config)
        assert str(excinfo.value) == (
            "market clearing requested but zone(s) flat have no price band "
            "(price_floor == price_cap == 0.0); set price_floor/price_cap on "
            "the zone or drop the market config"
        )

    def test_make_market_zones_are_priced(self):
        axis = TimeAxis(start=START, resolution=RES, length=96)
        zones = make_market_zones(axis, 3, seed=7, zone_kwh=10.0)
        assert all(zone.priced for zone in zones)
        assert [zone.name for zone in zones] == ["zone-a", "zone-b", "zone-c"]


# --------------------------------------------------------------------- #
# Wire format
# --------------------------------------------------------------------- #


def _golden_market_run():
    """A fully deterministic zoned run with clearing, for the golden pin."""
    zones = (
        flat_zone("north", level=0.5, floor=0.05, cap=0.15),
        flat_zone("south", level=4.0, floor=0.02, cap=0.08),
    )
    zoned = ZonedTarget(
        zones=zones, assignment={"hh-north": "north", "hh-south": "south"}
    )
    offers = [
        make_offer("golden-tight", slices=((1.9, 2.0),), flex_hours=1.0, consumer="hh-north"),
        make_offer("golden-loose", slices=((0.1, 2.0),), flex_hours=36.0, consumer="hh-north"),
        make_offer("golden-south", slices=((0.5, 1.0), (0.5, 1.0)), consumer="hh-south"),
    ]
    aggregates = [make_aggregate(offer) for offer in offers]
    config = ScheduleConfig(
        market=MarketConfig(slices=2, coupling_kwh=3.0, engine="reference"),
    )
    return schedule_zones(aggregates, zoned, config)


class TestWireFormat:
    def test_clearing_result_roundtrip(self, fleet_clearing_inputs):
        aggregates, zoned = fleet_clearing_inputs
        result = clear_zones(
            aggregates, zoned, MarketConfig(slices=6, coupling_kwh=2.0)
        )
        payload = result.to_dict()
        assert ClearingResult.from_dict(payload).to_dict() == payload
        assert payload["version"] == 1

    def test_unsupported_clearing_version_raises(self):
        payload = _golden_market_run().clearing.to_dict()
        payload["version"] = 99
        with pytest.raises(MarketError, match="unsupported clearing version"):
            ClearingResult.from_dict(payload)

    def test_zoned_encoding_with_clearing_matches_golden(self):
        encoded = zoned_result_to_dict(_golden_market_run())
        golden = json.loads((GOLDEN / "zoned_result_market_golden.json").read_text())
        assert encoded == golden

    def test_zoned_encoding_with_clearing_roundtrips(self):
        result = _golden_market_run()
        encoded = zoned_result_to_dict(result)
        decoded = zoned_result_from_dict(encoded)
        assert decoded.clearing is not None
        assert zoned_result_to_dict(decoded) == encoded

    def test_pre_market_golden_loads_with_no_clearing(self):
        golden = json.loads((GOLDEN / "zoned_result_golden.json").read_text())
        decoded = zoned_result_from_dict(golden)
        assert decoded.clearing is None
        assert "clearing" not in zoned_result_to_dict(decoded)
