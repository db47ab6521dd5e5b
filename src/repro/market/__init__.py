"""Economic market clearing for zoned flexibility scheduling.

The subsystem contract:

- :mod:`repro.market.model` — :class:`PricedBid` (a flex-offer turned into
  a demand bid: per-slice willingness-to-pay curve inside the zone's price
  band, discounted by willingness-to-shift) and :class:`MarketConfig` (the
  clearing knobs: market slices, coupling capacity, engine).
- :mod:`repro.market.clearing` — per-zone, per-slice uniform-price
  merit-order clearing (:func:`clear_zones`) with a bounded-capacity
  cross-zone spill pass, producing a :class:`ClearingResult` (acceptance
  sets, per-slice prices, consumer surplus / producer revenue / welfare).

The reference↔vectorized reconciliation benchmark behind
``BENCH_market.json`` is the ``market`` preset of :mod:`repro.bench`
(``repro bench --suite market``).

Clearing threads into scheduling through
``ScheduleConfig(market=MarketConfig(...))``: on zoned targets,
:func:`repro.scheduling.zones.schedule_zones` clears first and places only
cleared bids.
"""

from repro.market.clearing import (
    BidOutcome,
    ClearingResult,
    ZoneClearing,
    clear_zones,
)
from repro.market.model import (
    MARKET_ENGINES,
    BatchedBids,
    MarketConfig,
    PricedBid,
    price_offer,
    price_offers_batched,
    shift_utility,
)

__all__ = [
    "MARKET_ENGINES",
    "BatchedBids",
    "BidOutcome",
    "ClearingResult",
    "MarketConfig",
    "PricedBid",
    "ZoneClearing",
    "clear_zones",
    "price_offer",
    "price_offers_batched",
    "shift_utility",
]
