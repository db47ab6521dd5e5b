"""Priced bids: turning flex-offers into merit-order market orders.

The EDBT paper extracts *flexibility*; a market monetises it.  Following the
bid/clearing structure of energy-only markets (flexABLE's EOM, Kara et al.'s
flexibility products), every aggregated flex-offer becomes one demand bid in
its zone's market:

- **willingness-to-pay** rises with how *tight* the offer is — a slice whose
  ``energy_min`` is close to its ``energy_max`` must buy almost all of that
  energy, so it bids near the zone's price cap;
- **willingness-to-shift** lowers the bid — an offer with a day of time
  flexibility can chase cheap intervals and therefore refuses to pay much in
  any particular one.

Both effects are folded into a per-profile-slice bid curve
(:attr:`PricedBid.slice_prices`) whose energy-weighted mean is the scalar
merit-order price.  :func:`price_offer` is the *reference* derivation —
deliberately scalar Python, one offer at a time.  :func:`price_offers_batched`
derives every offer at once for the vectorized clearing engine and is held
**bitwise equal** to the scalar path: elementwise numpy arithmetic is IEEE
identical by nature, and the per-offer reductions use a padded
column-parallel accumulation (one offer per column, rows added top to
bottom) so every sum happens in exactly the reference's left-to-right
order — ``np.add.reduceat``/``np.sum`` would not do, as they sum pairwise.
Both engines therefore see *identical* bid floats and their accept/reject
decisions cannot diverge — the same discipline as ``greedy.py``'s engine
contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import timedelta
from numbers import Integral, Real

import numpy as np

from repro.errors import MarketError
from repro.flexoffer.model import FlexOffer

ONE_DAY = timedelta(days=1)

#: Clearing engines: execution plans over the same bid scalars, never
#: different behaviours (see repro/market/clearing.py).
MARKET_ENGINES = ("reference", "vectorized")


@dataclass(frozen=True, slots=True)
class MarketConfig:
    """How merit-order clearing runs on a zoned schedule.

    Parameters
    ----------
    slices:
        Number of uniform market periods the target axis is divided into;
        each gets its own supply curve and uniform clearing price.
    coupling_kwh:
        Capacity of every directed coupling between *adjacent* zones
        (declaration order forms a line).  ``0`` disables the spill pass.
    engine:
        ``"reference"`` (straightforward scalar loops) or ``"vectorized"``
        (batched numpy); acceptance sets are identical by construction.
    """

    slices: int = 8
    coupling_kwh: float = 0.0
    engine: str = "vectorized"

    def __post_init__(self) -> None:
        if not isinstance(self.slices, Integral) or isinstance(self.slices, bool):
            raise MarketError(f"slices must be an integer, got {self.slices!r}")
        if self.slices < 1:
            raise MarketError(f"slices must be >= 1, got {self.slices}")
        if not isinstance(self.coupling_kwh, Real) or isinstance(self.coupling_kwh, bool):
            raise MarketError(f"coupling_kwh must be a number, got {self.coupling_kwh!r}")
        if not self.coupling_kwh >= 0:  # NaN fails too
            raise MarketError(f"coupling_kwh must be >= 0, got {self.coupling_kwh}")
        if self.engine not in MARKET_ENGINES:
            raise MarketError(
                f"engine must be one of {', '.join(MARKET_ENGINES)}; "
                f"unknown market engine {self.engine!r}"
            )


@dataclass(frozen=True, slots=True)
class PricedBid:
    """One flex-offer's demand bid in its home zone's market.

    ``slice_prices`` is the bid curve: willingness-to-pay per profile slice
    in EUR/kWh, inside the zone's ``[price_floor, price_cap]`` band.
    ``price`` is its energy-weighted mean — the scalar the merit order sorts
    on.  ``quantity_kwh``/``min_kwh`` are the offer's effective total energy
    bounds: the bid demands up to ``quantity_kwh`` and cannot be cleared
    below ``min_kwh`` (lumpy partial acceptance is rejected instead).
    """

    offer: FlexOffer
    zone: str
    slice_index: int
    price: float
    quantity_kwh: float
    min_kwh: float
    slice_prices: tuple[float, ...]

    @property
    def consuming(self) -> bool:
        """False for production/zero-energy offers, which bypass clearing."""
        return self.quantity_kwh > 0.0


def shift_utility(time_flexibility: timedelta) -> float:
    """Willingness-to-shift discount in ``(0, 1]``: 1 = must-run, ->0 = free."""
    return 1.0 / (1.0 + time_flexibility / ONE_DAY)


def price_offer(
    offer: FlexOffer, price_floor: float, price_cap: float
) -> tuple[float, float, float, tuple[float, ...]]:
    """Derive ``(price, quantity_kwh, min_kwh, slice_prices)`` for one offer.

    Reference bid-derivation arithmetic: scalar Python, left-to-right
    accumulation.  The vectorized engine's batched derivation replicates
    every expression here with sequential numpy reductions, so merit order
    and acceptance thresholds are bitwise identical across engines by
    construction (asserted by the market bench equivalence section).
    """
    span = price_cap - price_floor
    shift_u = shift_utility(offer.time_flexibility)
    slice_prices = []
    energy = 0.0
    weighted = 0.0
    for s in offer.slices:
        emax = s.energy_max
        tightness = s.energy_min / emax if emax > 0.0 else 1.0
        slice_price = price_floor + span * (0.5 * (tightness + shift_u))
        slice_prices.append(slice_price)
        demanded = emax if emax > 0.0 else 0.0
        energy += demanded
        weighted += demanded * slice_price
    price = weighted / energy if energy > 0.0 else price_floor + 0.5 * span
    tmin, tmax = offer.effective_total_bounds()
    quantity = tmax if tmax > 0.0 else 0.0
    floor_min = tmin if tmin > 0.0 else 0.0
    min_kwh = floor_min if floor_min < quantity else quantity
    return price, quantity, min_kwh, tuple(slice_prices)


@dataclass(frozen=True, slots=True)
class BatchedBids:
    """Batched :func:`price_offer` output for a stack of offers.

    The per-offer scalars (``prices``/``quantities``/``min_kwh``) are
    bitwise equal to the reference derivation.  ``curve_eur`` is each
    offer's full bid-curve integral in closed form — the bid price is
    constant within a profile slice, so the per-interval sum telescopes to
    ``sum(demanded * slice_price)``; the vectorized engine uses it directly
    for valuations (welfare input only, reconciled against the reference's
    per-interval integration at ``rtol=1e-9``).  The concatenated
    profile-slice arrays (offer-major ``slice_prices`` with ``offsets``
    marking each offer's first slice) are kept for reconciliation tests.
    """

    prices: np.ndarray
    quantities: np.ndarray
    min_kwh: np.ndarray
    curve_eur: np.ndarray
    slice_prices: np.ndarray
    offsets: np.ndarray


def _sequential_sums(
    values: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]
) -> np.ndarray:
    """Per-offer sums in strict left-to-right order, one offer per column.

    Scatter the concatenated values into a (max_slices, n_offers) grid and
    accumulate row by row: column ``j``'s total is ``((v0 + v1) + v2) + ...``
    exactly as the scalar reference adds them (trailing zero padding is
    exact).  Pairwise reducers (``np.sum``, ``np.add.reduceat``) regroup the
    additions and drift in the last ulp — never use them for decision inputs.
    """
    grid = np.zeros(shape)
    grid[rows, cols] = values
    totals = grid[0].copy()
    for row in range(1, shape[0]):
        totals += grid[row]
    return totals


def price_offers_batched(
    offers: list[FlexOffer] | tuple[FlexOffer, ...],
    price_floor: float,
    price_cap: float,
    profile_arrays: list[tuple[np.ndarray, ...]] | None = None,
) -> BatchedBids:
    """Derive bids for all ``offers`` in one batched pass.

    Bitwise equal to mapping :func:`price_offer` over ``offers`` (see the
    module docstring for why the accumulation order is preserved), at a
    fraction of the per-offer Python cost.  ``profile_arrays`` optionally
    supplies each offer's pre-extracted ``(energy_min, energy_max, ...)``
    vectors (e.g. ``AggregatedFlexOffer.profile_bounds_arrays``) so the hot
    path skips per-slice Python iteration entirely.
    """
    n = len(offers)
    empty_f = np.empty(0, dtype=np.float64)
    if n == 0:
        return BatchedBids(
            empty_f, empty_f, empty_f, empty_f, empty_f, np.empty(0, dtype=np.intp)
        )
    span = price_cap - price_floor
    if profile_arrays is not None:
        counts = np.fromiter(
            (arrays[0].size for arrays in profile_arrays), dtype=np.intp, count=n
        )
        total = int(counts.sum())
        emin = np.concatenate([arrays[0] for arrays in profile_arrays])
        emax = np.concatenate([arrays[1] for arrays in profile_arrays])
    else:
        counts = np.fromiter((len(o.slices) for o in offers), dtype=np.intp, count=n)
        total = int(counts.sum())
        emin = np.fromiter(
            (s.energy_min for o in offers for s in o.slices),
            dtype=np.float64,
            count=total,
        )
        emax = np.fromiter(
            (s.energy_max for o in offers for s in o.slices),
            dtype=np.float64,
            count=total,
        )
    shift = np.repeat(
        np.fromiter(
            (shift_utility(o.time_flexibility) for o in offers),
            dtype=np.float64,
            count=n,
        ),
        counts,
    )
    positive = emax > 0.0
    tightness = np.divide(emin, emax, out=np.ones_like(emax), where=positive)
    slice_prices = price_floor + span * (0.5 * (tightness + shift))
    demanded = np.where(positive, emax, 0.0)
    offsets = np.zeros(n, dtype=np.intp)
    np.cumsum(counts[:-1], out=offsets[1:])
    cols = np.repeat(np.arange(n, dtype=np.intp), counts)
    rows = np.arange(total, dtype=np.intp) - np.repeat(offsets, counts)
    shape = (int(counts.max()), n)
    energy = _sequential_sums(demanded, rows, cols, shape)
    weighted = _sequential_sums(demanded * slice_prices, rows, cols, shape)
    tmin = _sequential_sums(emin, rows, cols, shape)
    tmax = _sequential_sums(emax, rows, cols, shape)
    has_energy = energy > 0.0
    prices = np.where(
        has_energy,
        weighted / np.where(has_energy, energy, 1.0),
        price_floor + 0.5 * span,
    )
    # Explicit totals tighten the profile bounds exactly as
    # FlexOffer.effective_total_bounds does: strict comparisons keep the
    # profile value on ties (matching Python's max/min), and the ±inf
    # stand-ins for absent totals never win a strict comparison.
    explicit_min = np.fromiter(
        (
            o.total_energy_min if o.total_energy_min is not None else -np.inf
            for o in offers
        ),
        dtype=np.float64,
        count=n,
    )
    explicit_max = np.fromiter(
        (
            o.total_energy_max if o.total_energy_max is not None else np.inf
            for o in offers
        ),
        dtype=np.float64,
        count=n,
    )
    tmin = np.where(explicit_min > tmin, explicit_min, tmin)
    tmax = np.where(explicit_max < tmax, explicit_max, tmax)
    quantities = np.where(tmax > 0.0, tmax, 0.0)
    floors_min = np.where(tmin > 0.0, tmin, 0.0)
    min_kwh = np.where(floors_min < quantities, floors_min, quantities)
    return BatchedBids(prices, quantities, min_kwh, weighted, slice_prices, offsets)
