"""Streaming flex-offer aggregation: fold offers chunk-by-chunk (paper [4]).

The batch path (:func:`~repro.aggregation.grouping.group_offers` +
:func:`~repro.aggregation.aggregate.aggregate_all`) materializes every
offer before the first aggregate exists — at a million households that is
the peak-memory wall of the whole pipeline.  :func:`aggregate_stream`
folds offers into per-cell accumulators as they arrive, so peak memory is
O(live accumulators + current chunk), independent of how many offers flow
through.

Reconciliation contract (pinned by ``tests/test_aggregation_streaming.py``):
given the same offers in the same order, the same grouping parameters and
the same grid ``epoch``, the stream produces *bitwise* the results of the
batch path — profile floats, member offsets, minted offer ids, everything.
That holds because the fold replays the batch arithmetic exactly:

* cell keys use the same bucket arithmetic as ``group_offers``, cells
  split at ``max_group_size`` in the same insertion order, and finalized
  aggregates are emitted in the same sorted-cell order;
* each accumulator adds member profiles position-by-position in arrival
  order — the same float additions in the same order as
  ``aggregate_group``'s member loop.  When a later member lowers the
  group's base start, existing sums are *moved* (an exact array shift),
  never re-derived, so no rounding can diverge.

The one thing the batch path gets for free that a stream cannot is the
default grid anchor (the minimum earliest start over *all* offers): pass
``epoch`` explicitly when reconciling against a batch run; left unset, the
first offer anchors the grid.
"""

from __future__ import annotations

import math
from datetime import datetime, timedelta
from typing import Iterable, Iterator

import numpy as np

from repro.aggregation.aggregate import AggregatedFlexOffer
from repro.aggregation.grouping import GroupingParams
from repro.errors import AggregationError
from repro.flexoffer.model import FlexOffer, ProfileSlice, next_offer_id


def _aligned_offset(delta: timedelta, resolution: timedelta, offer_id: str) -> int:
    """``delta`` as a whole number of grid intervals (aggregate.py's check)."""
    quotient = delta / resolution
    offset = int(round(quotient))
    if abs(quotient - offset) > 1e-9:
        raise AggregationError(
            f"offer {offer_id} is not grid-aligned with the group"
        )
    return offset


class _GroupAccumulator:
    """One open group: the running slice-wise sums of its members so far."""

    __slots__ = (
        "resolution",
        "keep_members",
        "base_start",
        "mins",
        "maxs",
        "flexibility",
        "creation_time",
        "count",
        "members",
        "offsets",
    )

    def __init__(self, resolution: timedelta, keep_members: bool) -> None:
        self.resolution = resolution
        self.keep_members = keep_members
        self.base_start: datetime | None = None
        self.mins = np.zeros(0)
        self.maxs = np.zeros(0)
        self.flexibility: timedelta | None = None
        self.creation_time: datetime | None = None
        self.count = 0
        self.members: list[FlexOffer] = []
        self.offsets: list[int] = []

    def add(self, offer: FlexOffer) -> None:
        if self.base_start is None:
            self.base_start = offer.earliest_start
        elif offer.earliest_start < self.base_start:
            # A new minimum re-anchors the group.  Shift the existing sums
            # right — values move, no arithmetic — so every position still
            # holds exactly the floats the batch path would have summed.
            shift = _aligned_offset(
                self.base_start - offer.earliest_start, self.resolution, offer.offer_id
            )
            self.mins = np.concatenate([np.zeros(shift), self.mins])
            self.maxs = np.concatenate([np.zeros(shift), self.maxs])
            self.offsets = [off + shift for off in self.offsets]
            self.base_start = offer.earliest_start
        offset = _aligned_offset(
            offer.earliest_start - self.base_start, self.resolution, offer.offer_id
        )
        exp_min, exp_max = offer.slice_expansion_arrays()
        need = offset + exp_min.size
        if need > self.mins.size:
            grow = need - self.mins.size
            self.mins = np.concatenate([self.mins, np.zeros(grow)])
            self.maxs = np.concatenate([self.maxs, np.zeros(grow)])
        self.mins[offset : offset + exp_min.size] += exp_min
        self.maxs[offset : offset + exp_max.size] += exp_max
        flexibility = offer.time_flexibility
        if self.flexibility is None or flexibility < self.flexibility:
            self.flexibility = flexibility
        if offer.creation_time is not None and (
            self.creation_time is None or offer.creation_time < self.creation_time
        ):
            self.creation_time = offer.creation_time
        self.count += 1
        self.offsets.append(offset)
        if self.keep_members:
            self.members.append(offer)

    def finalize(self) -> AggregatedFlexOffer:
        """Mint the aggregate — same construction as ``aggregate_group``."""
        assert self.base_start is not None and self.flexibility is not None
        slices = tuple(
            ProfileSlice(float(lo), float(hi))
            for lo, hi in zip(self.mins, self.maxs)
        )
        aggregate = FlexOffer(
            earliest_start=self.base_start,
            latest_start=self.base_start + self.flexibility,
            slices=slices,
            resolution=self.resolution,
            offer_id=next_offer_id("agg"),
            source="aggregation",
            creation_time=self.creation_time,
        )
        return AggregatedFlexOffer(
            offer=aggregate,
            members=tuple(self.members),
            member_offsets=tuple(self.offsets) if self.keep_members else (),
        )


def aggregate_stream(
    offers: Iterable[FlexOffer],
    params: GroupingParams | None = None,
    epoch: datetime | None = None,
    keep_members: bool = True,
) -> Iterator[AggregatedFlexOffer]:
    """Fold an offer stream into aggregates; yields after the stream ends.

    Parameters
    ----------
    offers:
        Any iterable — a list, a generator over household chunks, anything.
        It is consumed exactly once and never materialized.
    params:
        The grouping grid (same defaults as :func:`group_offers`).
    epoch:
        Grid anchor for the start buckets.  Pass the batch default (the
        minimum earliest start) to reconcile bitwise with
        ``aggregate_all(group_offers(...))``; defaults to the first
        offer's earliest start.
    keep_members:
        ``True`` retains member offers and offsets so the aggregates can be
        disaggregated — and keeps them alive, making peak memory O(offers).
        ``False`` drops them once folded (aggregates carry empty
        ``members``): the O(accumulators + chunk) mode for streams too
        large to hold.  The aggregate *offers* are identical either way.

    Yields aggregates in the batch path's order: sorted cell keys, splits
    in insertion order — which also makes the minted ``agg`` offer ids
    reconcile under the same :func:`~repro.flexoffer.model.offer_id_scope`.
    """
    params = params or GroupingParams()
    cells: dict[tuple[int, int, float], list[_GroupAccumulator]] = {}
    for offer in offers:
        if epoch is None:
            epoch = offer.earliest_start
        # floor, not int(): keeps pre-epoch offers in true single-width
        # buckets — the same arithmetic as ``group_offers``.
        start_bucket = math.floor(
            (offer.earliest_start - epoch) / params.start_tolerance
        )
        flex_bucket = int(offer.time_flexibility / params.flexibility_tolerance)
        key = (start_bucket, flex_bucket, offer.resolution.total_seconds())
        accumulators = cells.get(key)
        if accumulators is None:
            accumulators = cells[key] = [
                _GroupAccumulator(offer.resolution, keep_members)
            ]
        if accumulators[-1].count >= params.max_group_size:
            accumulators.append(_GroupAccumulator(offer.resolution, keep_members))
        accumulators[-1].add(offer)
    for key in sorted(cells):
        for accumulator in cells[key]:
            yield accumulator.finalize()
