"""Start-aligned N-to-1 flex-offer aggregation (paper [4]).

A group of similar offers becomes one *aggregated* flex-offer whose profile
is the slice-wise sum of the member profiles, each member placed at its own
earliest start relative to the group's earliest.  The aggregate's time
flexibility is the *minimum* member flexibility, which makes aggregation
conservative: any schedule of the aggregate disaggregates into feasible
member schedules (shift every member by the same delta).

The cost of conservatism is lost flexibility (members with more slack than
the minimum give some up) — exactly the compression/fidelity trade-off the
grouping grid controls.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import timedelta

import numpy as np

from repro.errors import AggregationError
from repro.flexoffer.model import FlexOffer, next_offer_id
from repro.flexoffer.schedule import ScheduledFlexOffer
from repro.wire import wire_format

_TOLERANCE = 1e-9


@wire_format("aggregated flex-offer")
@dataclass(frozen=True)
class AggregatedFlexOffer:
    """An aggregate offer plus everything needed to disaggregate it."""

    offer: FlexOffer
    members: tuple[FlexOffer, ...]
    member_offsets: tuple[int, ...]  # member profile offset in aggregate slices

    @property
    def size(self) -> int:
        """Number of member offers."""
        return len(self.members)

    @property
    def profile_bounds_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The aggregate profile as read-only ``(energy_min, energy_max,
        durations)`` vectors.

        Batch consumers (market bid derivation, fleet matrices) touch each
        aggregate's slices many times; the vectors are the aggregate
        offer's own, built once per offer
        (:meth:`~repro.flexoffer.model.FlexOffer.slice_arrays`).
        """
        return self.offer.slice_arrays()


def aggregate_group(group: list[FlexOffer]) -> AggregatedFlexOffer:
    """Aggregate one group of offers into a single flex-offer.

    All members must share a resolution.  The aggregate's earliest start is
    the earliest member start; each member's profile is embedded at its own
    offset; per-interval min/max bounds are summed.
    """
    if not group:
        raise AggregationError("cannot aggregate an empty group")
    resolution = group[0].resolution
    for offer in group[1:]:
        if offer.resolution != resolution:
            raise AggregationError("aggregation requires a uniform resolution")
    base_start = min(o.earliest_start for o in group)
    offsets = []
    for offer in group:
        delta = offer.earliest_start - base_start
        quotient = delta / resolution
        offset = int(round(quotient))
        if abs(quotient - offset) > 1e-9:
            raise AggregationError(
                f"offer {offer.offer_id} is not grid-aligned with the group"
            )
        offsets.append(offset)

    expansions = [o.slice_expansion_arrays() for o in group]
    total_len = max(off + exp_min.size for off, (exp_min, _) in zip(offsets, expansions))
    mins = np.zeros(total_len)
    maxs = np.zeros(total_len)
    for off, (exp_min, exp_max) in zip(offsets, expansions):
        mins[off : off + exp_min.size] += exp_min
        maxs[off : off + exp_max.size] += exp_max

    flexibility = min((o.time_flexibility for o in group), default=timedelta(0))
    aggregate = FlexOffer.from_bounds(
        mins,
        maxs,
        earliest_start=base_start,
        latest_start=base_start + flexibility,
        resolution=resolution,
        offer_id=next_offer_id("agg"),
        source="aggregation",
        creation_time=min(
            (o.creation_time for o in group if o.creation_time is not None),
            default=None,
        ),
    )
    return AggregatedFlexOffer(
        offer=aggregate, members=tuple(group), member_offsets=tuple(offsets)
    )


def aggregate_all(
    groups: list[list[FlexOffer]],
) -> list[AggregatedFlexOffer]:
    """Aggregate every group; convenience over :func:`aggregate_group`."""
    return [aggregate_group(g) for g in groups]


def disaggregate_schedule(
    aggregated: AggregatedFlexOffer, schedule: ScheduledFlexOffer
) -> list[ScheduledFlexOffer]:
    """Split a schedule of the aggregate into feasible member schedules.

    The time shift ``delta = schedule.start − aggregate.earliest_start`` is
    applied to every member (feasible because the aggregate's flexibility is
    the member minimum).  Each aggregate interval's energy is divided among
    the members overlapping it: every member first receives its minimum,
    then the remainder is shared proportionally to each member's slack —
    which always lands inside the member bounds because the aggregate bounds
    are the member sums.
    """
    if schedule.offer.offer_id != aggregated.offer.offer_id:
        raise AggregationError("schedule does not belong to this aggregate")
    delta = schedule.start - aggregated.offer.earliest_start
    energies = schedule.interval_energies()

    # Matrix formulation: member i's expanded bounds embedded at its offset
    # in row i, zero elsewhere.  Per-interval sums, targets and slack shares
    # then fall out as single array passes over the (members × intervals)
    # matrices instead of a Python loop over every timestep and member.
    members = aggregated.members
    offsets = aggregated.member_offsets
    total_len = energies.size
    lo_mat = np.zeros((len(members), total_len))
    hi_mat = np.zeros((len(members), total_len))
    covered = np.zeros(total_len, dtype=bool)
    spans = []
    for i, (off, member) in enumerate(zip(offsets, members)):
        exp_min, exp_max = member.slice_expansion_arrays()
        end = off + exp_min.size
        lo_mat[i, off:end] = exp_min
        hi_mat[i, off:end] = exp_max
        covered[off:end] = True
        spans.append(end)

    orphaned = ~covered & (energies > _TOLERANCE)
    if orphaned.any():
        raise AggregationError(
            f"aggregate interval {int(np.flatnonzero(orphaned)[0])} has energy but no members"
        )
    lo_sum = lo_mat.sum(axis=0)
    hi_sum = hi_mat.sum(axis=0)
    target = np.clip(energies, lo_sum, hi_sum)
    slack_sum = hi_sum - lo_sum
    # Every member first receives its minimum; the remainder is shared
    # proportionally to each member's slack (zero share when the group has
    # no slack at an interval).
    safe_slack = np.where(slack_sum > _TOLERANCE, slack_sum, 1.0)
    scale = np.where(slack_sum > _TOLERANCE, (target - lo_sum) / safe_slack, 0.0)
    member_matrix = lo_mat + (hi_mat - lo_mat) * scale[None, :]

    out = []
    for i, (off, end, member) in enumerate(zip(offsets, spans, members)):
        interval_energy = member_matrix[i, off:end]
        if end - off == len(member.slices):
            # Unit slices: a one-interval sum is 0.0 + the interval's value.
            slice_energies = tuple((interval_energy + 0.0).tolist())
        else:
            bounds = np.cumsum(member.slice_arrays()[2]).tolist()
            slice_energies = tuple(
                float(interval_energy[lo:hi].sum()) for lo, hi in zip([0] + bounds, bounds)
            )
        out.append(
            ScheduledFlexOffer(
                offer=member,
                start=member.earliest_start + delta,
                slice_energies=slice_energies,
            )
        )
    return out
