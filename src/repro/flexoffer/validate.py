"""Flex-offer invariant checking beyond construction-time validation.

:class:`~repro.flexoffer.model.FlexOffer` enforces structural invariants in
``__post_init__``; this module adds the *policy* checks the paper's
extraction contract implies — e.g. "all of these attributes are within the
required limits" (§3.1) — and batch checking with readable reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import timedelta

from repro.flexoffer.model import FlexOffer


@dataclass(frozen=True, slots=True)
class PolicyLimits:
    """Acceptable ranges for flex-offer attributes (extraction contract).

    ``None`` bounds are unconstrained.  Defaults reflect the paper's setting:
    15-minute intervals, household-scale energies, same-day flexibility.
    """

    min_slices: int = 1
    max_slices: int | None = 96
    min_total_energy: float = 0.0
    max_total_energy: float | None = None
    min_time_flexibility: timedelta = timedelta(0)
    max_time_flexibility: timedelta | None = None
    require_deadlines_ordered: bool = True

    def check(self, offer: FlexOffer) -> list[str]:
        """Return a list of violation messages (empty = compliant)."""
        problems: list[str] = []
        n = len(offer.slices)
        if n < self.min_slices:
            problems.append(f"{offer.offer_id}: {n} slices < min {self.min_slices}")
        if self.max_slices is not None and n > self.max_slices:
            problems.append(f"{offer.offer_id}: {n} slices > max {self.max_slices}")
        tmin, tmax = offer.effective_total_bounds()
        if tmax < self.min_total_energy:
            problems.append(
                f"{offer.offer_id}: max energy {tmax:.3f} below floor "
                f"{self.min_total_energy:.3f}"
            )
        if self.max_total_energy is not None and tmin > self.max_total_energy:
            problems.append(
                f"{offer.offer_id}: min energy {tmin:.3f} above cap "
                f"{self.max_total_energy:.3f}"
            )
        flex = offer.time_flexibility
        if flex < self.min_time_flexibility:
            problems.append(
                f"{offer.offer_id}: time flexibility {flex} below "
                f"{self.min_time_flexibility}"
            )
        if self.max_time_flexibility is not None and flex > self.max_time_flexibility:
            problems.append(
                f"{offer.offer_id}: time flexibility {flex} above "
                f"{self.max_time_flexibility}"
            )
        if self.require_deadlines_ordered:
            problems.extend(_deadline_order_problems(offer))
        return problems


def _deadline_order_problems(offer: FlexOffer) -> list[str]:
    """MIRABEL lifecycle order: creation <= acceptance <= assignment <= earliest start."""
    problems = []
    stages = [
        ("creation_time", offer.creation_time),
        ("acceptance_deadline", offer.acceptance_deadline),
        ("assignment_deadline", offer.assignment_deadline),
        ("earliest_start", offer.earliest_start),
    ]
    known = [(name, t) for name, t in stages if t is not None]
    for (name_a, a), (name_b, b) in zip(known, known[1:]):
        if a > b:
            problems.append(
                f"{offer.offer_id}: {name_a} ({a}) after {name_b} ({b})"
            )
    return problems


def check_all(offers: list[FlexOffer], limits: PolicyLimits | None = None) -> list[str]:
    """Validate a batch of offers; returns all violation messages."""
    limits = limits or PolicyLimits()
    problems: list[str] = []
    seen_ids: set[str] = set()
    for offer in offers:
        if offer.offer_id in seen_ids:
            problems.append(f"duplicate offer id: {offer.offer_id}")
        seen_ids.add(offer.offer_id)
        problems.extend(limits.check(offer))
    return problems
