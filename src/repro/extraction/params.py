"""Flex-offer formulation parameters (paper §3.1 "context information").

The basic extraction "expects some parameters.  The most important is the
percentage of the flexible demand part in the input time series.  Other
parameters are directly related to the flex-offer attribute information ...
the number of intervals in a single flex-offer, interval duration, minimum
and maximum percentage of required energy, creation time, acceptance time,
assignment time, earliest start time, and latest start time.  All these
parameters are randomized in controlled variation limits in order to
generate non-uniform flex-offers."

:class:`FlexOfferParams` holds those controlled variation limits and knows
how to turn a vector of per-interval extracted energies into a fully
attributed :class:`~repro.flexoffer.model.FlexOffer`.  The interval
duration is no limit here: it is the grid the energies were built on, which
the extractor passes to :meth:`FlexOfferParams.build_offer`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from datetime import datetime, timedelta
from numbers import Integral, Real
from typing import Any

import numpy as np

from repro.errors import ExtractionError, ValidationError
from repro.flexoffer.model import FlexOffer, next_offer_id


@dataclass(frozen=True, slots=True)
class FlexOfferParams:
    """Controlled variation limits for flex-offer attributes.

    Parameters
    ----------
    flexible_share:
        Fraction of consumption considered flexible (paper: "Generally, the
        electricity consumption time series exhibit 0.1–6.5 % of flexible
        demand"; the Figure 5 walkthrough uses 5 %).
    slices_min / slices_max:
        Range for the number of profile slices per offer.  A slice is one
        interval of the grid the extractor built the energies on.
    energy_min_pct / energy_max_pct:
        Ranges for the minimum/maximum energy band around the extracted
        per-slice energy: each offer draws ``low ∈ energy_min_pct`` and
        ``high ∈ energy_max_pct`` and sets slice bounds
        ``[low × e, high × e]``.
    time_flexibility_min / time_flexibility_max:
        Range for ``latest_start − earliest_start``.
    creation_lead_min / creation_lead_max:
        How long before the earliest start the offer was created.
    assignment_lead_min / assignment_lead_max:
        How long before the earliest start the assignment deadline falls.
    """

    flexible_share: float = 0.05
    slices_min: int = 2
    slices_max: int = 8
    energy_min_pct: tuple[float, float] = (0.75, 0.95)
    energy_max_pct: tuple[float, float] = (1.05, 1.3)
    time_flexibility_min: timedelta = timedelta(hours=1)
    time_flexibility_max: timedelta = timedelta(hours=12)
    creation_lead_min: timedelta = timedelta(hours=12)
    creation_lead_max: timedelta = timedelta(hours=36)
    assignment_lead_min: timedelta = timedelta(minutes=15)
    assignment_lead_max: timedelta = timedelta(hours=2)

    def __post_init__(self) -> None:
        # Each value must have its default's type before the ranges below
        # can compare it.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, timedelta):
                if not isinstance(value, timedelta):
                    raise ValidationError(f"{f.name} must be a timedelta, got {value!r}")
            elif isinstance(f.default, tuple):
                if not isinstance(value, tuple) or len(value) != 2:
                    raise ValidationError(f"{f.name} must be a (low, high) pair, got {value!r}")
                for bound in value:
                    _check_number(f.name, bound)
            elif isinstance(f.default, int):
                if not isinstance(value, Integral) or isinstance(value, bool):
                    raise ValidationError(f"{f.name} must be an integer, got {value!r}")
            else:
                _check_number(f.name, value)
        if not 0.0 < self.flexible_share <= 1.0:
            raise ValidationError(
                f"flexible_share must be in (0, 1], got {self.flexible_share}"
            )
        if not 1 <= self.slices_min <= self.slices_max:
            raise ValidationError("need 1 <= slices_min <= slices_max")
        lo_lo, lo_hi = self.energy_min_pct
        hi_lo, hi_hi = self.energy_max_pct
        if not 0.0 <= lo_lo <= lo_hi <= 1.0:
            raise ValidationError("energy_min_pct must be within [0, 1], ordered")
        if not 1.0 <= hi_lo <= hi_hi:
            raise ValidationError("energy_max_pct must be >= 1, ordered")
        if self.time_flexibility_min > self.time_flexibility_max:
            raise ValidationError("time flexibility range is inverted")
        if self.creation_lead_min > self.creation_lead_max:
            raise ValidationError("creation lead range is inverted")
        if self.assignment_lead_min > self.assignment_lead_max:
            raise ValidationError("assignment lead range is inverted")

    # ------------------------------------------------------------------ #
    # Randomised draws (the "controlled variation")
    # ------------------------------------------------------------------ #

    def draw_slice_count(self, rng: np.random.Generator) -> int:
        """Number of profile slices for one offer."""
        return int(rng.integers(self.slices_min, self.slices_max + 1))

    def draw_energy_band(self, rng: np.random.Generator) -> tuple[float, float]:
        """(low, high) multipliers around the extracted energy."""
        low = float(rng.uniform(*self.energy_min_pct))
        high = float(rng.uniform(*self.energy_max_pct))
        return low, high

    def draw_time_flexibility(
        self, rng: np.random.Generator, resolution: timedelta
    ) -> timedelta:
        """Start-time flexibility, aligned to a grid of ``resolution``.

        The draw is a whole number of intervals inside
        ``[time_flexibility_min, time_flexibility_max]``; a grid too coarse
        to hold such a number is refused rather than rounded out of range.
        """
        lo = -(-self.time_flexibility_min // resolution)
        hi = self.time_flexibility_max // resolution
        if lo > hi:
            raise ExtractionError(
                f"a {resolution} grid has no start-time flexibility in "
                f"[{self.time_flexibility_min}, {self.time_flexibility_max}]"
            )
        intervals = int(rng.integers(lo, hi + 1))
        return resolution * intervals

    def draw_deadlines(
        self, earliest_start: datetime, rng: np.random.Generator
    ) -> tuple[datetime, datetime, datetime]:
        """(creation, acceptance, assignment) honouring the lifecycle order.

        creation <= acceptance <= assignment <= earliest_start.
        """
        creation_lead_s = rng.uniform(
            self.creation_lead_min.total_seconds(), self.creation_lead_max.total_seconds()
        )
        creation = earliest_start - timedelta(seconds=float(creation_lead_s))
        assignment_lead_s = rng.uniform(
            self.assignment_lead_min.total_seconds(),
            self.assignment_lead_max.total_seconds(),
        )
        assignment = earliest_start - timedelta(seconds=float(assignment_lead_s))
        if assignment < creation:
            assignment = creation
        # Acceptance falls a uniform fraction of the way creation→assignment.
        span = (assignment - creation).total_seconds()
        acceptance = creation + timedelta(seconds=float(rng.uniform(0.0, span)))
        return creation, acceptance, assignment

    # ------------------------------------------------------------------ #
    # Flex-offer formulation
    # ------------------------------------------------------------------ #

    def build_offer(
        self,
        earliest_start: datetime,
        slice_energies: np.ndarray,
        rng: np.random.Generator,
        source: str,
        resolution: timedelta,
        consumer_id: str = "",
        appliance: str = "",
        time_flexibility: timedelta | None = None,
        energy_band: tuple[float, float] | None = None,
    ) -> FlexOffer:
        """Formulate one flex-offer around extracted per-slice energies.

        ``slice_energies[i]`` is the expected energy of slice ``i`` (kWh),
        one interval of the ``resolution`` grid it was built on; the energy
        band draw turns each into a ``[low·e, high·e]`` range so the
        *midpoint-sum* of the profile equals ``mean(band)·sum(energies)``.
        The band is centred post-hoc so the midpoint sum stays exactly equal
        to the extracted energy (the paper's conservation property).
        """
        energies = np.asarray(slice_energies, dtype=np.float64)
        if energies.ndim != 1 or energies.size < 1:
            raise ValidationError("slice_energies must be a non-empty vector")
        if (energies < 0).any():
            raise ValidationError("slice energies must be non-negative")
        low, high = energy_band if energy_band is not None else self.draw_energy_band(rng)
        # Recentre the band so (low + high) / 2 == 1: conservation of the
        # expected energy regardless of the asymmetric draw.
        centre = 0.5 * (low + high)
        low, high = low / centre, high / centre
        flexibility = (
            time_flexibility if time_flexibility is not None
            else self.draw_time_flexibility(rng, resolution)
        )
        creation, acceptance, assignment = self.draw_deadlines(earliest_start, rng)
        # Unit slices [low·e, high·e]; the bound vectors become the offer's
        # arrays instead of being rebuilt from its slices.
        return FlexOffer.from_bounds(
            low * energies,
            high * energies,
            earliest_start=earliest_start,
            latest_start=earliest_start + flexibility,
            resolution=resolution,
            offer_id=next_offer_id(source),
            consumer_id=consumer_id,
            appliance=appliance,
            source=source,
            creation_time=creation,
            acceptance_deadline=acceptance,
            assignment_deadline=assignment,
        )


def _check_number(name: str, value: Any) -> None:
    if not isinstance(value, Real) or isinstance(value, bool) or not math.isfinite(value):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
