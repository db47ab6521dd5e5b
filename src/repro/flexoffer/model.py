"""The flex-offer data model (paper Figure 1, MIRABEL core concept).

A *flex-offer* captures shiftable demand: an energy profile made of
consecutive slices, each with a minimum and maximum energy requirement, plus
*time flexibility* — the profile may start anywhere between an earliest and a
latest start time.  The paper's running example: "charging of the vehicle's
batteries should start between 10PM and 5AM, the charging takes 2 hours in
total, and it requires 50kWh".

Energies are kWh per slice.  Consumption flex-offers use non-negative
energies; production flex-offers (paper §6, future work) are modelled with
negative energies (production = negative consumption) so the same scheduling
machinery applies to both.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from typing import Iterator

import numpy as np

from repro.errors import ValidationError
from repro.timeseries.axis import FIFTEEN_MINUTES


class OfferIdFactory:
    """A deterministic flex-offer id source.

    Ids are ``{prefix}-{namespace}-{n}`` (or ``{prefix}-{n}`` without a
    namespace) with ``n`` counting from ``start + 1`` (default 1) per
    factory.  Two factories with the same namespace mint identical id
    sequences, which is what lets batched, sequential and multiprocessing
    fleet runs produce *exactly* equal offers — ids included — instead of
    "equal modulo offer ids".
    """

    __slots__ = ("namespace", "_counter")

    def __init__(self, namespace: str = "", start: int = 0) -> None:
        self.namespace = namespace
        self._counter = itertools.count(start + 1)

    def next_id(self, prefix: str = "fo") -> str:
        n = next(self._counter)
        if self.namespace:
            return f"{prefix}-{self.namespace}-{n}"
        return f"{prefix}-{n}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OfferIdFactory(namespace={self.namespace!r})"


#: The process-global default factory: unique-per-process ids, the historical
#: behaviour of loose ``FlexOffer`` construction outside any id scope.
_GLOBAL_FACTORY = OfferIdFactory()

#: The currently installed factory (swapped by :func:`offer_id_scope`).
_CURRENT_FACTORY: OfferIdFactory = _GLOBAL_FACTORY


def next_offer_id(prefix: str = "fo") -> str:
    """Generate a flex-offer identifier from the active id factory.

    Outside any :func:`offer_id_scope` this draws from a process-global
    counter (unique per process, different between runs); inside a scope it
    draws from the scope's deterministic factory.
    """
    return _CURRENT_FACTORY.next_id(prefix)


@contextmanager
def offer_id_scope(namespace: str = "", start: int = 0) -> Iterator[OfferIdFactory]:
    """Install a fresh deterministic id factory for the duration of the block.

    Every offer built inside the block gets ids ``{prefix}-{namespace}-{n}``
    with ``n`` restarting at ``start + 1``, regardless of process history —
    so any two runs that enter the same scopes in the same order mint
    identical ids.  A run resumed after ``start`` ids continues the
    sequence of the run it resumes.  Scopes nest; the previous factory is
    restored on exit.
    """
    global _CURRENT_FACTORY
    previous = _CURRENT_FACTORY
    factory = OfferIdFactory(namespace, start)
    _CURRENT_FACTORY = factory
    try:
        yield factory
    finally:
        _CURRENT_FACTORY = previous


@dataclass(frozen=True, slots=True)
class ProfileSlice:
    """One slice of a flex-offer profile.

    Parameters
    ----------
    energy_min:
        Minimum required energy over the slice (kWh) — the paper's solid area.
    energy_max:
        Maximum usable energy over the slice (kWh) — the paper's dotted area.
    duration:
        Slice width in flex-offer resolution intervals (>= 1).
    """

    energy_min: float
    energy_max: float
    duration: int = 1

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ValidationError(f"slice duration must be >= 1, got {self.duration}")
        if self.energy_min > self.energy_max + 1e-12:
            raise ValidationError(
                f"slice energy_min {self.energy_min} exceeds energy_max {self.energy_max}"
            )

    @property
    def energy_range(self) -> float:
        """Width of the slice's energy flexibility (kWh)."""
        return self.energy_max - self.energy_min

    @property
    def midpoint(self) -> float:
        """Average of the min and max energies (kWh)."""
        return 0.5 * (self.energy_min + self.energy_max)

    def scaled(self, factor: float) -> "ProfileSlice":
        """Return a slice with both bounds multiplied by ``factor`` (>= 0)."""
        if factor < 0:
            raise ValidationError("scale factor must be >= 0")
        return ProfileSlice(self.energy_min * factor, self.energy_max * factor, self.duration)


def uniform_profile(total_min: float, total_max: float, slices: int) -> tuple[ProfileSlice, ...]:
    """Split total energy bounds evenly across ``slices`` unit slices."""
    if slices < 1:
        raise ValidationError(f"profile needs >= 1 slice, got {slices}")
    return tuple(
        ProfileSlice(total_min / slices, total_max / slices) for _ in range(slices)
    )


@dataclass(frozen=True, slots=True)
class FlexOffer:
    """A flexibility offer: an energy profile with start-time flexibility.

    Attributes follow the paper's Figure 1 and §3.1 parameter list: creation
    time, acceptance (deadline) time, assignment (deadline) time, earliest and
    latest start time, and the per-slice energy profile.

    The *latest end time* shown in Figure 1 is derived:
    ``latest_start + profile duration``.
    """

    earliest_start: datetime
    latest_start: datetime
    slices: tuple[ProfileSlice, ...]
    resolution: timedelta = FIFTEEN_MINUTES
    offer_id: str = field(default_factory=next_offer_id)
    consumer_id: str = ""
    appliance: str = ""
    source: str = ""
    creation_time: datetime | None = None
    acceptance_deadline: datetime | None = None
    assignment_deadline: datetime | None = None
    total_energy_min: float | None = None
    total_energy_max: float | None = None

    def __post_init__(self) -> None:
        if not self.slices:
            raise ValidationError("flex-offer must have at least one profile slice")
        if self.latest_start < self.earliest_start:
            raise ValidationError(
                f"latest_start {self.latest_start} precedes earliest_start "
                f"{self.earliest_start}"
            )
        if self.resolution <= timedelta(0):
            raise ValidationError(f"resolution must be positive, got {self.resolution}")
        tmin, tmax = self.effective_total_bounds()
        if tmin > tmax + 1e-9:
            raise ValidationError(
                f"infeasible total energy bounds: min {tmin} > max {tmax}"
            )

    # ------------------------------------------------------------------ #
    # Derived attributes
    # ------------------------------------------------------------------ #

    @property
    def profile_intervals(self) -> int:
        """Total profile width in resolution intervals."""
        return sum(s.duration for s in self.slices)

    @property
    def duration(self) -> timedelta:
        """Wall-clock width of the profile."""
        return self.resolution * self.profile_intervals

    @property
    def latest_end(self) -> datetime:
        """Figure 1's 'latest end time': latest_start + profile duration."""
        return self.latest_start + self.duration

    @property
    def time_flexibility(self) -> timedelta:
        """How far the profile can be shifted: latest_start − earliest_start."""
        return self.latest_start - self.earliest_start

    @property
    def time_flexibility_intervals(self) -> int:
        """Time flexibility in whole resolution intervals (floor)."""
        return int(self.time_flexibility // self.resolution)

    @property
    def profile_energy_min(self) -> float:
        """Sum of per-slice minimum energies (kWh)."""
        return sum(s.energy_min for s in self.slices)

    @property
    def profile_energy_max(self) -> float:
        """Sum of per-slice maximum energies (kWh)."""
        return sum(s.energy_max for s in self.slices)

    @property
    def energy_flexibility(self) -> float:
        """Total energy slack between effective total bounds (kWh)."""
        tmin, tmax = self.effective_total_bounds()
        return tmax - tmin

    def effective_total_bounds(self) -> tuple[float, float]:
        """Total-energy bounds combining per-slice sums with explicit totals.

        The explicit ``total_energy_min``/``max`` (when provided) tighten the
        bounds implied by the profile slices.
        """
        tmin = self.profile_energy_min
        tmax = self.profile_energy_max
        if self.total_energy_min is not None:
            tmin = max(tmin, self.total_energy_min)
        if self.total_energy_max is not None:
            tmax = min(tmax, self.total_energy_max)
        return tmin, tmax

    @property
    def is_production(self) -> bool:
        """True when the offer represents production (net-negative energy)."""
        return self.profile_energy_max <= 0 and self.profile_energy_min < 0

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #

    def shifted(self, delta: timedelta) -> "FlexOffer":
        """Translate all time attributes by ``delta`` (profile unchanged)."""
        return replace(
            self,
            earliest_start=self.earliest_start + delta,
            latest_start=self.latest_start + delta,
            creation_time=None if self.creation_time is None else self.creation_time + delta,
            acceptance_deadline=(
                None if self.acceptance_deadline is None else self.acceptance_deadline + delta
            ),
            assignment_deadline=(
                None if self.assignment_deadline is None else self.assignment_deadline + delta
            ),
        )

    def scaled(self, factor: float) -> "FlexOffer":
        """Scale every slice's energy bounds by ``factor`` (>= 0)."""
        return replace(
            self,
            slices=tuple(s.scaled(factor) for s in self.slices),
            total_energy_min=(
                None if self.total_energy_min is None else self.total_energy_min * factor
            ),
            total_energy_max=(
                None if self.total_energy_max is None else self.total_energy_max * factor
            ),
        )

    def with_time_flexibility(self, flexibility: timedelta) -> "FlexOffer":
        """Return a copy whose latest_start = earliest_start + ``flexibility``."""
        if flexibility < timedelta(0):
            raise ValidationError("time flexibility must be >= 0")
        return replace(self, latest_start=self.earliest_start + flexibility)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def feasible_starts(self) -> list[datetime]:
        """All grid-aligned start times in ``[earliest_start, latest_start]``.

        The grid is anchored at ``earliest_start`` with the offer's own
        resolution; MIRABEL schedules starts on the metering grid.
        """
        starts = []
        t = self.earliest_start
        while t <= self.latest_start:
            starts.append(t)
            t += self.resolution
        return starts

    def slice_expansion(self) -> list[tuple[float, float]]:
        """Per-interval (min, max) energy bounds, expanding multi-interval slices.

        A slice of duration ``d`` is split into ``d`` intervals, each with an
        even share of the slice's bounds.  Length equals
        :attr:`profile_intervals`.
        """
        bounds: list[tuple[float, float]] = []
        for s in self.slices:
            share_min = s.energy_min / s.duration
            share_max = s.energy_max / s.duration
            bounds.extend((share_min, share_max) for _ in range(s.duration))
        return bounds

    def slice_expansion_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`slice_expansion` as a pair of numpy vectors ``(mins, maxs)``.

        The array form feeds the vectorized aggregation paths, which sum
        many expanded profiles without Python-level per-interval loops.
        """
        durations = np.array([s.duration for s in self.slices])
        mins = np.repeat(
            np.array([s.energy_min for s in self.slices]) / durations, durations
        )
        maxs = np.repeat(
            np.array([s.energy_max for s in self.slices]) / durations, durations
        )
        return mins, maxs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tmin, tmax = self.effective_total_bounds()
        return (
            f"FlexOffer({self.offer_id}, est={self.earliest_start.isoformat()}, "
            f"lst={self.latest_start.isoformat()}, slices={len(self.slices)}, "
            f"energy=[{tmin:.3f}, {tmax:.3f}] kWh)"
        )


def figure1_flexoffer(day: datetime) -> FlexOffer:
    """Construct the paper's Figure 1 flex-offer for the evening of ``day``.

    An electric vehicle: start between 22:00 and 05:00 (next day), charging
    takes 2 hours (eight 15-minute slices), and requires 50 kWh in total.
    The latest end time is then 07:00, exactly as printed in the figure.
    """
    est = day.replace(hour=22, minute=0, second=0, microsecond=0)
    lst = est + timedelta(hours=7)  # 5 AM next day
    slices = uniform_profile(total_min=50.0, total_max=50.0, slices=8)
    return FlexOffer(
        earliest_start=est,
        latest_start=lst,
        slices=slices,
        consumer_id="ev-owner",
        appliance="electric-vehicle",
        source="figure1",
    )
