"""Regular time axes: anchored, fixed-resolution time grids.

The whole library operates on *regular* time series (the paper's smart-meter
data is 15-minute metering; the simulator natively runs at 1 minute).  A
:class:`TimeAxis` is the shared coordinate system: an anchor timestamp, a fixed
resolution and a length.  Interval ``i`` covers the half-open range
``[start + i * resolution, start + (i + 1) * resolution)``.

Keeping the axis as an explicit object (rather than a list of timestamps)
makes alignment checks O(1) and keeps every series a plain numpy vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterator

from repro.errors import AxisMismatchError, ResolutionError
from repro.wire import wire_format

#: The paper's metering resolution: 15 minutes.
FIFTEEN_MINUTES = timedelta(minutes=15)

#: The simulator's native resolution: 1 minute.
ONE_MINUTE = timedelta(minutes=1)

ONE_HOUR = timedelta(hours=1)
ONE_DAY = timedelta(days=1)


@wire_format("axis", rename={"resolution": "resolution_seconds"})
@dataclass(frozen=True, slots=True)
class TimeAxis:
    """An anchored, fixed-resolution time grid.

    Parameters
    ----------
    start:
        Timestamp of the beginning of the first interval.
    resolution:
        Width of every interval; must be positive and divide one day evenly
        (so that day-based reasoning — "peaks within a 24-hour period" — is
        exact).
    length:
        Number of intervals on the axis; must be non-negative.
    """

    start: datetime
    resolution: timedelta
    length: int

    def __post_init__(self) -> None:
        if self.resolution <= timedelta(0):
            raise ResolutionError(f"resolution must be positive, got {self.resolution}")
        day_us = int(ONE_DAY.total_seconds() * 1_000_000)
        res_us = int(self.resolution.total_seconds() * 1_000_000)
        if day_us % res_us != 0:
            raise ResolutionError(
                f"resolution {self.resolution} must divide one day evenly"
            )
        if self.length < 0:
            raise ValueError(f"length must be >= 0, got {self.length}")

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    @property
    def end(self) -> datetime:
        """Timestamp just after the last interval (exclusive end)."""
        return self.start + self.resolution * self.length

    @property
    def intervals_per_day(self) -> int:
        """Number of intervals that make up 24 hours (96 at 15 min)."""
        return int(ONE_DAY.total_seconds() // self.resolution.total_seconds())

    @property
    def intervals_per_hour(self) -> float:
        """Number of intervals per hour (4.0 at 15 min)."""
        return ONE_HOUR.total_seconds() / self.resolution.total_seconds()

    @property
    def duration(self) -> timedelta:
        """Total time span covered by the axis."""
        return self.resolution * self.length

    @property
    def hours_per_interval(self) -> float:
        """Interval width in hours — the kW <-> kWh conversion factor."""
        return self.resolution.total_seconds() / 3600.0

    # ------------------------------------------------------------------ #
    # Index <-> time conversion
    # ------------------------------------------------------------------ #

    def time_at(self, index: int) -> datetime:
        """Return the start timestamp of interval ``index``.

        Negative indices address intervals from the end, matching numpy
        semantics.  Raises :class:`IndexError` when out of bounds.
        """
        if index < 0:
            index += self.length
        if not 0 <= index < self.length:
            raise IndexError(f"interval index {index} out of range [0, {self.length})")
        return self.start + self.resolution * index

    def index_of(self, when: datetime) -> int:
        """Return the index of the interval containing ``when``.

        Raises :class:`IndexError` if ``when`` falls outside the axis.
        """
        offset = when - self.start
        index = int(offset // self.resolution)
        if not 0 <= index < self.length:
            raise IndexError(f"{when} is outside the axis [{self.start}, {self.end})")
        return index

    def clamp_index_of(self, when: datetime) -> int:
        """Like :meth:`index_of` but clamps out-of-range times to the edges."""
        offset = when - self.start
        index = int(offset // self.resolution)
        return max(0, min(self.length - 1, index))

    def contains(self, when: datetime) -> bool:
        """True if ``when`` falls within ``[start, end)``."""
        return self.start <= when < self.end

    def times(self) -> Iterator[datetime]:
        """Iterate the start timestamp of every interval."""
        for i in range(self.length):
            yield self.start + self.resolution * i

    # ------------------------------------------------------------------ #
    # Structural operations
    # ------------------------------------------------------------------ #

    def sub_axis(self, first: int, length: int) -> "TimeAxis":
        """Return the axis covering ``length`` intervals from index ``first``."""
        if first < 0 or length < 0 or first + length > self.length:
            raise IndexError(
                f"sub-axis [{first}, {first + length}) out of range [0, {self.length})"
            )
        return TimeAxis(self.time_at(first) if length else self.start + self.resolution * first,
                        self.resolution, length)

    def day_slices(self) -> list[tuple[int, int]]:
        """Split the axis into per-day ``(first_index, length)`` windows.

        Days are aligned to the *axis anchor*, not to midnight, unless the
        anchor itself is midnight.  The final window may be shorter when the
        axis does not cover whole days.
        """
        per_day = self.intervals_per_day
        slices = []
        first = 0
        while first < self.length:
            slices.append((first, min(per_day, self.length - first)))
            first += per_day
        return slices

    def aligned_with(self, other: "TimeAxis") -> bool:
        """True when both axes share start, resolution and length."""
        return (
            self.start == other.start
            and self.resolution == other.resolution
            and self.length == other.length
        )

    def compatible_with(self, other: "TimeAxis") -> bool:
        """True when both axes share resolution and are phase-aligned.

        Two axes are *compatible* when a value at index ``i`` on one can be
        mapped onto the other by a pure integer shift.
        """
        if self.resolution != other.resolution:
            return False
        offset = other.start - self.start
        res_us = int(self.resolution.total_seconds() * 1_000_000)
        off_us = int(offset.total_seconds() * 1_000_000)
        return off_us % res_us == 0

    def require_aligned(self, other: "TimeAxis") -> None:
        """Raise :class:`AxisMismatchError` unless the axes are identical."""
        if not self.aligned_with(other):
            raise AxisMismatchError(
                f"axes differ: {self} vs {other}"
            )

    def shift(self, intervals: int) -> "TimeAxis":
        """Return the same-shaped axis moved by ``intervals`` grid steps."""
        return TimeAxis(self.start + self.resolution * intervals, self.resolution, self.length)

    def extended(self, extra_intervals: int) -> "TimeAxis":
        """Return the axis grown by ``extra_intervals`` at the end."""
        if extra_intervals < 0:
            raise ValueError("extra_intervals must be >= 0")
        return TimeAxis(self.start, self.resolution, self.length + extra_intervals)

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TimeAxis(start={self.start.isoformat()}, "
            f"resolution={self.resolution}, length={self.length})"
        )


def axis_for_days(start: datetime, days: int, resolution: timedelta = FIFTEEN_MINUTES) -> TimeAxis:
    """Convenience constructor: an axis covering ``days`` whole days."""
    per_day = int(ONE_DAY.total_seconds() // resolution.total_seconds())
    return TimeAxis(start, resolution, per_day * days)
