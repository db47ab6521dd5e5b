"""Numpy-backed regular time series.

A :class:`TimeSeries` is a vector of float values on a :class:`TimeAxis`.
Values are unit-agnostic floats; by library convention consumption series hold
*energy per interval in kWh* (the paper's metering semantics), and the
``hours_per_interval`` factor on the axis converts to/from average power (kW).

The class is deliberately small and explicit: element-wise arithmetic against
aligned series or scalars, time-based slicing, day splitting, and resampling.
Anything fancier lives in :mod:`repro.timeseries.stats` and friends.
"""

from __future__ import annotations

from datetime import datetime, timedelta
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.errors import DataError
from repro.timeseries.axis import TimeAxis


class TimeSeries:
    """A regular time series: a :class:`TimeAxis` plus a float vector.

    Parameters
    ----------
    axis:
        The time grid the values live on.
    values:
        Anything convertible to a 1-D float array of length ``axis.length``.
    name:
        Optional label used in reprs and plots.
    """

    __slots__ = ("axis", "values", "name")

    def __init__(self, axis: TimeAxis, values: Iterable[float], name: str = "") -> None:
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise DataError(f"values must be 1-D, got shape {arr.shape}")
        if arr.shape[0] != axis.length:
            raise DataError(
                f"length mismatch: axis has {axis.length} intervals, "
                f"values has {arr.shape[0]}"
            )
        if np.isnan(arr).any():
            raise DataError("values contain NaN")
        self.axis = axis
        self.values = arr
        self.name = name

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def zeros(cls, axis: TimeAxis, name: str = "") -> "TimeSeries":
        """An all-zero series on ``axis``."""
        return cls(axis, np.zeros(axis.length), name)

    @classmethod
    def full(cls, axis: TimeAxis, value: float, name: str = "") -> "TimeSeries":
        """A constant series on ``axis``."""
        return cls(axis, np.full(axis.length, float(value)), name)

    @classmethod
    def from_function(
        cls, axis: TimeAxis, fn: Callable[[datetime], float], name: str = ""
    ) -> "TimeSeries":
        """Evaluate ``fn`` at every interval start timestamp."""
        return cls(axis, [fn(t) for t in axis.times()], name)

    def copy(self) -> "TimeSeries":
        """An independent copy (values are not shared)."""
        return TimeSeries(self.axis, self.values.copy(), self.name)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self.axis.length

    def __iter__(self) -> Iterator[tuple[datetime, float]]:
        for i, t in enumerate(self.axis.times()):
            yield t, float(self.values[i])

    def value_at(self, when: datetime) -> float:
        """Value of the interval containing ``when``."""
        return float(self.values[self.axis.index_of(when)])

    def total(self) -> float:
        """Sum of all values (total energy for a consumption series)."""
        return float(self.values.sum())

    def mean(self) -> float:
        """Arithmetic mean of the values."""
        return float(self.values.mean()) if len(self) else 0.0

    def max(self) -> float:
        """Largest value."""
        return float(self.values.max()) if len(self) else 0.0

    def min(self) -> float:
        """Smallest value."""
        return float(self.values.min()) if len(self) else 0.0

    def argmax(self) -> int:
        """Index of the largest value."""
        return int(np.argmax(self.values))

    def is_nonnegative(self, tolerance: float = 1e-9) -> bool:
        """True when no value is below ``-tolerance``."""
        return bool((self.values >= -tolerance).all())

    # ------------------------------------------------------------------ #
    # Arithmetic (aligned series or scalars)
    # ------------------------------------------------------------------ #

    def _coerce(self, other: "TimeSeries | float | int") -> np.ndarray:
        if isinstance(other, TimeSeries):
            self.axis.require_aligned(other.axis)
            return other.values
        return np.float64(other)

    def __add__(self, other: "TimeSeries | float | int") -> "TimeSeries":
        return TimeSeries(self.axis, self.values + self._coerce(other), self.name)

    def __radd__(self, other: "TimeSeries | float | int") -> "TimeSeries":
        # Supports sum([...]) which starts from 0.
        return self.__add__(other)

    def __sub__(self, other: "TimeSeries | float | int") -> "TimeSeries":
        return TimeSeries(self.axis, self.values - self._coerce(other), self.name)

    def __mul__(self, other: "TimeSeries | float | int") -> "TimeSeries":
        return TimeSeries(self.axis, self.values * self._coerce(other), self.name)

    def __rmul__(self, other: float | int) -> "TimeSeries":
        return self.__mul__(other)

    def __truediv__(self, other: "TimeSeries | float | int") -> "TimeSeries":
        return TimeSeries(self.axis, self.values / self._coerce(other), self.name)

    def __neg__(self) -> "TimeSeries":
        return TimeSeries(self.axis, -self.values, self.name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return self.axis.aligned_with(other.axis) and np.array_equal(
            self.values, other.values
        )

    def __hash__(self) -> int:  # TimeSeries is mutable through .values
        raise TypeError("TimeSeries is unhashable")

    def allclose(self, other: "TimeSeries", atol: float = 1e-9) -> bool:
        """Numerically-tolerant equality on aligned axes."""
        return self.axis.aligned_with(other.axis) and bool(
            np.allclose(self.values, other.values, atol=atol)
        )

    def clip(self, lower: float = 0.0, upper: float | None = None) -> "TimeSeries":
        """Element-wise clamp; by default clamps negatives to zero."""
        return TimeSeries(self.axis, np.clip(self.values, lower, upper), self.name)

    # ------------------------------------------------------------------ #
    # Slicing
    # ------------------------------------------------------------------ #

    def slice(self, first: int, length: int) -> "TimeSeries":
        """Sub-series of ``length`` intervals starting at index ``first``."""
        sub = self.axis.sub_axis(first, length)
        return TimeSeries(sub, self.values[first : first + length], self.name)

    def between(self, start: datetime, end: datetime) -> "TimeSeries":
        """Sub-series covering intervals whose start lies in ``[start, end)``."""
        if end <= start:
            raise ValueError(f"empty window: [{start}, {end})")
        i0 = self.axis.index_of(start)
        # end may coincide with the axis end, which index_of rejects.
        offset = end - self.axis.start
        i1 = int(offset // self.axis.resolution)
        i1 = min(i1, self.axis.length)
        return self.slice(i0, i1 - i0)

    def split_days(self) -> list["TimeSeries"]:
        """Split into per-day sub-series (last one may be partial)."""
        return [self.slice(first, length) for first, length in self.axis.day_slices()]

    def day(self, day_index: int) -> "TimeSeries":
        """The ``day_index``-th day of the series (0-based)."""
        slices = self.axis.day_slices()
        first, length = slices[day_index]
        return self.slice(first, length)

    def with_values(self, values: np.ndarray) -> "TimeSeries":
        """Same axis and name, different values."""
        return TimeSeries(self.axis, values, self.name)

    def with_name(self, name: str) -> "TimeSeries":
        """Same data, different label."""
        return TimeSeries(self.axis, self.values, name)

    # ------------------------------------------------------------------ #
    # Power/energy conversions
    # ------------------------------------------------------------------ #

    def energy_to_power(self) -> "TimeSeries":
        """Interpret values as kWh per interval; return average kW."""
        return TimeSeries(self.axis, self.values / self.axis.hours_per_interval, self.name)

    def power_to_energy(self) -> "TimeSeries":
        """Interpret values as average kW; return kWh per interval."""
        return TimeSeries(self.axis, self.values * self.axis.hours_per_interval, self.name)

    # ------------------------------------------------------------------ #
    # Profiles
    # ------------------------------------------------------------------ #

    def daily_profile(self, reducer: Callable[[np.ndarray], np.ndarray] | None = None) -> np.ndarray:
        """Collapse the series onto one synthetic day.

        Returns a vector of length ``intervals_per_day`` where entry ``k`` is
        the mean (or custom ``reducer`` applied across days, e.g.
        ``np.median``) of all values at day-phase ``k``.  Partial trailing
        days are excluded.
        """
        per_day = self.axis.intervals_per_day
        whole_days = self.axis.length // per_day
        if whole_days == 0:
            raise DataError("series shorter than one day; no daily profile")
        stacked = self.values[: whole_days * per_day].reshape(whole_days, per_day)
        if reducer is None:
            return stacked.mean(axis=0)
        return reducer(stacked)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"TimeSeries({label} {self.axis.length}x{self.axis.resolution} "
            f"from {self.axis.start.isoformat()}, total={self.total():.3f})"
        )


def stack(series: list[TimeSeries]) -> np.ndarray:
    """Stack aligned series into a 2-D array of shape ``(n_series, length)``."""
    if not series:
        raise DataError("cannot stack an empty list of series")
    first = series[0]
    for s in series[1:]:
        first.axis.require_aligned(s.axis)
    return np.vstack([s.values for s in series])
