"""Time-series (de)serialisation: CSV and JSON meter-data formats.

Real deployments feed extraction from metering databases; this module
provides the boundary: a CSV format (``timestamp,value`` with ISO-8601
timestamps) and a compact JSON encoding (anchor + resolution + values).
Both round-trip exactly and validate regularity on load.  The JSON
encodings are :mod:`repro.wire` formats: a series on its own, and a
:class:`Curve` — a series inside a format that stores the shared axis once.
"""

from __future__ import annotations

import csv
from datetime import datetime, timedelta
from pathlib import Path
from typing import Any, NamedTuple

from repro.errors import DataError
from repro.timeseries.axis import TimeAxis
from repro.timeseries.series import TimeSeries
from repro.wire import Key, decode, encode, wire_format


def _values(series: TimeSeries) -> list[float]:
    return series.values.tolist()


class Curve(NamedTuple):
    """A series read without its axis: the enclosing format stores the axis
    once (a schedule result's target)."""

    name: str
    values: tuple[float, ...]

    def on(self, axis: TimeAxis) -> TimeSeries:
        return TimeSeries(axis, self.values, self.name)


wire_format(
    "curve",
    keys=(Key("name", str, default=""), Key("values", tuple[float, ...], _values)),
    build=Curve,
)(Curve)

wire_format(
    "series",
    keys=(
        Key("start", datetime, lambda series: series.axis.start),
        Key("resolution_seconds", timedelta, lambda series: series.axis.resolution),
        Key("name", str, default=""),
        Key("values", tuple[float, ...], _values),
    ),
    build=lambda start, resolution_seconds, name, values: TimeSeries(
        TimeAxis(start, resolution_seconds, len(values)), values, name
    ),
)(TimeSeries)


def series_to_dict(series: TimeSeries) -> dict[str, Any]:
    """Compact JSON-compatible encoding (anchor + resolution + values)."""
    return encode(series)


def series_from_dict(data: dict[str, Any]) -> TimeSeries:
    """Decode a series from its dict encoding."""
    return decode(TimeSeries, data)


def save_series_csv(series: TimeSeries, path: str | Path) -> None:
    """Write ``timestamp,value`` rows (ISO-8601, one per interval)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "value"])
        for when, value in series:
            writer.writerow([when.isoformat(), repr(value)])


def load_series_csv(path: str | Path, name: str = "") -> TimeSeries:
    """Read a ``timestamp,value`` CSV written by :func:`save_series_csv`.

    Validates that timestamps form a regular grid; raises
    :class:`DataError` on gaps, duplicates or irregular spacing.
    """
    timestamps: list[datetime] = []
    values: list[float] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["timestamp", "value"]:
            raise DataError(f"{path}: expected header 'timestamp,value'")
        for line_no, row in enumerate(reader, start=2):
            if len(row) < 2:
                raise DataError(f"{path}:{line_no}: short row")
            try:
                timestamps.append(datetime.fromisoformat(row[0]))
                values.append(float(row[1]))
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: {exc}") from exc
    if len(timestamps) < 2:
        raise DataError(f"{path}: need at least two rows to infer a resolution")
    resolution = timestamps[1] - timestamps[0]
    if resolution <= timedelta(0):
        raise DataError(f"{path}: non-increasing timestamps")
    for i, (a, b) in enumerate(zip(timestamps, timestamps[1:]), start=2):
        if b - a != resolution:
            raise DataError(
                f"{path}: irregular spacing at row {i + 1}: {b - a} != {resolution}"
            )
    axis = TimeAxis(timestamps[0], resolution, len(values))
    return TimeSeries(axis, values, name)
