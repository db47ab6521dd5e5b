"""Descriptive statistics for electricity time series.

Section 3.1 of the paper names the statistics one would use to judge extracted
flex-offers — "correlation, sparseness, autocorrelation" — and laments that
they cannot be evaluated against real flex-offers.  This module implements
those statistics (plus the standard load-shape indicators used in the energy
literature) so the evaluation the paper motivates can actually be run against
simulator ground truth.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError
from repro.timeseries.series import TimeSeries


def correlation(a: TimeSeries, b: TimeSeries) -> float:
    """Pearson correlation between two aligned series.

    Returns 0.0 when either series is constant (the undefined case), which is
    the conservative choice for realism scoring: a constant extraction carries
    no shape information about the consumption it came from.
    """
    a.axis.require_aligned(b.axis)
    if len(a) < 2:
        raise DataError("correlation needs at least two intervals")
    sa = a.values.std()
    sb = b.values.std()
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float(np.corrcoef(a.values, b.values)[0, 1])


def autocorrelation(series: TimeSeries, lag: int) -> float:
    """Autocorrelation of the series at an integer ``lag`` (in intervals).

    Uses the standard biased estimator (normalised by the full-series
    variance), which is what statistical packages report by default.
    """
    n = len(series)
    if not 0 <= lag < n:
        raise DataError(f"lag {lag} out of range [0, {n})")
    x = series.values - series.values.mean()
    denom = float(np.dot(x, x))
    if denom == 0.0:
        return 1.0 if lag == 0 else 0.0
    return float(np.dot(x[: n - lag], x[lag:]) / denom)


def sparseness(series: TimeSeries) -> float:
    """Hoyer sparseness in [0, 1]: 0 for a flat series, 1 for a single spike.

    Defined for non-negative vectors as
    ``(sqrt(n) - l1/l2) / (sqrt(n) - 1)``; this is the standard measure for
    "how concentrated is the energy" and matches the intuition behind the
    paper's use of the word: realistic flex-offers are sparse in time, random
    ones are spread out.
    """
    x = np.abs(series.values)
    n = x.shape[0]
    if n < 2:
        raise DataError("sparseness needs at least two intervals")
    l1 = float(x.sum())
    l2 = float(np.sqrt(np.dot(x, x)))
    if l2 == 0.0:
        return 0.0
    raw = (np.sqrt(n) - l1 / l2) / (np.sqrt(n) - 1.0)
    # Clamp float round-off (a perfectly flat vector can land at -1e-16).
    return float(np.clip(raw, 0.0, 1.0))


def zero_fraction(series: TimeSeries, threshold: float = 1e-9) -> float:
    """Fraction of intervals with (near-)zero value."""
    return float(np.mean(np.abs(series.values) <= threshold))


def peak_to_average_ratio(series: TimeSeries) -> float:
    """Max over mean — the classic load "peakiness" indicator."""
    mean = series.mean()
    if mean == 0.0:
        return 0.0
    return series.max() / mean


def load_factor(series: TimeSeries) -> float:
    """Mean over max, in [0, 1]; the utility-industry complement of PAR."""
    peak = series.max()
    if peak == 0.0:
        return 0.0
    return series.mean() / peak


def temporal_dispersion(series: TimeSeries) -> float:
    """Circular std-dev of energy mass over the day-phase, in intervals.

    Treats each day-phase as an angle and weights it by the energy at that
    phase, accumulated across days.  Low values mean energy concentrates at a
    particular time of day (e.g. an evening peak); high values mean energy is
    spread uniformly — the failure mode of the random generator the paper
    criticises.
    """
    per_day = series.axis.intervals_per_day
    phases = np.arange(len(series)) % per_day
    weights = np.abs(series.values)
    total = weights.sum()
    if total == 0.0:
        return 0.0
    angles = 2.0 * np.pi * phases / per_day
    c = float((weights * np.cos(angles)).sum() / total)
    s = float((weights * np.sin(angles)).sum() / total)
    r = np.hypot(c, s)
    if r >= 1.0:
        return 0.0
    # Circular standard deviation, mapped back from radians to intervals.
    circ_std = np.sqrt(-2.0 * np.log(r))
    return float(circ_std * per_day / (2.0 * np.pi))


def describe(series: TimeSeries) -> dict[str, float]:
    """One-call summary used in reports and benchmark output."""
    return {
        "total": series.total(),
        "mean": series.mean(),
        "min": series.min(),
        "max": series.max(),
        "std": float(series.values.std()),
        "peak_to_average": peak_to_average_ratio(series),
        "load_factor": load_factor(series),
        "sparseness": sparseness(series) if len(series) >= 2 else 0.0,
        "zero_fraction": zero_fraction(series),
    }
