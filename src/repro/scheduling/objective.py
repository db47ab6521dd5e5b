"""Scheduling objectives: how well scheduled demand tracks a target.

MIRABEL positions flexible demand under surplus RES production (paper [5],
§6).  The canonical objective is the squared imbalance between the scheduled
flexible demand and the available surplus.
"""

from __future__ import annotations

import numpy as np

from repro.timeseries.series import TimeSeries


def squared_imbalance(demand: TimeSeries, target: TimeSeries) -> float:
    """Sum of squared per-interval deviations between demand and target."""
    demand.axis.require_aligned(target.axis)
    diff = demand.values - target.values
    return float(np.dot(diff, diff))
