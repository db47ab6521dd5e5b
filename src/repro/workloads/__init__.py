"""Canonical workloads: the Figure 5 day and reusable simulated scenarios.

The paper's worked example (``paper_day``, with its pinned §5 constants)
plus the named fleet scenarios the conformance matrix, benchmarks and
tests share (``scenarios``): seasonal, DST-transition, gap-ridden,
EV-heavy, heat-pump, PV-prosumer, weekend-skewed, large-fleet,
tariff-switch and zoned-market fleets.

Subsystem contract:

* **Determinism + caching** — every builder fixes its seeds and is
  ``lru_cache``-backed; all consumers in a process share one simulation,
  and cached traces are frozen (writes raise) so sharing is safe.
* **Stability** — scenario content is part of the conformance golden
  pins; changing a builder's seeds or shape is a deliberate, reviewed
  act (see TESTING.md).
"""

from repro.workloads.paper_day import (
    FIGURE5_DAY_TOTAL,
    FIGURE5_FILTER_THRESHOLD,
    FIGURE5_FLEX_SHARE,
    FIGURE5_PEAK_SIZES,
    FIGURE5_PROBABILITIES,
    FIGURE5_SURVIVORS,
    Figure5Day,
    figure5_day,
)

__all__ = [
    "FIGURE5_DAY_TOTAL",
    "FIGURE5_FILTER_THRESHOLD",
    "FIGURE5_FLEX_SHARE",
    "FIGURE5_PEAK_SIZES",
    "FIGURE5_PROBABILITIES",
    "FIGURE5_SURVIVORS",
    "Figure5Day",
    "figure5_day",
]

from repro.workloads.scenarios import (
    DST_WEEK_START,
    SCENARIO_START,
    SUMMER_START,
    WINTER_START,
    TariffFleet,
    catalogue,
    dst_transition_fleet,
    ev_heavy_fleet,
    gap_ridden_fleet,
    heat_pump_fleet,
    large_fleet,
    metering_axis,
    nilm_household,
    pv_prosumer_fleet,
    small_fleet,
    summer_fleet,
    tariff_study,
    tariff_switch_fleet,
    weekend_skewed_fleet,
    weekend_skewed_household,
    winter_fleet,
)

__all__ += [
    "DST_WEEK_START",
    "SCENARIO_START",
    "SUMMER_START",
    "WINTER_START",
    "TariffFleet",
    "catalogue",
    "dst_transition_fleet",
    "ev_heavy_fleet",
    "gap_ridden_fleet",
    "heat_pump_fleet",
    "large_fleet",
    "metering_axis",
    "nilm_household",
    "pv_prosumer_fleet",
    "small_fleet",
    "summer_fleet",
    "tariff_study",
    "tariff_switch_fleet",
    "weekend_skewed_fleet",
    "weekend_skewed_household",
    "winter_fleet",
]
