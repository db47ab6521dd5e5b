"""Synthetic smart-meter data with ground truth (the paper's missing data).

The simulator is the repository's substitute for the MIRABEL trial data the
paper used (see DESIGN.md §2): bottom-up appliance activations over a
realistic base load, a behavioural multi-tariff response model, and wind
production for the scheduling experiments.

Subsystem contract:

* **Determinism** — a fleet is a pure function of (households, start,
  days, seed): ``generate_fleet`` derives one independent child stream
  per household, so any subset simulates identically in any process.
* **Ground truth retained** — every trace keeps its activation log and
  renders the per-appliance series and true-flexible split from it on
  access; evaluation and the conformance invariants score against these,
  never against heuristics.
* **Native 1-minute grid** — simulation runs at 1-minute resolution (§4's
  granularity requirement) and downsamples to the 15-minute metering
  grid; fleet-scale runs share one (households × minutes) matrix.
"""

from repro.simulation.activations import (
    Activation,
    ApplianceSeries,
    draw_daily_activations,
    materialise,
    total_energy,
)
from repro.simulation.dataset import (
    SimulatedDataset,
    generate_fleet,
    random_household_config,
)
from repro.simulation.industrial import (
    FactoryConfig,
    factory_base_load,
    industrial_catalogue,
    simulate_factory,
)
from repro.simulation.household import (
    HouseholdConfig,
    HouseholdTrace,
    base_load_series,
    simulate_household,
)
from repro.simulation.res import WindFarm, simulate_wind_production
from repro.simulation.tariff import (
    ShiftRecord,
    TariffScheme,
    TariffStudy,
    night_tariff,
    shift_into_low_window,
    simulate_tariff_pair,
)
from repro.simulation.weather import WindModel

__all__ = [
    "Activation",
    "ApplianceSeries",
    "draw_daily_activations",
    "materialise",
    "total_energy",
    "SimulatedDataset",
    "generate_fleet",
    "random_household_config",
    "FactoryConfig",
    "factory_base_load",
    "industrial_catalogue",
    "simulate_factory",
    "HouseholdConfig",
    "HouseholdTrace",
    "base_load_series",
    "simulate_household",
    "WindFarm",
    "simulate_wind_production",
    "ShiftRecord",
    "TariffScheme",
    "TariffStudy",
    "night_tariff",
    "shift_into_low_window",
    "simulate_tariff_pair",
    "WindModel",
]
