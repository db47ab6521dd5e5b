"""Flex-offer scheduling against market targets (MIRABEL substrate, [5]).

The market-facing half of the loop: aggregated flex-offers are placed
against target series (RES surplus, zone demand) by a greedy water-fill
search plus an optional stochastic hill climber, single-market
(:mod:`repro.scheduling.greedy`) or sharded by grid zone
(:mod:`repro.scheduling.zones`).

Subsystem contract:

* **Determinism** — every scheduler is a pure function of (offers, target,
  config, seed); repeated runs, worker fan-outs (``schedule_zones
  (workers=N)``) and process boundaries produce identical placements.
* **Engine equivalence** — ``ScheduleConfig(engine=...)`` selects an
  execution plan, never a behaviour: the batched ``"vectorized"`` engine
  makes placements identical to the ``"reference"`` per-start loop (cost
  within ``rtol=1e-9``), asserted by ``benchmarks/bench_schedule.py``,
  ``benchmarks/bench_zones.py`` and the conformance matrix.
* **Performance baselines** — the reference engines are kept runnable;
  ``BENCH_schedule.json`` / ``BENCH_zones.json`` /
  ``BENCH_uncertainty.json`` pin the measured speedups, overheads and
  equivalence booleans (refresh via ``repro bench``).
* **Uncertainty** — ``ScheduleConfig(robust=RobustConfig(...))`` scores
  every candidate placement against a quantile scenario fan
  (:mod:`repro.scheduling.robust`) under an expected or CVaR risk
  measure; energies stay the point-target water-fill, so robust mode
  changes *which start wins*, never the feasibility story, and the
  reference/vectorized bitwise pair extends to the robust paths.
"""

from repro.scheduling.bench import (
    SCHEDULE_FIDELITY_RTOL,
    build_schedule_workload,
    build_zoned_workload,
    run_schedule_benchmark,
    run_uncertainty_benchmark,
    run_zones_benchmark,
    schedule_table_rows,
    uncertainty_table_rows,
    zones_table_rows,
)
from repro.scheduling.robust import (
    DEFAULT_ROBUST_QUANTILES,
    RISK_MEASURES,
    RealizedEvaluation,
    RobustConfig,
    cvar_count,
    evaluate_realized,
    quantile_weights,
    resolve_fan,
    risk_of,
    risk_profile,
    synthetic_fan,
)
from repro.scheduling.greedy import (
    ScheduleConfig,
    ScheduleResult,
    greedy_schedule,
    naive_schedule,
)
from repro.scheduling.objective import (
    absolute_imbalance,
    overshoot,
    squared_imbalance,
    unmet_target,
)
from repro.scheduling.stochastic import improve_schedule
from repro.scheduling.zones import (
    MarketZone,
    ZonedScheduleResult,
    ZonedTarget,
    assign_zone,
    assign_zones,
    hash_shard,
    make_market_zones,
    routing_key,
    schedule_zones,
    zone_name,
)

__all__ = [
    "SCHEDULE_FIDELITY_RTOL",
    "build_schedule_workload",
    "build_zoned_workload",
    "run_schedule_benchmark",
    "run_uncertainty_benchmark",
    "run_zones_benchmark",
    "schedule_table_rows",
    "uncertainty_table_rows",
    "zones_table_rows",
    "DEFAULT_ROBUST_QUANTILES",
    "RISK_MEASURES",
    "RealizedEvaluation",
    "RobustConfig",
    "cvar_count",
    "evaluate_realized",
    "quantile_weights",
    "resolve_fan",
    "risk_of",
    "risk_profile",
    "synthetic_fan",
    "ScheduleConfig",
    "ScheduleResult",
    "greedy_schedule",
    "naive_schedule",
    "absolute_imbalance",
    "overshoot",
    "squared_imbalance",
    "unmet_target",
    "improve_schedule",
    "MarketZone",
    "ZonedScheduleResult",
    "ZonedTarget",
    "assign_zone",
    "assign_zones",
    "hash_shard",
    "make_market_zones",
    "routing_key",
    "schedule_zones",
    "zone_name",
]
