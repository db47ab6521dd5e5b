"""Consumption/production forecasting (MIRABEL substrate, paper [6]).

Lean, dependency-free forecasters (persistence, drift, seasonal-naive,
autoregressive, Holt-Winters) with a rolling backtest harness — the
substrate MIRABEL's scheduling consumes, kept small on purpose.

Subsystem contract:

* **Determinism** — every forecaster is a pure function of its input
  window; the backtest is a pure fold over the series.
* **Uniform interface** — all forecasters share one signature and live in
  the :data:`FORECASTERS` table, so evaluation code never special-cases.

Point forecasts only: robust scheduling (:mod:`repro.scheduling.robust`)
scores a synthetic fan around its target, or a fan its caller passes in.
"""

from repro.forecasting.evaluate import BacktestReport, mae, mape, rmse, rolling_backtest
from repro.forecasting.models import (
    FORECASTERS,
    autoregressive,
    drift,
    holt_winters,
    persistence,
    seasonal_naive,
)

__all__ = [
    "BacktestReport",
    "mae",
    "mape",
    "rmse",
    "rolling_backtest",
    "FORECASTERS",
    "autoregressive",
    "drift",
    "holt_winters",
    "persistence",
    "seasonal_naive",
]
