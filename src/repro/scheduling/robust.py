"""Robust scheduling over forecast uncertainty: scenario fans and risk.

The greedy scheduler trusts its target; this module makes that trust
optional.  A :class:`RobustConfig` on
:class:`~repro.scheduling.greedy.ScheduleConfig` turns the single point
target into a *scenario fan* — one target series per quantile level,
synthesised deterministically from the point target
(:func:`synthetic_fan`) unless the caller of
:func:`~repro.scheduling.greedy.greedy_schedule` passes its own — and
scores every candidate placement against all scenarios at once,
aggregated by a risk measure:

* ``risk="expected"`` — the probability-weighted mean gain over the fan,
  with weights read off the quantile levels (:func:`quantile_weights`);
* ``risk="cvar"`` — the mean gain over the worst ``alpha`` tail of
  scenarios (Conditional Value at Risk), i.e. plan for the bad draws.

Placement *energies* stay the point-target water-fill, so robust mode
only changes *which start* wins — the wire format, disaggregation path
and schedule validation are untouched.  Both greedy engines share the
scalar risk arithmetic here (:func:`risk_of` / :func:`risk_profile`), so
the vectorized robust path is gated bitwise on decisions against the
reference loop exactly like the point-target engines.

After the fact, :func:`evaluate_realized` scores any schedule against
the series that actually materialised — the realized-imbalance oracle
the ``replan-no-worse-realized`` conformance invariant is built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.errors import SchedulingError
from repro.timeseries.series import TimeSeries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scheduling.greedy import ScheduleResult

#: Supported risk measures over the scenario fan.
RISK_MEASURES = ("expected", "cvar")

#: Default quantile levels for robust scheduling fans.
DEFAULT_ROBUST_QUANTILES = (0.1, 0.5, 0.9)


@dataclass(frozen=True, slots=True)
class RobustConfig:
    """How robust mode builds and aggregates its scenario fan.

    ``quantiles`` are the fan's levels (strictly increasing, in ``(0,1)``);
    ``risk`` picks the aggregation (:data:`RISK_MEASURES`); ``alpha`` is
    the CVaR tail mass (ignored for ``"expected"``); ``sigma`` is the
    finite relative spread used when the fan is synthesised from a point
    target rather than supplied (:func:`synthetic_fan`).
    """

    quantiles: tuple[float, ...] = DEFAULT_ROBUST_QUANTILES
    risk: str = "expected"
    alpha: float = 0.3
    sigma: float = 0.25

    def __post_init__(self) -> None:
        if not isinstance(self.quantiles, (tuple, list)) or not all(
            _is_number(level) for level in self.quantiles
        ):
            raise SchedulingError(
                f"quantiles must be a list of numbers, got {self.quantiles!r}"
            )
        object.__setattr__(
            self, "quantiles", tuple(float(q) for q in self.quantiles)
        )
        if not self.quantiles:
            raise SchedulingError("quantiles must be non-empty")
        for level in self.quantiles:
            if not 0.0 < level < 1.0:
                raise SchedulingError(f"quantiles must lie in (0, 1), got {level}")
        if any(b <= a for a, b in zip(self.quantiles, self.quantiles[1:])):
            raise SchedulingError(
                f"quantiles must be strictly increasing, got {self.quantiles}"
            )
        if self.risk not in RISK_MEASURES:
            raise SchedulingError(
                f"risk must be one of {', '.join(RISK_MEASURES)}, got {self.risk!r}"
            )
        if not _is_number(self.alpha) or not 0.0 < self.alpha <= 1.0:
            raise SchedulingError(f"alpha must be in (0, 1], got {self.alpha!r}")
        if not _is_number(self.sigma) or not 0.0 <= self.sigma < math.inf:
            raise SchedulingError(
                f"sigma must be a finite number >= 0, got {self.sigma!r}"
            )


def _is_number(value: Any) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def quantile_weights(levels: Sequence[float]) -> np.ndarray:
    """Probability mass per quantile level, by midpoint partition of [0, 1].

    Each level represents the slab of probability between the midpoints to
    its neighbours (outer slabs run to 0 and 1), so the weights sum to 1
    exactly and a symmetric level set weights the median heaviest — e.g.
    ``(0.1, 0.5, 0.9) -> (0.3, 0.4, 0.3)``.
    """
    levels_arr = np.asarray(levels, dtype=np.float64)
    mids = (levels_arr[:-1] + levels_arr[1:]) / 2.0
    bounds = np.concatenate(([0.0], mids, [1.0]))
    return np.diff(bounds)


def synthetic_fan(target: TimeSeries, robust: RobustConfig) -> tuple[TimeSeries, ...]:
    """A deterministic multiplicative fan around a point target.

    Level ``q`` scales the target by ``1 + sigma * (2q - 1)`` — the 0.5
    level reproduces the point target exactly, the fan is monotone in
    level wherever the target is non-negative, and no RNG is involved, so
    robust runs without an explicit forecast stay bitwise reproducible.
    """
    return tuple(
        (target * (1.0 + robust.sigma * (2.0 * level - 1.0))).with_name(
            f"{target.name}@q{level:g}"
        )
        for level in robust.quantiles
    )


def resolve_fan(
    target: TimeSeries,
    robust: RobustConfig,
    scenarios: Sequence[TimeSeries] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(scenario matrix, weights)`` robust placement scores against.

    ``scenarios`` may be an explicit sequence of per-level target series
    (one series per ``robust.quantiles`` entry, all on the target's axis);
    when absent, :func:`synthetic_fan` supplies them.  Returns the
    stacked ``(levels, axis)`` float matrix plus the matching
    :func:`quantile_weights`.
    """
    if scenarios is None:
        fan = synthetic_fan(target, robust)
    else:
        fan = tuple(scenarios)
        if len(fan) != len(robust.quantiles):
            raise SchedulingError(
                f"robust mode expects one scenario per quantile level: "
                f"{len(robust.quantiles)} level(s), {len(fan)} scenario(s)"
            )
        for scenario in fan:
            if not isinstance(scenario, TimeSeries):
                raise SchedulingError(
                    f"scenarios must be TimeSeries, got {type(scenario).__name__}"
                )
            target.axis.require_aligned(scenario.axis)
    matrix = np.stack([scenario.values for scenario in fan])
    return matrix, quantile_weights(robust.quantiles)


def cvar_count(alpha: float, scenarios: int) -> int:
    """How many worst scenarios the ``alpha`` tail covers (at least one)."""
    return max(1, math.ceil(alpha * scenarios))


def risk_of(gains: np.ndarray, weights: np.ndarray, risk: str, alpha: float) -> float:
    """Aggregate one candidate's per-scenario gains into a scalar score.

    The single home of the robust scoring arithmetic — the reference
    engine calls it per candidate and the vectorized engine's near-tie
    rescoring calls it too, which is what keeps their decisions bitwise
    identical.
    """
    if risk == "expected":
        return float(np.dot(weights, gains))
    worst = np.sort(gains)[: cvar_count(alpha, gains.size)]
    return float(worst.mean())


def risk_profile(
    gains: np.ndarray, weights: np.ndarray, risk: str, alpha: float
) -> np.ndarray:
    """Batched :func:`risk_of` over a ``(scenarios, candidates)`` matrix."""
    if risk == "expected":
        return weights @ gains
    worst = np.sort(gains, axis=0)[: cvar_count(alpha, gains.shape[0])]
    return worst.mean(axis=0)


# --------------------------------------------------------------------- #
# Realized-vs-scheduled evaluation
# --------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class RealizedEvaluation:
    """A schedule scored against the series that actually materialised.

    ``planned_cost`` is the squared imbalance against the target the
    schedule was built for; ``realized_cost`` is the same demand held
    against the realized series; ``realized_baseline_cost`` is the cost of
    having scheduled nothing at all, and ``realized_improvement`` the
    relative reduction the schedule still achieved ex post.
    """

    planned_cost: float
    realized_cost: float
    realized_baseline_cost: float
    unplaced: int = field(default=0)

    @property
    def realized_improvement(self) -> float:
        """Relative realized cost reduction vs scheduling nothing (0..1)."""
        base = self.realized_baseline_cost
        return (base - self.realized_cost) / base if base > 0 else 0.0

    @property
    def forecast_regret(self) -> float:
        """How much worse reality scored the plan than the forecast did."""
        return self.realized_cost - self.planned_cost

    def summary(self) -> dict[str, float]:
        """Scalar overview (report/benchmark rows)."""
        return {
            "realized_cost": self.realized_cost,
            "realized_baseline_cost": self.realized_baseline_cost,
            "realized_improvement": self.realized_improvement,
            "planned_cost": self.planned_cost,
            "forecast_regret": self.forecast_regret,
        }


def evaluate_realized(
    schedule: "ScheduleResult | Any", realized: TimeSeries
) -> RealizedEvaluation:
    """Score a schedule's demand against the realized target series.

    Accepts anything with the :class:`ScheduleResult` surface (``demand``,
    ``target``, ``cost``, ``unplaced``), including a zoned result's
    per-zone entries.  The realized series must live on the schedule's
    axis — comparing across axes would silently misalign intervals.
    """
    demand = schedule.demand
    if not isinstance(realized, TimeSeries):
        raise SchedulingError(
            f"realized must be a TimeSeries, got {type(realized).__name__}"
        )
    demand.axis.require_aligned(realized.axis)
    diff = demand.values - realized.values
    return RealizedEvaluation(
        planned_cost=float(schedule.cost),
        realized_cost=float(np.dot(diff, diff)),
        realized_baseline_cost=float(np.dot(realized.values, realized.values)),
        unplaced=len(schedule.unplaced),
    )


__all__ = [
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
]
