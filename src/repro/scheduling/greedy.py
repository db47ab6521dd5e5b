"""Greedy flex-offer scheduling against a target series (paper [5]).

Tušar et al., "Using aggregation to improve the scheduling of flexible
energy offers" (BIOMA 2012) schedule aggregated flex-offers so flexible
demand soaks up surplus RES production.  This module implements the greedy
core: offers are placed one by one (least-flexible first, so constrained
offers grab their slots before flexible ones fill the gaps); each offer
tries every feasible grid start, its slice energies water-fill the remaining
target, and the start with the largest squared-imbalance reduction wins.

Two engines implement the same greedy semantics, mirroring the matching
layer's :class:`~repro.disaggregation.matching.MatchingConfig` pattern:

* ``"vectorized"`` (default) — the market-scale hot path.  Each offer's
  per-interval bounds are hoisted to arrays once, all feasible starts are
  evaluated in one ``sliding_window_view`` gather + water-fill + gain pass,
  and offers sharing a profile length share one window view over the
  residual (the view is a stride trick, so placements flow through it
  without rebuilding).
* ``"reference"`` — the original per-start Python loop, kept as the
  oracle the equivalence tests and the schedule benchmarks compare
  against.

``"incremental"`` and ``"auto"`` are accepted as aliases of
``"vectorized"`` (:data:`ENGINE_ALIASES`), so configurations and spec
files that name them keep their placements bit for bit.

Both engines are deterministic and resolve gain ties toward the earliest
feasible start; the vectorized engine may differ from the reference in
float round-off on the gain reductions and can therefore flip near-tie
placements, but both agree on every placement and on the final cost
within ``rtol=1e-9`` on realistic targets (asserted by
``benchmarks/bench_schedule.py`` and ``benchmarks/bench_zones.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import SchedulingError
from repro.flexoffer.model import FlexOffer
from repro.flexoffer.schedule import ScheduledFlexOffer, schedules_to_series
from repro.timeseries.axis import TimeAxis
from repro.timeseries.series import TimeSeries

#: Legacy engine names, still accepted so existing configs, spec files and
#: journals load, and the engine each one runs.
ENGINE_ALIASES = {"incremental": "vectorized", "auto": "vectorized"}

#: Every accepted ``engine`` name; after construction a
#: :class:`ScheduleConfig` holds ``"vectorized"`` or ``"reference"``.
_ENGINES = ("vectorized", "incremental", "reference", "auto")

_ORDERS = ("least-flexible-first", "largest-first", "as-given")


@dataclass(frozen=True, slots=True)
class ScheduleConfig:
    """Knobs of the greedy scheduler (and the pipeline's schedule stage).

    ``order`` is the placement order heuristic (the paper's default places
    the least flexible offers first).  ``engine`` selects the
    implementation: the vectorized market-scale engine or the original
    per-start reference (legacy names resolve through
    :data:`ENGINE_ALIASES`).  ``improve_iterations``/``improve_seed`` configure
    the optional stochastic hill-climbing pass the fleet pipeline runs
    after the greedy placement (0 disables it).  ``market`` (a
    :class:`repro.market.model.MarketConfig`) enables merit-order clearing
    before placement on zoned targets; it is ignored by the single-market
    greedy path.  ``robust`` (a
    :class:`repro.scheduling.robust.RobustConfig`) scores placements
    against a quantile scenario fan instead of the point target alone —
    energies stay the point water-fill, only the winning start can change.
    """

    order: str = "least-flexible-first"
    engine: str = "vectorized"  # "vectorized" | "reference"
    improve_iterations: int = 0
    improve_seed: int = 0
    market: object | None = None
    robust: object | None = None

    def __post_init__(self) -> None:
        if self.order not in _ORDERS:
            raise SchedulingError(f"unknown order {self.order!r}")
        if self.engine not in _ENGINES:
            raise SchedulingError(
                f"engine must be one of {_ENGINES}, got {self.engine!r}"
            )
        if self.engine in ENGINE_ALIASES:
            object.__setattr__(self, "engine", ENGINE_ALIASES[self.engine])
        if self.improve_iterations < 0:
            raise SchedulingError("improve_iterations must be >= 0")
        if self.market is not None:
            # Imported lazily: repro.market sits above the scheduling layer.
            from repro.market.model import MarketConfig

            if not isinstance(self.market, MarketConfig):
                raise SchedulingError(
                    f"market must be a MarketConfig or None, got {self.market!r}"
                )
        if self.robust is not None:
            from repro.scheduling.robust import RobustConfig

            if not isinstance(self.robust, RobustConfig):
                raise SchedulingError(
                    f"robust must be a RobustConfig or None, got {self.robust!r}"
                )


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of a scheduling run."""

    schedules: list[ScheduledFlexOffer]
    demand: TimeSeries
    target: TimeSeries
    unplaced: list[FlexOffer] = field(default_factory=list)

    @property
    def cost(self) -> float:
        """Final squared imbalance against the target."""
        diff = self.demand.values - self.target.values
        return float(np.dot(diff, diff))

    @property
    def baseline_cost(self) -> float:
        """Squared imbalance of scheduling nothing at all."""
        return float(np.dot(self.target.values, self.target.values))

    @property
    def improvement(self) -> float:
        """Relative cost reduction vs scheduling nothing (0..1)."""
        base = self.baseline_cost
        return (base - self.cost) / base if base > 0 else 0.0

    @property
    def scheduled_energy(self) -> float:
        """Total energy placed by the schedule (kWh)."""
        return float(sum(s.total_energy for s in self.schedules))

    def summary(self) -> dict[str, float]:
        """Scalar overview of the run (report/benchmark rows)."""
        return {
            "schedule_placed": float(len(self.schedules)),
            "schedule_unplaced": float(len(self.unplaced)),
            "schedule_cost": self.cost,
            "schedule_improvement": self.improvement,
            "schedule_energy_kwh": self.scheduled_energy,
        }


def _water_fill(remaining: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Per-interval energies tracking the remaining target within bounds."""
    return np.clip(remaining, lows, highs)


def _placement_gain(remaining: np.ndarray, energies: np.ndarray) -> float:
    """Reduction in squared imbalance from consuming ``energies`` here."""
    before = np.dot(remaining, remaining)
    diff = remaining - energies
    after = np.dot(diff, diff)
    return float(before - after)


def start_grid(
    offer: FlexOffer,
    axis: TimeAxis,
    require_fit: bool = True,
    earliest_allowed: datetime | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The offer's feasible-start grid as ``(steps, first_indices)`` arrays.

    Exactly :meth:`FlexOffer.feasible_starts` filtered to starts on the
    axis — computed arithmetically (integer microseconds) instead of a
    Python datetime loop, with identical floor semantics to
    :meth:`TimeAxis.index_of`.  ``steps[i]`` counts resolution steps from
    ``earliest_start`` (so the start datetime is ``earliest_start +
    steps[i] * resolution``); ``first_indices[i]`` is the axis index of the
    interval containing that start.  ``require_fit`` additionally drops
    starts whose profile would overrun the axis end.  ``earliest_allowed``
    further drops starts before that instant — the rolling-horizon
    session's commit boundary, where the past is no longer schedulable.
    """
    one_us = timedelta(microseconds=1)
    res_us = offer.resolution // one_us
    axis_us = axis.resolution // one_us
    off0_us = (offer.earliest_start - axis.start) // one_us
    count = (offer.latest_start - offer.earliest_start) // offer.resolution + 1
    steps = np.arange(count, dtype=np.int64)
    off_us = off0_us + steps * res_us
    total_us = axis_us * axis.length
    first_indices = off_us // axis_us
    valid = (off_us >= 0) & (off_us < total_us)
    if earliest_allowed is not None:
        valid &= off_us >= (earliest_allowed - axis.start) // one_us
    if require_fit:
        n = offer.profile_intervals
        valid &= first_indices + n <= axis.length
    return steps[valid], first_indices[valid].astype(np.intp)


@dataclass(frozen=True)
class _PlacementPlan:
    """One offer's placement search space, hoisted to arrays once.

    ``steps``/``start_indices`` hold every feasible start that lies on the
    axis with room for the full profile (see :func:`start_grid`);
    ``lows``/``highs`` are the per-interval water-fill bounds
    (:meth:`FlexOffer.slice_expansion` as vectors).  Building the plan is
    the only per-offer Python-level work the vectorized engine performs.
    """

    offer: FlexOffer
    n: int
    lows: np.ndarray
    highs: np.ndarray
    steps: np.ndarray
    start_indices: np.ndarray


def _build_plan(
    offer: FlexOffer,
    axis: TimeAxis,
    earliest_allowed: datetime | None = None,
) -> _PlacementPlan:
    lows, highs = offer.slice_expansion_arrays()
    steps, indices = start_grid(
        offer, axis, require_fit=True, earliest_allowed=earliest_allowed
    )
    return _PlacementPlan(
        offer=offer,
        n=lows.size,
        lows=lows,
        highs=highs,
        steps=steps,
        start_indices=indices,
    )


def _pick_best(
    gains: np.ndarray, windows_of, lows: np.ndarray, highs: np.ndarray
) -> int:
    """The row of ``gains`` the greedy step selects, ties resolved exactly.

    Near-tie resolution: exactly-tied gains (flat target regions produce
    them routinely) and ulp-level einsum-vs-dot differences must resolve
    exactly like the reference engine's strict-greater scan.  Candidates
    within round-off of the max (almost always just one) are re-scored
    with the reference arithmetic, so every engine selects the same start.
    ``windows_of(rows)`` gathers the candidates' current residual windows.
    """
    best_gain = float(gains.max())
    tolerance = 1e-12 * max(1.0, abs(best_gain))
    candidates = np.flatnonzero(gains >= best_gain - tolerance)
    if candidates.size == 1:
        return int(candidates[0])
    best = int(candidates[0])
    best_ref = -np.inf
    windows = windows_of(candidates)
    for candidate, window in zip(candidates, windows):
        gain = _placement_gain(window, _water_fill(window, lows, highs))
        if gain > best_ref:
            best, best_ref = int(candidate), gain
    return best


def _best_start_batched(
    plan: _PlacementPlan, windows_view: np.ndarray
) -> tuple[datetime, np.ndarray] | None:
    """All feasible starts of one offer in a single numpy pass.

    ``windows_view`` is ``sliding_window_view(remaining, plan.n)`` — a
    stride trick over the live residual, shared by every offer of the same
    profile length.  The gather copies the current residual values, so
    earlier placements are always reflected.
    """
    if plan.start_indices.size == 0:
        return None
    windows = windows_view[plan.start_indices]
    energies = np.clip(windows, plan.lows, plan.highs)
    diff = windows - energies
    gains = np.einsum("ij,ij->i", windows, windows) - np.einsum(
        "ij,ij->i", diff, diff
    )
    best = _pick_best(gains, lambda rows: windows[rows], plan.lows, plan.highs)
    start = plan.offer.earliest_start + plan.offer.resolution * int(plan.steps[best])
    return start, energies[best]


# --------------------------------------------------------------------- #
# Robust scoring (ScheduleConfig.robust): the same greedy loop, but each
# candidate start is scored against every scenario of a quantile fan and
# the per-scenario gains collapse through a risk measure.  Energies stay
# the point-target water-fill, so only the winning start can differ from
# point scheduling — wire format and validation are untouched.
# --------------------------------------------------------------------- #


def _robust_gain_one(
    point_window: np.ndarray,
    scenario_windows: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    weights: np.ndarray,
    robust,
) -> tuple[float, np.ndarray]:
    """One candidate's risk-aggregated gain, in reference arithmetic.

    The robust counterpart of :func:`_water_fill` + :func:`_placement_gain`
    + :func:`repro.scheduling.robust.risk_of`: the reference engine scores
    every start through it and the vectorized engine re-scores near-tie
    candidates through it, so both engines resolve every selection with
    bitwise-identical numbers.  Returns ``(risk score, energies)``.
    """
    from repro.scheduling.robust import risk_of

    energies = _water_fill(point_window, lows, highs)
    gains = np.array(
        [_placement_gain(window, energies) for window in scenario_windows]
    )
    return risk_of(gains, weights, robust.risk, robust.alpha), energies


def _pick_best_robust(
    scores: np.ndarray,
    windows_of,
    lows: np.ndarray,
    highs: np.ndarray,
    weights: np.ndarray,
    robust,
) -> int:
    """Robust twin of :func:`_pick_best`: near-ties re-scored exactly.

    ``windows_of(rows)`` gathers ``(point windows, scenario windows)`` for
    the candidate rows; everything within round-off of the max is re-run
    through :func:`_robust_gain_one` with a strict-greater scan, matching
    the reference engine's selection bit for bit.
    """
    best_score = float(scores.max())
    tolerance = 1e-12 * max(1.0, abs(best_score))
    candidates = np.flatnonzero(scores >= best_score - tolerance)
    if candidates.size == 1:
        return int(candidates[0])
    point_windows, scenario_windows = windows_of(candidates)
    best = int(candidates[0])
    best_ref = -np.inf
    for row, candidate in enumerate(candidates):
        score, _ = _robust_gain_one(
            point_windows[row],
            scenario_windows[:, row, :],
            lows,
            highs,
            weights,
            robust,
        )
        if score > best_ref:
            best, best_ref = int(candidate), score
    return best


def _best_start_batched_robust(
    plan: _PlacementPlan,
    windows_view: np.ndarray,
    scenario_view: np.ndarray,
    weights: np.ndarray,
    robust,
) -> tuple[datetime, np.ndarray] | None:
    """All feasible starts of one offer against the whole scenario fan.

    ``windows_view`` is the point residual's ``sliding_window_view`` (the
    energies come from it, exactly as in :func:`_best_start_batched`);
    ``scenario_view`` is ``sliding_window_view(scenario_remaining, n,
    axis=1)`` — shape ``(scenarios, starts, n)`` over the live scenario
    residual matrix, so placements flow through both without rebuilding.
    """
    from repro.scheduling.robust import risk_profile

    if plan.start_indices.size == 0:
        return None
    windows = windows_view[plan.start_indices]
    energies = np.clip(windows, plan.lows, plan.highs)
    scenarios = scenario_view[:, plan.start_indices, :]
    diff = scenarios - energies[None, :, :]
    gains = np.einsum("sij,sij->si", scenarios, scenarios) - np.einsum(
        "sij,sij->si", diff, diff
    )
    scores = risk_profile(gains, weights, robust.risk, robust.alpha)
    best = _pick_best_robust(
        scores,
        lambda rows: (windows[rows], scenarios[:, rows, :]),
        plan.lows,
        plan.highs,
        weights,
        robust,
    )
    start = plan.offer.earliest_start + plan.offer.resolution * int(plan.steps[best])
    return start, energies[best]


def greedy_schedule(
    offers: list[FlexOffer],
    target: TimeSeries,
    order: str | None = None,
    config: ScheduleConfig | None = None,
    earliest_allowed: datetime | None = None,
    scenarios: list[TimeSeries] | None = None,
) -> ScheduleResult:
    """Greedily schedule offers to soak up the target series.

    Parameters
    ----------
    offers:
        Flex-offers (individual or aggregated).  Offers whose feasible
        window does not intersect the target axis are returned unplaced.
    target:
        The series to track (e.g. RES surplus), energy per interval.
    order:
        ``"least-flexible-first"`` (default, the paper's heuristic),
        ``"largest-first"`` (by expected energy) or ``"as-given"``.
        Overrides ``config.order`` when given.
    config:
        Engine/order selection; defaults to the vectorized engine.
    earliest_allowed:
        When set, no placement may start before this instant (every
        engine applies the same start-grid filter).  The rolling-horizon
        session passes its commit boundary here so re-planned offers
        cannot reach back into the frozen window.  ``None`` — the default
        — is bitwise-identical to the pre-session behaviour.
    scenarios:
        Robust mode's explicit scenario fan — one target series per
        ``config.robust.quantiles`` level, all on the target axis (e.g. a
        rescaled quantile-forecast fan).  Requires ``config.robust``;
        when robust mode is on and ``scenarios`` is ``None``, a
        deterministic synthetic fan is derived from the point target
        (:func:`repro.scheduling.robust.synthetic_fan`).
    """
    config = config if config is not None else ScheduleConfig()
    if order is not None:
        config = replace(config, order=order)
    robust = config.robust
    if scenarios is not None and robust is None:
        raise SchedulingError(
            "scenarios were supplied but config.robust is not set"
        )
    axis = target.axis
    if config.order == "least-flexible-first":
        queue = sorted(offers, key=lambda o: (o.time_flexibility, -o.profile_energy_max))
    elif config.order == "largest-first":
        queue = sorted(offers, key=lambda o: -o.profile_energy_max)
    else:
        queue = list(offers)

    remaining = target.values.copy()
    if robust is not None:
        from repro.scheduling.robust import resolve_fan

        scenario_remaining, weights = resolve_fan(target, robust, scenarios)
    vectorized = config.engine != "reference"
    if vectorized:
        # Hoist every offer's bounds/starts once; offers sharing a profile
        # length share a single window view over the residual.
        plans = [_build_plan(offer, axis, earliest_allowed) for offer in queue]
        views: dict[int, np.ndarray] = {
            n: sliding_window_view(remaining, n)
            for n in {plan.n for plan in plans}
            if n <= remaining.size
        }
        if robust is not None:
            scenario_views: dict[int, np.ndarray] = {
                n: sliding_window_view(scenario_remaining, n, axis=1)
                for n in views
            }
    schedules: list[ScheduledFlexOffer] = []
    unplaced: list[FlexOffer] = []
    for position, offer in enumerate(queue):
        if vectorized:
            plan = plans[position]
            if plan.n not in views:
                placement = None
            elif robust is not None:
                placement = _best_start_batched_robust(
                    plan, views[plan.n], scenario_views[plan.n], weights, robust
                )
            else:
                placement = _best_start_batched(plan, views[plan.n])
        elif robust is not None:
            placement = _best_start_robust(
                offer, remaining, scenario_remaining, weights, robust, axis,
                earliest_allowed,
            )
        else:
            placement = _best_start(offer, remaining, axis, earliest_allowed)
        if placement is None:
            unplaced.append(offer)
            continue
        start, interval_energies = placement
        slice_energies = _intervals_to_slices(offer, interval_energies)
        schedule = ScheduledFlexOffer(offer, start, slice_energies)
        schedules.append(schedule)
        first = axis.index_of(start)
        placed = schedule.interval_energies()
        remaining[first : first + len(interval_energies)] -= placed
        if robust is not None:
            scenario_remaining[:, first : first + len(interval_energies)] -= placed

    demand = schedules_to_series(schedules, axis)
    return ScheduleResult(
        schedules=schedules, demand=demand, target=target, unplaced=unplaced
    )


def naive_schedule(offers: list[FlexOffer], target: TimeSeries) -> ScheduleResult:
    """The no-scheduling reference: every offer runs at its earliest start.

    Slice energies sit at the profile midpoint — this is (approximately)
    where and how the demand occurred historically, so comparing a greedy
    schedule's cost against this one measures the value of exploiting the
    offers' flexibility, which is the MIRABEL question.
    """
    axis = target.axis
    schedules: list[ScheduledFlexOffer] = []
    unplaced: list[FlexOffer] = []
    for offer in offers:
        start = offer.earliest_start
        n = offer.profile_intervals
        if not axis.contains(start) or axis.index_of(start) + n > axis.length:
            unplaced.append(offer)
            continue
        energies = tuple(sl.midpoint for sl in offer.slices)
        schedules.append(ScheduledFlexOffer(offer, start, energies))
    demand = schedules_to_series(schedules, axis)
    return ScheduleResult(
        schedules=schedules, demand=demand, target=target, unplaced=unplaced
    )


def _best_start(
    offer: FlexOffer,
    remaining: np.ndarray,
    axis,
    earliest_allowed: datetime | None = None,
) -> tuple[datetime, np.ndarray] | None:
    """The feasible start with the highest placement gain, or ``None``.

    The ``engine="reference"`` placement search: one Python-level pass over
    every feasible start, water-filling and scoring each window separately.
    """
    expansion = offer.slice_expansion()
    lows = np.array([lo for lo, _ in expansion])
    highs = np.array([hi for _, hi in expansion])
    n = len(expansion)
    best: tuple[float, datetime, np.ndarray] | None = None
    for start in offer.feasible_starts():
        if earliest_allowed is not None and start < earliest_allowed:
            continue
        if not axis.contains(start):
            continue
        first = axis.index_of(start)
        if first + n > axis.length:
            continue
        window = remaining[first : first + n]
        energies = _water_fill(window, lows, highs)
        gain = _placement_gain(window, energies)
        if best is None or gain > best[0]:
            best = (gain, start, energies)
    if best is None:
        return None
    return best[1], best[2]


def _best_start_robust(
    offer: FlexOffer,
    remaining: np.ndarray,
    scenario_remaining: np.ndarray,
    weights: np.ndarray,
    robust,
    axis,
    earliest_allowed: datetime | None = None,
) -> tuple[datetime, np.ndarray] | None:
    """The ``engine="reference"`` robust placement search.

    One Python-level pass over every feasible start, scoring each window
    through :func:`_robust_gain_one` — the arithmetic the vectorized
    robust engine's near-tie rescoring shares.
    """
    expansion = offer.slice_expansion()
    lows = np.array([lo for lo, _ in expansion])
    highs = np.array([hi for _, hi in expansion])
    n = len(expansion)
    best: tuple[float, datetime, np.ndarray] | None = None
    for start in offer.feasible_starts():
        if earliest_allowed is not None and start < earliest_allowed:
            continue
        if not axis.contains(start):
            continue
        first = axis.index_of(start)
        if first + n > axis.length:
            continue
        window = remaining[first : first + n]
        score, energies = _robust_gain_one(
            window, scenario_remaining[:, first : first + n], lows, highs,
            weights, robust,
        )
        if best is None or score > best[0]:
            best = (score, start, energies)
    if best is None:
        return None
    return best[1], best[2]


def _intervals_to_slices(
    offer: FlexOffer, interval_energies: np.ndarray
) -> tuple[float, ...]:
    """Collapse per-interval energies back to per-slice energies."""
    out = []
    cursor = 0
    for sl in offer.slices:
        out.append(float(interval_energies[cursor : cursor + sl.duration].sum()))
        cursor += sl.duration
    return tuple(out)
