"""Stochastic improvement of a greedy schedule (paper [5] evolves schedules).

The BIOMA 2012 scheduler is evolutionary; here a lean random-restart hill
climber plays that role: repeatedly pick a scheduled offer, try a random
alternative start (re-water-filling its energies against the target net of
everyone else), and keep the move when the global squared imbalance drops.
Deterministic given the generator, and always at least as good as its input.

Like the greedy layer, two engines implement identical semantics
(``ScheduleConfig(engine=...)``): the ``"reference"`` engine is the seed
implementation (per-iteration bounds rebuild and a full residual copy per
move evaluation); the default ``"vectorized"`` engine hoists every offer's
expansion bounds, feasible starts and current placement to arrays once and
evaluates moves window-locally.  Both consume the generator identically and
produce bitwise-identical schedules — the vectorized engine is a pure
execution-plan change.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SchedulingError
from repro.flexoffer.schedule import ScheduledFlexOffer, schedules_to_series
from repro.scheduling.greedy import (
    _ENGINES,
    ScheduleResult,
    _intervals_to_slices,
    _placement_gain,
    _water_fill,
)


def improve_schedule(
    result: ScheduleResult,
    rng: np.random.Generator,
    iterations: int = 500,
    engine: str = "vectorized",
) -> ScheduleResult:
    """Hill-climb a schedule by re-placing single offers.

    Each iteration removes one random offer from the plan, water-fills it at
    a random feasible start against the residual target, and keeps the move
    if the squared imbalance does not increase.  Returns a new
    :class:`ScheduleResult`; the input is not mutated.
    """
    if engine not in _ENGINES:
        raise SchedulingError(f"engine must be one of {_ENGINES}, got {engine!r}")
    schedules = list(result.schedules)
    if not schedules or iterations <= 0:
        return result
    if engine == "reference":
        return _improve_reference(result, schedules, rng, iterations)
    return _improve_vectorized(result, schedules, rng, iterations)


def _improve_reference(
    result: ScheduleResult,
    schedules: list[ScheduledFlexOffer],
    rng: np.random.Generator,
    iterations: int,
) -> ScheduleResult:
    """The seed implementation: per-iteration rebuilds and residual copies."""
    axis = result.target.axis
    # residual = target - scheduled demand (updated in place).
    residual = result.target.values - result.demand.values

    for _ in range(iterations):
        idx = int(rng.integers(0, len(schedules)))
        current = schedules[idx]
        offer = current.offer
        starts = [s for s in offer.feasible_starts() if axis.contains(s)]
        if not starts:
            continue
        new_start = starts[int(rng.integers(0, len(starts)))]
        expansion = offer.slice_expansion()
        n = len(expansion)
        first_new = axis.index_of(new_start)
        if first_new + n > axis.length:
            continue
        lows = np.array([lo for lo, _ in expansion])
        highs = np.array([hi for _, hi in expansion])

        # Residual with the current placement removed.
        first_old = axis.index_of(current.start)
        old_energies = current.interval_energies()
        residual_wo = residual.copy()
        residual_wo[first_old : first_old + n] += old_energies

        window = residual_wo[first_new : first_new + n]
        new_energies = _water_fill(window, lows, highs)
        old_window = residual_wo[first_old : first_old + n]
        gain_new = _placement_gain(window, new_energies)
        gain_old = _placement_gain(old_window, old_energies)
        if gain_new <= gain_old:
            continue
        schedules[idx] = ScheduledFlexOffer(
            offer, new_start, _intervals_to_slices(offer, new_energies)
        )
        residual = residual_wo
        residual[first_new : first_new + n] -= schedules[idx].interval_energies()

    demand = schedules_to_series(schedules, axis)
    return ScheduleResult(
        schedules=schedules,
        demand=demand,
        target=result.target,
        unplaced=list(result.unplaced),
    )


def _improve_vectorized(
    result: ScheduleResult,
    schedules: list[ScheduledFlexOffer],
    rng: np.random.Generator,
    iterations: int,
) -> ScheduleResult:
    """Hoisted move evaluation: same draws, same floats, no full-array copies.

    Per-offer bounds, feasible starts and start indices are computed once;
    each move evaluation touches only the two affected windows of the
    residual (adding back the current placement on their overlap), so the
    per-iteration cost is O(profile length) instead of O(horizon).
    """
    axis = result.target.axis
    residual = result.target.values - result.demand.values
    length = axis.length

    # Hoisted per-schedule state (the offers never change, only placements).
    from repro.scheduling.greedy import start_grid

    lows: list[np.ndarray] = []
    highs: list[np.ndarray] = []
    sizes: list[int] = []
    steps_of: list[np.ndarray] = []
    firsts_of: list[np.ndarray] = []
    cur_first: list[int] = []
    cur_energies: list[np.ndarray] = []
    for schedule in schedules:
        offer = schedule.offer
        lo, hi = offer.slice_expansion_arrays()
        lows.append(lo)
        highs.append(hi)
        sizes.append(lo.size)
        # The reference engine filters by axis membership only and burns a
        # draw on overrunning starts — replicated here so both engines
        # consume the generator identically.
        steps, firsts = start_grid(offer, axis, require_fit=False)
        steps_of.append(steps)
        firsts_of.append(firsts)
        cur_first.append(axis.index_of(schedule.start))
        cur_energies.append(schedule.interval_energies())

    for _ in range(iterations):
        idx = int(rng.integers(0, len(schedules)))
        firsts = firsts_of[idx]
        if firsts.size == 0:
            continue
        pick = int(rng.integers(0, firsts.size))
        n = sizes[idx]
        first_new = int(firsts[pick])
        if first_new + n > length:
            continue

        first_old = cur_first[idx]
        old_energies = cur_energies[idx]
        # The two windows of `residual` with the current placement added
        # back — equal to the reference engine's full-copy construction on
        # exactly the touched intervals.
        old_window = residual[first_old : first_old + n] + old_energies
        window = residual[first_new : first_new + n].copy()
        overlap_lo = max(first_old, first_new)
        overlap_hi = min(first_old + n, first_new + n)
        if overlap_hi > overlap_lo:
            window[overlap_lo - first_new : overlap_hi - first_new] += old_energies[
                overlap_lo - first_old : overlap_hi - first_old
            ]
        new_energies = _water_fill(window, lows[idx], highs[idx])
        gain_new = _placement_gain(window, new_energies)
        gain_old = _placement_gain(old_window, old_energies)
        if gain_new <= gain_old:
            continue
        offer = schedules[idx].offer
        new_start = offer.earliest_start + offer.resolution * int(steps_of[idx][pick])
        schedules[idx] = ScheduledFlexOffer(
            offer, new_start, _intervals_to_slices(offer, new_energies)
        )
        accepted = schedules[idx].interval_energies()
        residual[first_old : first_old + n] += old_energies
        residual[first_new : first_new + n] -= accepted
        cur_first[idx] = first_new
        cur_energies[idx] = accepted

    demand = schedules_to_series(schedules, axis)
    return ScheduleResult(
        schedules=schedules,
        demand=demand,
        target=result.target,
        unplaced=list(result.unplaced),
    )
