"""Stochastic improvement of a greedy schedule (paper [5] evolves schedules).

The BIOMA 2012 scheduler is evolutionary; here a lean random-restart hill
climber plays that role: repeatedly pick a scheduled offer, try a random
alternative start (re-water-filling its energies against the target net of
everyone else), and keep the move when the global squared imbalance drops.
Deterministic given the generator, and always at least as good as its input.

Two engines implement identical semantics (``ScheduleConfig(engine=...)``):
the ``"reference"`` engine is the seed implementation (per-iteration bounds
rebuild and a full residual copy per move evaluation) and stays the oracle;
the default engine is a lockstep improver.  Which move an iteration tries
never depends on the residual, so it draws every move up front, then scores
the pending moves of many schedules at once in one block and re-scores only
the moves the block cannot reject with the reference arithmetic.  Both
engines consume the generator identically and produce bitwise-identical
schedules.  :func:`improve_scope` lets one lockstep run over every zone of a
zoned market answer the per-zone :func:`improve_schedule` calls.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from datetime import timedelta

import numpy as np

from repro.batching import BatchScope
from repro.errors import SchedulingError
from repro.flexoffer.schedule import ScheduledFlexOffer, schedules_to_series
from repro.scheduling.greedy import (
    _ENGINES,
    ScheduleResult,
    _intervals_to_slices,
    _placement_gain,
    _water_fill,
)
from repro.timeseries.series import TimeSeries

#: Pending moves per schedule scored in one block per round.  Larger
#: blocks waste more rows after an accepted move; smaller ones pay more
#: per-round numpy overhead (PERFORMANCE.md, "Measured: lockstep improver").
_LOOKAHEAD = 32

_EPS = float(np.finfo(float).eps)


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

    This is :func:`improve_many` over one schedule — unless ``result`` and
    ``rng`` belong to an open :func:`improve_scope`, whose shared lockstep
    run then answers the call.
    """
    if engine not in _ENGINES:
        raise SchedulingError(f"engine must be one of {_ENGINES}, got {engine!r}")
    if engine == "reference":
        schedules = list(result.schedules)
        if not schedules or iterations <= 0:
            return result
        return _improve_reference(result, schedules, rng, iterations)
    improved = _SCOPES.answer((result, rng), (iterations,))
    if improved is not None:
        return improved
    return improve_many([result], [rng], iterations)[0]


_SCOPES: BatchScope[ScheduleResult] = BatchScope("improve_scope")


@contextmanager
def improve_scope(
    results: Sequence[ScheduleResult],
    rngs: Sequence[np.random.Generator],
    iterations: int,
) -> Iterator[None]:
    """Answer ``improve_schedule`` calls on ``results`` from one lockstep run.

    Inside the block, the first non-reference :func:`improve_schedule` call
    on a member (``result`` and ``rng`` by identity, same ``iterations``)
    runs :func:`improve_many` over every member; later calls return their
    share of that run, once each (a :class:`~repro.batching.BatchScope`).
    Callers keep one call per schedule — and whatever observes those calls
    keeps seeing one per schedule — while the improvement itself runs in
    lockstep.
    """
    if len(results) != len(rngs):
        raise SchedulingError(f"{len(results)} results but {len(rngs)} generators")
    results, rngs = list(results), list(rngs)
    with _SCOPES.open(
        list(zip(results, rngs)),
        (iterations,),
        lambda: improve_many(results, rngs, iterations),
    ):
        yield


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


def improve_many(
    results: Sequence[ScheduleResult],
    rngs: Sequence[np.random.Generator],
    iterations: int,
) -> list[ScheduleResult]:
    """:func:`improve_schedule` over many independent schedules, in lockstep.

    Schedule ``i`` draws from ``rngs[i]`` exactly as its own sequential
    run would and ends bitwise where that run ends (each generator too);
    only the arithmetic that scores pending moves is shared.  Schedules
    with nothing placed, and every schedule when ``iterations <= 0``, are
    returned as given.
    """
    if len(results) != len(rngs):
        raise SchedulingError(f"{len(results)} results but {len(rngs)} generators")
    live = [i for i, result in enumerate(results) if result.schedules and iterations > 0]
    improved = list(results)
    if live:
        lockstep = _Lockstep(
            [results[i] for i in live], [rngs[i] for i in live], iterations
        )
        for i, result in zip(live, lockstep.run()):
            improved[i] = result
    return improved


class _Lockstep:
    """Every schedule's hill climb, advanced together one block at a time.

    Schedules (zones) are independent: each keeps its own residual — one
    span of the shared ``flat`` array — and its own move list.  Offers of
    every schedule share one global index ``g``, under which the bounds
    and the current placement (``first`` and the ``energy`` row) are held
    as zero-padded rows, so one round gathers every schedule's pending
    moves with a few array operations.  The rows are built for all offers
    at once with the same float operations as
    :meth:`~repro.flexoffer.model.FlexOffer.slice_expansion_arrays`,
    :meth:`~repro.flexoffer.schedule.ScheduledFlexOffer.interval_energies`
    and :func:`~repro.scheduling.greedy.start_grid`, so they are bitwise
    what the reference engine rebuilds per move.
    """

    def __init__(
        self,
        results: list[ScheduleResult],
        rngs: list[np.random.Generator],
        iterations: int,
    ) -> None:
        self.results = results
        self.schedules = [list(result.schedules) for result in results]
        one_us = timedelta(microseconds=1)
        e_min, e_max, e_cur, durations = [], [], [], []
        sizes, firsts, zone_of, offsets0, resolutions, counts = [], [], [], [], [], []
        self.offset: list[int] = []  # global index of each schedule's first offer
        for zone, (result, schedules) in enumerate(zip(results, self.schedules)):
            axis = result.target.axis
            self.offset.append(len(sizes))
            for schedule in schedules:
                offer = schedule.offer
                n = 0
                for piece, energy in zip(offer.slices, schedule.slice_energies):
                    e_min.append(piece.energy_min)
                    e_max.append(piece.energy_max)
                    e_cur.append(energy)
                    durations.append(piece.duration)
                    n += piece.duration
                first = axis.index_of(schedule.start)
                if first + n > axis.length:
                    raise SchedulingError(
                        f"schedule for {offer.offer_id} overruns the axis end"
                    )
                sizes.append(n)
                firsts.append(first)
                zone_of.append(zone)
                offsets0.append((offer.earliest_start - axis.start) // one_us)
                resolutions.append(offer.resolution // one_us)
                counts.append(
                    (offer.latest_start - offer.earliest_start) // offer.resolution + 1
                )
        offers = len(sizes)
        self.size = np.array(sizes, dtype=np.intp)
        self.first = np.array(firsts, dtype=np.intp)
        zone_of = np.array(zone_of, dtype=np.intp)
        lengths = np.array([result.target.axis.length for result in results], dtype=np.intp)
        axis_us = np.array(
            [result.target.axis.resolution // one_us for result in results], dtype=np.int64
        )
        width = int(self.size.max())
        self.cols = np.arange(width)

        # Interval rows: slice values divided by their durations, repeated.
        durations = np.array(durations)
        owner = np.repeat(np.arange(offers), self.size)
        row_start = np.cumsum(self.size) - self.size
        column = np.arange(owner.size) - np.repeat(row_start, self.size)
        self.bounds = np.zeros((2, offers, width))
        self.bounds[0, owner, column] = np.repeat(np.array(e_min) / durations, durations)
        self.bounds[1, owner, column] = np.repeat(np.array(e_max) / durations, durations)
        self.energy = np.zeros((offers, width))
        self.energy[owner, column] = np.repeat(np.array(e_cur) / durations, durations)
        self.owner, self.column = owner, column

        # One flat residual; the trailing `width` zeros keep every padded
        # column's gather in range (padded columns are masked out).
        starts = np.concatenate([[0], np.cumsum(lengths)]).astype(np.intp)
        self.flat = np.zeros(int(starts[-1]) + width)
        self.residual = []
        for zone, result in enumerate(results):
            span = self.flat[starts[zone] : starts[zone + 1]]
            span[:] = result.target.values - result.demand.values
            self.residual.append(span)
        self.base = starts[zone_of]

        # Every offer's start grid on the axis (overrunning starts kept:
        # like the reference engine, they burn a draw).
        counts = np.array(counts, dtype=np.int64)
        grid_owner = np.repeat(np.arange(offers), counts)
        steps = np.arange(grid_owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
        off_us = np.repeat(np.array(offsets0, dtype=np.int64), counts) + steps * np.repeat(
            np.array(resolutions, dtype=np.int64), counts
        )
        grid_axis_us = axis_us[zone_of][grid_owner]
        on_axis = (off_us >= 0) & (off_us < grid_axis_us * lengths[zone_of][grid_owner])
        self.steps = steps[on_axis]
        grid_firsts = (off_us // grid_axis_us)[on_axis].tolist()
        grid_size = np.bincount(grid_owner[on_axis], minlength=offers)
        grid_start = (np.cumsum(grid_size) - grid_size).tolist()
        grid_size = grid_size.tolist()

        moves = [
            self._draw(zone, rng, iterations, sizes, grid_size, grid_start, grid_firsts)
            for zone, rng in enumerate(rngs)
        ]
        counts = [len(gs) for gs, _, _ in moves]
        ends = np.cumsum(counts)
        self.move_g = np.array([g for gs, _, _ in moves for g in gs], dtype=np.intp)
        self.move_first = np.array([f for _, fs, _ in moves for f in fs], dtype=np.intp)
        self.move_grid = [i for _, _, grid in moves for i in grid]
        self.move_zone = np.repeat(np.arange(len(results)), counts).tolist()
        self.next = (ends - counts).tolist()
        self.end = ends.tolist()

    def _draw(
        self,
        zone: int,
        rng: np.random.Generator,
        iterations: int,
        sizes: list[int],
        grid_size: list[int],
        grid_start: list[int],
        grid_firsts: list[int],
    ) -> tuple[list[int], list[int], list[int]]:
        """Every move of one schedule, in the sequential engine's order:
        ``(offer g, first interval, grid entry)`` lists.

        The draws depend only on the schedule count and each offer's grid
        size, never on the residual; the two skips (no start on the axis,
        a start whose profile overruns the axis end) depend only on the
        draws.  So the generator ends exactly where the sequential run
        leaves it.
        """
        g0 = self.offset[zone]
        count = len(self.schedules[zone])
        length = self.results[zone].target.axis.length
        integers = rng.integers
        gs: list[int] = []
        news: list[int] = []
        entries: list[int] = []
        for _ in range(iterations):
            g = g0 + int(integers(0, count))
            size = grid_size[g]
            if not size:
                continue
            entry = grid_start[g] + int(integers(0, size))
            first_new = grid_firsts[entry]
            if first_new + sizes[g] > length:
                continue
            gs.append(g)
            news.append(first_new)
            entries.append(entry)
        return gs, news, entries

    def run(self) -> list[ScheduleResult]:
        """Advance every schedule to the end of its moves; the results.

        Each round scores the next :data:`_LOOKAHEAD` moves of every live
        schedule in one block.  Per schedule, in move order, a move the
        block cannot reject is re-scored exactly (:meth:`_try`); the first
        one accepted ends that schedule's round, which resumes right after
        it, since every later move of the round was scored against the
        residual before the accepted move.
        """
        live = [zone for zone, end in enumerate(self.end) if self.next[zone] < end]
        while live:
            stops = [min(self.next[zone] + _LOOKAHEAD, self.end[zone]) for zone in live]
            rows = np.concatenate(
                [np.arange(self.next[zone], stop) for zone, stop in zip(live, stops)]
            )
            for zone, stop in zip(live, stops):
                self.next[zone] = stop
            moved: set[int] = set()
            for row in rows[self._undecided(rows)].tolist():
                zone = self.move_zone[row]
                if zone not in moved and self._try(row):
                    self.next[zone] = row + 1
                    moved.add(zone)
            live = [zone for zone in live if self.next[zone] < self.end[zone]]
        return [
            ScheduleResult(
                schedules=self.schedules[zone],
                demand=self._demand(zone),
                target=result.target,
                unplaced=list(result.unplaced),
            )
            for zone, result in enumerate(self.results)
        ]

    def _demand(self, zone: int) -> TimeSeries:
        """``schedules_to_series`` of the zone's schedules, bitwise: every
        interval sums its placements' energies from zero in schedule order
        (``np.add.at`` applies repeated indices in order)."""
        demand = TimeSeries.zeros(self.results[zone].target.axis, name="scheduled-demand")
        g0 = self.offset[zone]
        g1 = g0 + len(self.schedules[zone])
        # `owner` is sorted, so the zone's intervals are one contiguous run.
        lo, hi = np.searchsorted(self.owner, [g0, g1])
        owner, column = self.owner[lo:hi], self.column[lo:hi]
        np.add.at(demand.values, self.first[owner] + column, self.energy[owner, column])
        return demand

    def _undecided(self, rows: np.ndarray) -> np.ndarray:
        """Which of the moves ``rows`` the block cannot reject.

        Per move, one zero-padded row holds the new window with the current
        placement added back on the overlap, and the old window (residual
        plus current energies): bitwise the arrays the sequential engine
        builds, since every element comes from the same float operation.
        A move is rejected when :func:`_block_margins` proves it.
        """
        g = self.move_g[rows]
        first_new = self.move_first[rows]
        first_old = self.first[g]
        n = self.size[g]
        width = int(n.max())
        cols = self.cols[:width]
        inside = cols < n[:, None]
        base = self.base[g]
        current = self.energy[g, :width]
        new = np.where(inside, self.flat[(base + first_new)[:, None] + cols], 0.0)
        # Where the new window overlaps the current placement, interval j
        # of the new window is interval `shift` of the current one.
        shift = (first_new - first_old)[:, None] + cols
        overlap = inside & (shift >= 0) & (shift < n[:, None])
        shifted = np.take_along_axis(current, np.clip(shift, 0, width - 1), axis=1)
        window = np.where(overlap, new + shifted, new)
        old = np.where(inside, self.flat[(base + first_old)[:, None] + cols], 0.0) + current
        lows, highs = self.bounds[:, g, :width]
        margin, tol = _block_margins(window, np.clip(window, lows, highs), old, current, n)
        return ~(margin < -tol)

    def _try(self, row: int) -> bool:
        """Re-score move ``row`` with the sequential arithmetic; apply it if
        it is accepted.  Returns whether it was."""
        g = int(self.move_g[row])
        zone = self.move_zone[row]
        n = int(self.size[g])
        first_new = int(self.move_first[row])
        first_old = int(self.first[g])
        residual = self.residual[zone]
        old_energies = self.energy[g, :n]
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
        new_energies = _water_fill(window, self.bounds[0, g, :n], self.bounds[1, g, :n])
        gain_new = _placement_gain(window, new_energies)
        gain_old = _placement_gain(old_window, old_energies)
        if gain_new <= gain_old:
            return False
        position = g - self.offset[zone]
        offer = self.schedules[zone][position].offer
        step = int(self.steps[self.move_grid[row]])
        schedule = ScheduledFlexOffer(
            offer,
            offer.earliest_start + offer.resolution * step,
            _intervals_to_slices(offer, new_energies),
        )
        self.schedules[zone][position] = schedule
        accepted = schedule.interval_energies()
        residual[first_old : first_old + n] += old_energies
        residual[first_new : first_new + n] -= accepted
        self.first[g] = first_new
        self.energy[g, :n] = accepted
        return True


def _block_margins(
    window: np.ndarray,
    fill: np.ndarray,
    old: np.ndarray,
    current: np.ndarray,
    n: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, ``gain_new − gain_old`` and a bound on its round-off.

    Row ``i`` holds one move's new ``window``, its water-fill ``fill``,
    the ``old`` window and the ``current`` energies in its first ``n[i]``
    columns and zeros after.  Returns ``(margin, tol)``: a row whose
    margin is below ``−tol`` is a move the sequential engine rejects.

    The bound: let ``u = ε/2`` and ``S = Σw² + Σd² + Σw_old² + Σd_old²``
    for a move of ``n`` intervals (``d = w − fill``, ``d_old = w_old −
    current``).  Any summation order of ``Σx²`` errs by at most
    ``γ_n·Σx²`` with ``γ_n = n·u/(1 − n·u)`` (padded columns add exact
    zeros), and each gain's subtraction adds ``u`` of its operands.  So
    the block's gain and the sequential engine's ``np.dot`` gain are each
    within ``(γ_n + u)(Σw² + Σd²)·(1 + γ_n)`` of the exact difference,
    and differ by at most twice that; likewise for the old gain.  The
    margin's own subtraction adds ``u`` of ``|gain_new| + |gain_old| ≤
    S·(1 + γ_n)``.  In all, ``|block margin − (gain_new − gain_old)| ≤
    (2γ_n + 3u)·S·(1 + γ_n) ≤ (n + 2)·ε·S``, where ``gain_new`` and
    ``gain_old`` are the sequential engine's floats.  ``tol = 4·(n + 2)·ε·S``
    leaves a factor of four for ``S`` and ``tol`` being rounded
    themselves.  A margin below ``−tol`` thus proves ``gain_new <
    gain_old``, which the sequential engine rejects; any other move (NaN
    included) has to be re-scored exactly.  This is the near-tie rule of
    :func:`repro.scheduling.greedy._pick_best`, made a proven bound.
    """
    d_new = window - fill
    d_old = old - current
    w_new = np.einsum("ij,ij->i", window, window)
    s_new = np.einsum("ij,ij->i", d_new, d_new)
    w_old = np.einsum("ij,ij->i", old, old)
    s_old = np.einsum("ij,ij->i", d_old, d_old)
    margin = (w_new - s_new) - (w_old - s_old)
    tol = (4.0 * _EPS) * (n + 2) * (w_new + s_new + w_old + s_old)
    return margin, tol
