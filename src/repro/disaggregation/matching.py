"""Template-matching disaggregation (matching pursuit over appliance profiles).

Step 1 of the appliance-level extractors (paper §4) must "derive which
appliance and how frequently was used" from the total series given
manufacturer profiles (Table 1).  This module implements the workhorse:
a greedy matching pursuit that repeatedly finds the (appliance, start) whose
scaled template best explains the residual series, subtracts it, and repeats.

Two engines implement the same greedy semantics:

* ``"vectorized"`` (default) — the fleet-scale hot path, a *lockstep*
  engine: the pursuits of a tile of households run together over one
  (households × minutes) residual matrix.  Per-offset energy maps come
  from one FFT over the tile and are then *patched* by direct correlation
  where a subtraction touched the residual; each iteration refreshes the
  stale (household, appliance, day) candidates of one appliance in a
  single array pass and patches every household's maps of one template in
  one correlation.  A bound taken once off the initial residual (a window's
  positive mass times ``peak / denom``) prunes the (household, appliance,
  day) cells that can never reach the appliance's energy floor: they are
  never refreshed, and a household with no live day for an appliance never
  patches its map.  Every batched primitive works row by row, so a
  household's result does not depend on which households share its tile.

  Its constant factors are kept low: the initial inverse FFTs run only
  over households with a live day for the template; non-max suppression
  writes each pick's window through one strided view; the placement
  scores reuse one temporary; and each round's patch ranges, refreshed
  days and skips are arrays over every (change, template) pair, cut to
  the live days.  A tile's arrays die with it; its energy maps, most of
  its memory, live in private memory maps outside the allocator's heap.
* ``"reference"`` — the original per-call implementation, kept as the
  behavioural oracle the tests and the conformance matrix compare against.

Both engines are deterministic; they may differ in float round-off (FFT vs
direct correlation) and can therefore make different greedy picks on
near-ties, but they honour identical acceptance rules.  The ablation bench
compares matching against the combinatorial and event-based alternatives.
"""

from __future__ import annotations

import mmap
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from repro.appliances.database import ApplianceDatabase, ApplianceTemplate
from repro.appliances.model import ApplianceSpec
from repro.batching import BatchScope
from repro.errors import DataError
from repro.simulation.activations import Activation
from repro.timeseries.axis import ONE_MINUTE
from repro.timeseries.series import TimeSeries

_MINUTES_PER_DAY = 24 * 60
_PER_DAY_QUOTA = 6

_ENGINES = ("vectorized", "reference")


def _check_energy_slack(energy_slack: float) -> None:
    """Reject an ``energy_slack`` outside ``[0, 1]`` (or NaN): the floor
    ``energy_min · (1 − energy_slack)`` must stay in ``[0, energy_min]``."""
    if not 0.0 <= energy_slack <= 1.0:
        raise DataError(f"energy_slack must be in [0, 1], got {energy_slack!r}")


@dataclass(frozen=True, slots=True)
class MatchingConfig:
    """Knobs of the matching-pursuit disaggregator.

    ``min_score`` is the minimum fraction of a template's energy that the fit
    must explain for a match to be accepted; raising it trades recall for
    precision.  ``energy_slack`` (in ``[0, 1]``) widens appliance energy
    ranges when clamping fitted energies (overlapping loads inflate the
    local estimate).
    ``engine`` selects the implementation: the vectorized fleet engine or the
    original per-call reference.
    """

    max_iterations: int = 200
    min_score: float = 0.55
    energy_slack: float = 0.15
    residual_floor_kwh: float = 0.05
    engine: str = "vectorized"

    def __post_init__(self) -> None:
        if (
            not isinstance(self.max_iterations, (int, np.integer))
            or isinstance(self.max_iterations, bool)
            or self.max_iterations < 1
        ):
            raise DataError(f"max_iterations must be an integer >= 1, got {self.max_iterations!r}")
        if not 0.0 < self.min_score <= 1.0:
            raise DataError("min_score must be in (0, 1]")
        _check_energy_slack(self.energy_slack)
        if not self.residual_floor_kwh >= 0.0:
            raise DataError(f"residual_floor_kwh must be >= 0, got {self.residual_floor_kwh!r}")
        if self.engine not in _ENGINES:
            raise DataError(f"engine must be one of {_ENGINES}, got {self.engine!r}")


@dataclass(frozen=True)
class DetectionResult:
    """Output of a disaggregation run: events plus the unexplained residual."""

    detections: list[Activation]
    residual: TimeSeries
    explained_kwh: float

    def by_appliance(self) -> dict[str, list[Activation]]:
        """Group detections per appliance name."""
        groups: dict[str, list[Activation]] = {}
        for det in self.detections:
            groups.setdefault(det.appliance, []).append(det)
        return groups


def _correlation_scores(
    residual: np.ndarray, shape: np.ndarray, denom: float | None = None
) -> np.ndarray:
    """Per-offset least-squares energy estimates via FFT correlation.

    Entry ``t`` is the best-fitting energy for a cycle starting at ``t``:
    ``<residual[t:t+m], shape> / <shape, shape>`` computed for all offsets at
    once with :func:`numpy.correlate` semantics.  ``denom`` may pass the
    cached ``<shape, shape>`` (see :meth:`ApplianceDatabase.template`).
    """
    m = len(shape)
    if m > len(residual):
        return np.zeros(0)
    # 'valid' correlation: sum over the template support at every offset.
    # FFT-based for long series (the 1-minute grid easily reaches 10^4-10^5
    # samples), exact direct correlation for short ones.
    if len(residual) > 4096:
        corr = fftconvolve(residual, shape[::-1], mode="valid")
    else:
        corr = np.correlate(residual, shape, mode="valid")
    if denom is None:
        denom = float(np.dot(shape, shape))
    return corr / denom


def _placement_score(window: np.ndarray, shape: np.ndarray, energy: float) -> float:
    """How well a scaled template explains a residual window, in [0, 1].

    The score multiplies two factors:

    * *coverage* — fraction of the template's energy present in the window
      (``sum(min(window, template)) / energy``); punishes placements where
      the appliance's power simply is not there.
    * *shape similarity* — total-variation similarity between the window's
      normalised energy distribution and the template's; punishes fitting a
      spiky appliance onto flat residual mass (and vice versa), which is the
      classic failure mode of coverage-only matching.
    """
    template = shape * energy
    positive = np.clip(window, 0.0, None)
    coverage = float(np.minimum(positive, template).sum() / energy) if energy > 0 else 0.0
    mass = float(positive.sum())
    if mass <= 0.0:
        return 0.0
    window_density = positive / mass
    similarity = 1.0 - 0.5 * float(np.abs(window_density - shape).sum())
    return coverage * max(0.0, similarity)


def match_pursuit(
    series: TimeSeries,
    database: ApplianceDatabase,
    config: MatchingConfig | None = None,
    household_id: str = "",
) -> DetectionResult:
    """Disaggregate a 1-minute series by greedy template matching.

    At each iteration, for every appliance in ``database`` the best start
    offset and least-squares energy are computed; the candidate with the
    highest *explained energy fraction* (1 − residual-gain ratio on its
    window) is accepted if it clears ``config.min_score`` and its fitted
    energy is inside the appliance's (slack-widened) range.  Its profile is
    subtracted and the search repeats.

    This is :func:`match_pursuit_many` over one series — unless ``series``
    belongs to an open :func:`pursuit_tile`, whose shared lockstep run then
    answers the call.
    """
    result = _TILES.answer((series, database), (config, household_id))
    if result is not None:
        return result
    return match_pursuit_many([series], database, config, [household_id])[0]


def match_pursuit_many(
    series: Sequence[TimeSeries],
    database: ApplianceDatabase,
    config: MatchingConfig | None = None,
    household_ids: Sequence[str] | None = None,
) -> list[DetectionResult]:
    """:func:`match_pursuit` over many households, in lockstep.

    Series of equal length run as one tile of the vectorized engine; a list
    mixing lengths runs one tile per length.  Each result is bitwise what
    the series would get alone.  ``household_ids`` stamps the detections
    of each series (default: unstamped).
    """
    series = list(series)
    if any(s.axis.resolution != ONE_MINUTE for s in series):
        raise DataError("match_pursuit expects a 1-minute series")
    ids = [""] * len(series) if household_ids is None else list(household_ids)
    if len(ids) != len(series):
        raise DataError(f"{len(ids)} household ids for {len(series)} series")
    config = config or MatchingConfig()
    if config.engine == "reference":
        return [
            _match_pursuit_reference(s, database, config, household_id)
            for s, household_id in zip(series, ids)
        ]
    by_length: dict[int, list[int]] = {}
    for index, s in enumerate(series):
        by_length.setdefault(s.axis.length, []).append(index)
    results: list[DetectionResult] = [None] * len(series)  # type: ignore[list-item]
    for members in by_length.values():
        tile = _Lockstep([series[i] for i in members], database, config)
        for index, result in zip(members, tile.run([ids[i] for i in members])):
            results[index] = result
    return results


# ---------------------------------------------------------------------- #
# Tiles: per-household calls answered by one shared lockstep run
# ---------------------------------------------------------------------- #

_TILES: BatchScope[DetectionResult] = BatchScope("matching_tile")


@contextmanager
def pursuit_tile(
    series: Sequence[TimeSeries],
    database: ApplianceDatabase,
    config: MatchingConfig | None = None,
) -> Iterator[None]:
    """Answer ``match_pursuit`` calls on ``series`` from one lockstep run.

    Inside the block, the first :func:`match_pursuit` call on a member (by
    identity, same database and config, no household id) runs
    :func:`match_pursuit_many` over every member; later calls return their
    share of that run, once each (a :class:`~repro.batching.BatchScope`).
    Callers keep one call per household — and whatever observes those
    calls keeps seeing one per household — while the pursuit itself runs
    batched.
    """
    series = list(series)
    with _TILES.open(
        [(member, database) for member in series],
        (config, ""),
        lambda: match_pursuit_many(series, database, config),
    ):
        yield


# ---------------------------------------------------------------------- #
# Vectorized engine: lockstep pursuit over a tile of households
# ---------------------------------------------------------------------- #


def _placement_scores(
    windows: np.ndarray, shape: np.ndarray, energies: np.ndarray
) -> np.ndarray:
    """:func:`_placement_score` for many (window, energy) placements at once.

    ``windows`` is one residual window per row, a gathered copy that the
    call overwrites with its positive part; one more array of its shape
    holds every temporary.  All row reductions run along the contiguous
    last axis, so each row's score is independent of the other rows.
    """
    positive = np.maximum(windows, 0.0, out=windows)
    scratch = np.multiply(energies[:, None], shape[None, :])
    safe_energy = np.where(energies > 0.0, energies, 1.0)
    coverage = np.minimum(positive, scratch, out=scratch).sum(axis=1) / safe_energy
    coverage[energies <= 0.0] = 0.0
    mass = positive.sum(axis=1)
    safe_mass = np.where(mass > 0.0, mass, 1.0)
    np.divide(positive, safe_mass[:, None], out=scratch)
    np.subtract(scratch, shape[None, :], out=scratch)
    similarity = 1.0 - 0.5 * np.abs(scratch, out=scratch).sum(axis=1)
    scores = coverage * np.maximum(similarity, 0.0)
    scores[mass <= 0.0] = 0.0
    return scores


def _nms_picks(
    block: np.ndarray, feasible: np.ndarray, cycle_minutes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top candidates with non-max suppression, in selection order.

    ``block`` holds one day of fitted energies per row and ``feasible``
    marks the offsets whose energy is in range.  Each pass takes every
    row's largest feasible energy (exact ties break towards the largest
    offset), then suppresses the offsets less than half a cycle from it.
    At most :data:`_PER_DAY_QUOTA` picks per row survive; the per-day quota
    keeps every day's local events in the running even when other days
    carry much larger loads.  Returns ``(picks, valid)``, both
    ``(rows, quota)``.

    The passes run on a reversed copy of the rows (so a first-occurrence
    argmax finds the largest offset), padded with half a cycle of ``-inf``
    on both sides so every suppression window stays inside its row.  A
    pass suppresses through a writeable view of all windows of the copy:
    one slice write per row.  The copy starts a window's reach into its
    buffer, so even the window of an empty first row (whose argmax is its
    first entry) starts inside the buffer instead of wrapping round to
    the last row.
    """
    rows, width = block.shape
    half = cycle_minutes // 2
    reach = max(half - 1, 0)
    stride = width + 2 * half
    buffer = np.empty(rows * stride + 2 * reach)
    suppress = _windows(buffer, 2 * reach + 1)
    masked = buffer[reach : reach + rows * stride].reshape(rows, stride)
    masked.fill(-np.inf)
    np.copyto(masked[:, half : half + width], block[:, ::-1], where=feasible[:, ::-1])
    flat = masked.reshape(-1)
    base = np.arange(0, rows * stride, stride)
    tops = np.zeros((_PER_DAY_QUOTA, rows), dtype=np.intp)
    valid = np.zeros((_PER_DAY_QUOTA, rows), dtype=bool)
    for q in range(_PER_DAY_QUOTA):
        top = masked.argmax(axis=1)
        k = base + top
        ok = flat[k] != -np.inf
        if not ok.any():
            break
        tops[q] = top
        valid[q] = ok
        suppress[k] = -np.inf
    picks = half + width - 1 - tops
    picks[~valid] = 0
    return picks.T, valid.T


def _windows(buffer: np.ndarray, size: int) -> np.ndarray:
    """A writeable view of every ``size``-long window of a 1-d ``buffer``."""
    step = buffer.strides[0]
    return as_strided(buffer, (buffer.size - size + 1, size), (step, step), writeable=True)


def _unheaped(size: int) -> np.ndarray:
    """``size`` uninitialised floats in a private anonymous memory map.

    The map is outside the allocator's heap and goes back to the system
    as soon as the array dies, so a tile's energy maps (most of its
    memory) leave no hole in the heap for later allocations to fall into.
    """
    return np.frombuffer(
        mmap.mmap(-1, 8 * size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    )


#: One accepted run's footprint: household, changed hull ``[lo, hi)`` and,
#: when the hull spans minutes the run left alone, the ``(firsts, lasts)``
#: bounds of the runs of changed minutes in it.
_Change = tuple[int, int, int, "tuple[np.ndarray, np.ndarray] | None"]


class _Lockstep:
    """The greedy pursuit of equal-length households, run side by side.

    State per tile: the residual matrix, one day-padded energy map per
    appliance (``-inf`` past the last offset), and a candidate cache of
    each (household, appliance, day) cell's best placement, refreshed only
    when a subtraction touched offsets that could change it.  Per-day
    non-max suppression, score windows and same-appliance overlap
    exclusion are all local to the patched region, so the cache is exact.
    Cells a static bound proves can never reach their appliance's energy
    floor (see :meth:`_live_cells`) are never refreshed, so their map
    entries are never computed: a household none of whose days can host an
    appliance gets no map for it, and no patch touches a dead day.
    """

    def __init__(
        self, series: list[TimeSeries], database: ApplianceDatabase, config: MatchingConfig
    ) -> None:
        self.series = series
        self.config = config
        self.specs: list[ApplianceSpec] = list(database)
        self.templates: list[ApplianceTemplate] = database.templates()
        self.lengths = np.array([t.length for t in self.templates], dtype=np.intp)
        self.residual = np.stack([s.values for s in series]).astype(float, copy=False)
        households, n = self.residual.shape
        self.n = n
        self.n_days = -(-n // _MINUTES_PER_DAY)
        self.width = width = self.n_days * _MINUTES_PER_DAY
        self.bounds = [
            (
                spec.energy_min_kwh * (1.0 - config.energy_slack),
                spec.energy_max_kwh * (1.0 + config.energy_slack),
            )
            for spec in self.specs
        ]
        self.live = self._live_cells()
        self.live_pairs = self.live.any(axis=2)
        self.buffers, self.days, self.maps = self._initial_maps(width)
        self.windows = [
            None if energies is None else sliding_window_view(self.residual, t.length, axis=1)
            for energies, t in zip(self.maps, self.templates)
        ]
        # Offsets no run of the same appliance may start at (a machine
        # cannot run two cycles concurrently), and map entries computed by
        # direct correlation (the rest hold their initial FFT values).
        flags = (households, len(self.templates), width)
        self.blocked = np.zeros(flags, dtype=bool)
        self.direct = np.zeros(flags, dtype=bool)
        cells = (households, len(self.templates), self.n_days)
        self.score = np.full(cells, -np.inf)
        self.start = np.zeros(cells, dtype=np.intp)
        self.energy = np.zeros(cells)
        self.dirty = self.live.copy()
        # Live cells that may still hold FFT values.
        self.fresh = self.live.copy()

    def _initial_maps(
        self, width: int
    ) -> tuple[list[np.ndarray | None], list[np.ndarray | None], list[np.ndarray | None]]:
        """Per-offset energy maps of every template, off one FFT of the tile.

        The residual matrix is transformed once; each template contributes
        a cached frequency-domain multiply plus one inverse transform per
        block of consecutive households with a live day for it (the other
        rows are left unset: nothing reads them).  The transform writes a
        row of the template's buffer, whose valid span (offsets
        ``m − 1 … n − 1`` of the full correlation) *is* the day-padded map,
        scaled in place: no second copy exists.  Buffer rows are a whole
        number of days long, so the same memory read from ``m − 1`` on is
        one contiguous ``(households · days per row, minutes)`` array of
        map days, which a refresh gathers from.

        Returns ``(buffers, days, maps)``, ``None`` for a template longer
        than the series.
        """
        households, n = self.residual.shape
        longest = max((m for m in self.lengths.tolist() if m <= n), default=0)
        if not longest:
            unset: list[np.ndarray | None] = [None] * len(self.templates)
            return unset, list(unset), list(unset)
        nfft = next_fast_len(n + longest - 1)
        spectrum = np.fft.rfft(self.residual, nfft, axis=1)
        buffers: list[np.ndarray | None] = []
        days: list[np.ndarray | None] = []
        maps: list[np.ndarray | None] = []
        for index, template in enumerate(self.templates):
            m = template.length
            if m > n:
                buffers.append(None)
                days.append(None)
                maps.append(None)
                continue
            row = -(-max(nfft, m - 1 + width) // _MINUTES_PER_DAY) * _MINUTES_PER_DAY
            memory = _unheaped(households * row + m - 1)
            buffer = memory[: households * row].reshape(households, row)
            energies = buffer[:, m - 1 : m - 1 + width]
            live = self.live_pairs[:, index]
            edges = np.flatnonzero(np.diff(live, prepend=False, append=False))
            for first, stop in zip(edges[::2].tolist(), edges[1::2].tolist()):
                np.fft.irfft(
                    spectrum[first:stop] * template.rfft_reversed(nfft),
                    nfft,
                    axis=1,
                    out=buffer[first:stop, :nfft],
                )
                valid = energies[first:stop, : n - m + 1]
                np.divide(valid, template.denom, out=valid)
                energies[first:stop, n - m + 1 :] = -np.inf
            buffers.append(buffer)
            days.append(memory[m - 1 :].reshape(-1, _MINUTES_PER_DAY))
            maps.append(energies)
        return buffers, days, maps

    def _live_cells(self) -> np.ndarray:
        """The (household, appliance, day) cells whose fitted energy can
        ever reach the appliance's floor ``lo``.

        Shapes are non-negative, so an offset's map value
        ``<r[τ:τ+m], s> / denom`` is at most ``(peak / denom) · Σ max(r, 0)``
        over its window.  Accepting a run never raises ``max(r, 0)``: it
        subtracts ``shape · energy`` with ``energy ≥ lo ≥ 0``, and its clamp
        raises minutes only to the non-positive floor ``−peak · energy``.
        So the bound taken off the tile's initial residual holds for every
        later map value, FFT or direct, and a cell none of whose offsets
        reaches ``lo`` keeps the ``-inf`` score a refresh would give it.

        ``tol`` absorbs round-off.  Let ``u`` be the unit round-off and
        ``S = (peak / denom) · Σ |r|`` per household (``peak / denom ≥ 1``
        as the shape sums to one).  The cumulative sum's window differences
        err by ``~2n·u·S``, a direct correlation by ``~m·u·S`` and an FFT
        value by ``~log2(nfft)·√m·u·S``.  Below ``n = 10⁵`` minutes each is
        under ``10⁻¹⁰ · S``; ``tol = 10⁻⁶ · S`` keeps four orders of headroom
        (``Σ |r|`` grows a little as clamps deepen negative minutes) and is
        still under a thousandth of a kWh on a household-week.  A ``lo`` of
        0 (``energy_slack = 1``) leaves every day that has an offset live.
        """
        households, n = self.residual.shape
        live = np.zeros((households, len(self.specs), self.n_days), dtype=bool)
        cumulative = np.zeros((households, n + 1))
        np.cumsum(np.maximum(self.residual, 0.0), axis=1, out=cumulative[:, 1:])
        magnitude = np.abs(self.residual).sum(axis=1)
        for index, template in enumerate(self.templates):
            m = template.length
            if m > n:
                continue
            scale = template.peak / template.denom
            window_mass = cumulative[:, m:] - cumulative[:, : n - m + 1]
            day_starts = np.arange(0, n - m + 1, _MINUTES_PER_DAY)
            day_bound = scale * np.maximum.reduceat(window_mass, day_starts, axis=1)
            tol = 1e-6 * scale * magnitude[:, None]
            live[:, index, : day_starts.size] = day_bound >= self.bounds[index][0] - tol
        return live

    def _refresh(self, index: int, households: np.ndarray, days: np.ndarray) -> None:
        """Recompute the cached best placement of appliance ``index`` in the
        given (household, day) cells."""
        template = self.templates[index]
        m = template.length
        lo, hi = self.bounds[index]
        days_per_row = self.buffers[index].shape[1] // _MINUTES_PER_DAY
        block = np.take(self.days[index], households * days_per_row + days, axis=0)
        feasible = block >= lo
        feasible &= block <= hi
        some = feasible.any(axis=1)
        if not some.all():
            self.score[households[~some], index, days[~some]] = -np.inf
            households, days = households[some], days[some]
            block, feasible = block[some], feasible[some]
        if not households.size:
            return
        picks, valid = _nms_picks(block, feasible, m)
        starts = days[:, None] * _MINUTES_PER_DAY + picks
        pairs = (households * len(self.templates) + index)[:, None]
        valid &= ~self.blocked.reshape(-1)[pairs * self.width + starts]
        rows = np.arange(len(households))
        picked = block.reshape(-1)[rows[:, None] * _MINUTES_PER_DAY + picks]
        clamped = np.clip(picked, lo, hi)
        scores = np.full(picks.shape, -np.inf)
        cell, pick = np.nonzero(valid)
        if cell.size:
            scores[cell, pick] = _placement_scores(
                self.windows[index][households[cell], starts[cell, pick]],
                template.shape,
                clamped[cell, pick],
            )
        best = scores.argmax(axis=1)
        self.score[households, index, days] = scores[rows, best]
        self.start[households, index, days] = starts[rows, best]
        self.energy[households, index, days] = clamped[rows, best]

    def _accept(self, household: int, index: int, t: int, energy: float) -> _Change:
        """Subtract one accepted run and describe what it changed."""
        spec = self.specs[index]
        m = spec.cycle_minutes
        residual = self.residual[household]
        residual[t : t + m] -= spec.shape * energy
        # Allow small negative residual (estimation error) but keep mass sane.
        floor = -(self.templates[index].peak * energy)
        below = residual < floor
        changed_lo, changed_hi = t, t + m
        changed_runs = None
        if below.any():
            below_idx = np.flatnonzero(below)
            residual[below_idx] = floor
            changed_lo = min(changed_lo, int(below_idx[0]))
            changed_hi = max(changed_hi, int(below_idx[-1]) + 1)
            if (changed_lo, changed_hi) != (t, t + m):
                # Clamped minutes outside the run: keep the runs of changed
                # minutes, for the patch to skip offsets none of them reach.
                breaks = np.flatnonzero(np.diff(below_idx) > 1)
                changed_runs = (
                    np.concatenate(([t], below_idx[np.concatenate(([0], breaks + 1))])),
                    np.concatenate(([t + m], below_idx[np.concatenate((breaks, [-1]))] + 1)),
                )
        self.blocked[household, index, max(0, t - m + 1) : t + m] = True
        return household, changed_lo, changed_hi, changed_runs

    def _patch_runs(self, changes: list[_Change]) -> tuple[np.ndarray, ...]:
        """The map entries a round's changes make stale, as offset runs.

        A change at ``[changed_lo, changed_hi)`` perturbs a template's map at
        offsets ``[changed_lo − m + 1, changed_hi)``; the live days covering
        them are flagged for a candidate refresh.  An entry in that range
        must be recomputed when a changed minute lies in its window, or
        when it still holds its FFT value (the reference semantics
        re-correlate the whole patch range directly; an entry already
        computed by direct correlation over an unchanged window would come
        out the same bits).  Only a change whose hull reaches past its run
        can leave FFT values in range, and only in days it has not yet
        patched whole (``fresh``).  Runs less than a cycle apart are merged
        (correlating the gap costs no more than the outputs a run boundary
        wastes), then cut to the live days: dead-day entries are never read.
        Every step runs over all (change, template) pairs at once.

        Returns ``(template, household, first, last)`` per run, sorted by
        template.
        """
        n = self.n
        count, m = len(changes), self.lengths
        households = np.array([change[0] for change in changes], dtype=np.intp)
        hull_lo = np.array([change[1] for change in changes], dtype=np.intp)
        hull_hi = np.array([change[2] for change in changes], dtype=np.intp)
        live = self.live[households]
        patch_lo = np.maximum(hull_lo[:, None] - m + 1, 0)
        patch_hi = np.minimum(hull_hi[:, None], n - m + 1)
        day = np.arange(self.n_days)
        reached = (day >= (patch_lo // _MINUTES_PER_DAY)[:, :, None]) & (
            day <= ((np.minimum(hull_hi, n) - 1) // _MINUTES_PER_DAY)[:, None, None]
        )
        self.dirty[households] |= reached & live

        # A run is keyed by (template, change, offset) in one integer; keys
        # of two pairs lie further apart than any merge reaches.
        span = self.n_days * _MINUTES_PER_DAY + int(m.max()) + 1
        pair = np.arange(len(m)) * count + np.arange(count)[:, None]
        clamped = np.array([change[3] is not None for change in changes])
        owners = [np.flatnonzero(~clamped)]
        firsts, lasts = [hull_lo[~clamped]], [hull_hi[~clamped]]
        starts: list[np.ndarray] = []
        stops: list[np.ndarray] = []
        for change in np.flatnonzero(clamped).tolist():
            run_firsts, run_lasts = changes[change][3]
            owners.append(np.full(run_firsts.size, change))
            firsts.append(run_firsts)
            lasts.append(run_lasts)
            # Entries still holding FFT values in the patch range.
            lo, hi = patch_lo[change], patch_hi[change]
            fresh = self.fresh[households[change]]
            rows, days = np.nonzero(
                fresh
                & (day >= (lo // _MINUTES_PER_DAY)[:, None])
                & (day * _MINUTES_PER_DAY < hi[:, None])
            )
            if rows.size:
                # Runs of FFT values in each (template, day) cell, clipped
                # to the template's patch range.
                padded = np.ones((rows.size, _MINUTES_PER_DAY + 2), dtype=bool)
                padded[:, 1:-1] = self.direct[households[change]].reshape(
                    len(m), self.n_days, -1
                )[rows, days]
                edges = np.flatnonzero(padded[:, 1:] != padded[:, :-1])
                cell, column = np.divmod(edges, _MINUTES_PER_DAY + 1)
                cell, day_start = cell[::2], days[cell[::2]] * _MINUTES_PER_DAY
                stale_first = np.maximum(day_start + column[::2], lo[rows[cell]])
                stale_stop = np.minimum(day_start + column[1::2], hi[rows[cell]])
                keys = pair[change, rows[cell]] * span
                inside = stale_first < stale_stop
                starts.append((keys + stale_first)[inside])
                stops.append((keys + stale_stop)[inside])
            # Days the patch covers whole keep no FFT value.
            fresh &= (day * _MINUTES_PER_DAY < lo[:, None]) | (
                np.minimum((day + 1) * _MINUTES_PER_DAY, (n - m + 1)[:, None]) > hi[:, None]
            )
        owner = np.concatenate(owners)
        window_lo = np.maximum(np.concatenate(firsts)[:, None] - m + 1, 0)
        window_hi = np.minimum(np.concatenate(lasts)[:, None], n - m + 1)
        keep = (window_lo < window_hi) & self.live_pairs[households[owner]]
        keys = pair[owner] * span
        starts.append((keys + window_lo)[keep])
        stops.append((keys + window_hi)[keep])
        start, stop = np.concatenate(starts), np.concatenate(stops)
        if not start.size:
            return (start,) * 4
        order = np.argsort(start, kind="stable")
        start, stop = start[order], np.maximum.accumulate(stop[order])
        split = np.flatnonzero(start[1:] - stop[:-1] >= m[start[1:] // span // count])
        start = start[np.concatenate(([0], split + 1))]
        stop = stop[np.concatenate((split, [-1]))]

        # Cut the runs to their live days.
        pairs, first = np.divmod(start, span)
        stop = stop - pairs * span
        template, change = np.divmod(pairs, count)
        first_day = first // _MINUTES_PER_DAY
        days = (stop - 1) // _MINUTES_PER_DAY - first_day + 1
        piece = np.repeat(np.arange(first.size), days)
        piece_day = np.arange(piece.size) - np.repeat(np.cumsum(days) - days, days)
        piece_day += first_day[piece]
        alive = live[change[piece], template[piece], piece_day]
        piece, piece_day = piece[alive], piece_day[alive]
        piece_first = np.maximum(first[piece], piece_day * _MINUTES_PER_DAY)
        piece_stop = np.minimum(stop[piece], (piece_day + 1) * _MINUTES_PER_DAY)
        joined = (piece[1:] == piece[:-1]) & (piece_first[1:] == piece_stop[:-1])
        opens = np.flatnonzero(np.concatenate(([True], ~joined)))
        closes = np.flatnonzero(np.concatenate((~joined, [True])))
        piece = piece[opens]
        return (
            template[piece],
            households[change[piece]],
            piece_first[opens],
            piece_stop[closes],
        )

    def _patch(self, changes: list[_Change]) -> None:
        """Refresh the energy maps where the residual changed.

        The runs of :meth:`_patch_runs` are re-correlated per template, for
        every changed household in one exact direct correlation over their
        concatenated segments (outputs straddling two segments are
        dropped), and marked direct.  Positions are flat, into the
        contiguous residual, map and flag arrays.
        """
        if not changes:
            return
        template, households, firsts, lasts = self._patch_runs(changes)
        residual = self.residual.reshape(-1)
        direct = self.direct.reshape(-1)
        bounds = np.flatnonzero(np.diff(template, prepend=-1, append=-1)).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            index = int(template[lo])
            template_ = self.templates[index]
            m = template_.length
            buffer = self.buffers[index]
            energies = buffer.reshape(-1)
            rows, first = households[lo:hi], firsts[lo:hi]
            sizes = (lasts[lo:hi] - first).tolist()
            sources = (rows * self.n + first).tolist()
            segments = [residual[s : s + size + m - 1] for s, size in zip(sources, sizes)]
            corr = np.correlate(np.concatenate(segments), template_.shape, mode="valid")
            corr /= template_.denom
            targets = (rows * buffer.shape[1] + (m - 1) + first).tolist()
            flags = ((rows * len(self.templates) + index) * self.width + first).tolist()
            offset = 0
            for target, flag, size in zip(targets, flags, sizes):
                energies[target : target + size] = corr[offset : offset + size]
                direct[flag : flag + size] = True
                offset += size + m - 1

    def run(self, household_ids: list[str]) -> list[DetectionResult]:
        config = self.config
        households = len(self.series)
        positive = np.empty(self.n)
        detections: list[list[Activation]] = [[] for _ in range(households)]
        explained = [0.0] * households
        accepted = [0] * households
        alive = np.arange(households)
        while alive.size:
            for index, energies in enumerate(self.maps):
                if energies is None:
                    continue
                rows, days = np.nonzero(self.dirty[alive, index])
                if rows.size:
                    cells = alive[rows]
                    self._refresh(index, cells, days)
                    self.dirty[cells, index, days] = False
            scores = self.score[alive].reshape(alive.size, -1)
            flat = scores.argmax(axis=1)
            best = scores[np.arange(alive.size), flat]
            survivors: list[int] = []
            changes: list[_Change] = []
            for household, cell, score in zip(alive.tolist(), flat.tolist(), best.tolist()):
                if score == -np.inf or score < config.min_score:
                    continue
                index, day = divmod(cell, self.n_days)
                t = int(self.start[household, index, day])
                energy = float(self.energy[household, index, day])
                change = self._accept(household, index, t, energy)
                spec = self.specs[index]
                detections[household].append(
                    Activation(
                        appliance=spec.name,
                        start=self.series[household].axis.time_at(t),
                        energy_kwh=energy,
                        duration=spec.cycle_duration,
                        flexible=spec.flexible,
                        household_id=household_ids[household],
                    )
                )
                explained[household] += energy
                accepted[household] += 1
                if accepted[household] == config.max_iterations:
                    continue
                mass = float(np.maximum(self.residual[household], 0.0, out=positive).sum())
                if mass < config.residual_floor_kwh:
                    continue
                survivors.append(household)
                changes.append(change)
            self._patch(changes)
            alive = np.asarray(survivors, dtype=np.intp)

        results: list[DetectionResult] = []
        for household, series in enumerate(self.series):
            detections[household].sort(key=lambda a: a.start)
            residual = np.maximum(self.residual[household], 0.0)
            results.append(
                DetectionResult(
                    detections=detections[household],
                    residual=series.with_values(residual).with_name("residual"),
                    explained_kwh=explained[household],
                )
            )
        return results


# ---------------------------------------------------------------------- #
# Reference engine (original per-call implementation; benchmark baseline)
# ---------------------------------------------------------------------- #


def _best_placement(
    residual: np.ndarray,
    spec: ApplianceSpec,
    config: MatchingConfig,
    accepted: list[int],
) -> tuple[float, int, float] | None:
    """Best (score, start, energy) placement of one appliance, or ``None``.

    Placements overlapping an already-accepted run of the *same* appliance
    are skipped — one machine cannot run two cycles concurrently.
    """
    shape = spec.shape
    m = len(shape)
    energies = _correlation_scores(residual, shape)
    if energies.size == 0:
        return None
    lo = spec.energy_min_kwh * (1.0 - config.energy_slack)
    hi = spec.energy_max_kwh * (1.0 + config.energy_slack)
    feasible = np.flatnonzero((energies >= lo) & (energies <= hi))
    if feasible.size == 0:
        return None
    # Candidate selection with a per-day quota: within each day, keep the
    # top few feasible offsets by fitted energy, spaced at least half a
    # cycle apart (non-max suppression).  The quota guarantees every day's
    # local events stay in the running even when other days carry much
    # larger loads — a global top-K would crowd them out.
    spread: list[int] = []
    day_of = feasible // _MINUTES_PER_DAY
    for day in np.unique(day_of):
        day_idx = feasible[day_of == day]
        order = day_idx[np.argsort(energies[day_idx])[::-1]]
        kept: list[int] = []
        for t in order:
            t = int(t)
            if all(abs(t - u) >= m // 2 for u in kept):
                kept.append(t)
            if len(kept) >= _PER_DAY_QUOTA:
                break
        spread.extend(kept)
    best: tuple[float, int, float] | None = None
    for t in spread:
        if any(abs(t - prev) < m for prev in accepted):
            continue
        energy = float(np.clip(energies[t], lo, hi))
        score = _placement_score(residual[t : t + m], shape, energy)
        if best is None or score > best[0]:
            best = (score, t, energy)
    return best


def _match_pursuit_reference(
    series: TimeSeries,
    database: ApplianceDatabase,
    config: MatchingConfig,
    household_id: str,
) -> DetectionResult:
    residual = series.values.copy()
    detections: list[Activation] = []
    accepted_starts: dict[str, list[int]] = {}
    explained = 0.0

    specs = list(database)
    for _ in range(config.max_iterations):
        best: tuple[float, ApplianceSpec, int, float] | None = None
        for spec in specs:
            candidate = _best_placement(
                residual, spec, config, accepted_starts.get(spec.name, [])
            )
            if candidate is None:
                continue
            score, t, energy = candidate
            if score < config.min_score:
                continue
            if best is None or score > best[0]:
                best = (score, spec, t, energy)
        if best is None:
            break
        _, spec, t, energy = best
        m = spec.cycle_minutes
        template = spec.shape * energy
        residual[t : t + m] -= template
        # Allow small negative residual (estimation error) but keep mass sane.
        np.clip(residual, -template.max(), None, out=residual)
        accepted_starts.setdefault(spec.name, []).append(t)
        detections.append(
            Activation(
                appliance=spec.name,
                start=series.axis.time_at(t),
                energy_kwh=energy,
                duration=spec.cycle_duration,
                flexible=spec.flexible,
                household_id=household_id,
            )
        )
        explained += energy
        if float(np.clip(residual, 0.0, None).sum()) < config.residual_floor_kwh:
            break

    detections.sort(key=lambda a: a.start)
    return DetectionResult(
        detections=detections,
        residual=series.with_values(np.clip(residual, 0.0, None)).with_name("residual"),
        explained_kwh=explained,
    )
