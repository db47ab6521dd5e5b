"""Combinatorial disaggregation: per-day subset selection over candidates.

Where matching pursuit commits greedily to one template at a time, the
combinatorial disaggregator first enumerates *candidate* placements (appliance
× start offset with a plausible least-squares energy), then searches, day by
day, for the **subset** of candidates that minimises the residual sum of
squares — the classic combinatorial-optimisation formulation of NILM, made
tractable by bounding candidates per day and using depth-first branch and
bound with an admissible "no further improvement" cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.appliances.database import ApplianceDatabase
from repro.disaggregation.matching import (
    DetectionResult,
    _check_energy_slack,
    _correlation_scores,
)
from repro.errors import DataError
from repro.simulation.activations import Activation
from repro.timeseries.axis import ONE_MINUTE
from repro.timeseries.series import TimeSeries


@dataclass(frozen=True, slots=True)
class CombinatorialConfig:
    """Knobs for the combinatorial search.

    ``max_candidates_per_day`` bounds the search space; ``max_subset_size``
    bounds subset cardinality per day (households rarely run more than a
    handful of cycles per appliance per day).
    """

    max_candidates_per_day: int = 14
    max_subset_size: int = 6
    energy_slack: float = 0.15
    min_peak_separation_minutes: int = 20

    def __post_init__(self) -> None:
        if self.max_candidates_per_day < 1:
            raise DataError("max_candidates_per_day must be >= 1")
        if self.max_subset_size < 1:
            raise DataError("max_subset_size must be >= 1")
        _check_energy_slack(self.energy_slack)


@dataclass(frozen=True, slots=True)
class _Candidate:
    appliance_index: int
    start: int            # minute offset within the day window
    energy: float
    gain: float           # SSE reduction when applied alone


def _day_candidates(
    day_values: np.ndarray,
    database: ApplianceDatabase,
    config: CombinatorialConfig,
) -> list[_Candidate]:
    """Enumerate plausible template placements for one day of residual."""
    candidates: list[_Candidate] = []
    for idx, spec in enumerate(database):
        shape = spec.shape
        m = len(shape)
        if m > len(day_values):
            continue
        # The <shape, shape> denominator comes from the database's cached
        # template bank instead of being recomputed per day per appliance.
        energies = _correlation_scores(day_values, shape, database.template(spec.name).denom)
        lo = spec.energy_min_kwh * (1.0 - config.energy_slack)
        hi = spec.energy_max_kwh * (1.0 + config.energy_slack)
        feasible = np.flatnonzero((energies >= lo) & (energies <= hi))
        if feasible.size == 0:
            continue
        # Local non-max suppression: keep locally-best starts only.
        order = feasible[np.argsort(energies[feasible])[::-1]]
        kept: list[int] = []
        for t in order:
            if all(abs(t - u) >= config.min_peak_separation_minutes for u in kept):
                kept.append(int(t))
            if len(kept) >= 4:
                break
        for t in kept:
            energy = float(np.clip(energies[t], lo, hi))
            template = shape * energy
            window = day_values[t : t + m]
            gain = float(np.sum(window**2) - np.sum((window - template) ** 2))
            if gain > 0:
                candidates.append(_Candidate(idx, t, energy, gain))
    candidates.sort(key=lambda c: c.gain, reverse=True)
    return candidates[: config.max_candidates_per_day]


def _subset_sse(
    day_values: np.ndarray, subset: tuple[_Candidate, ...], database_specs: list
) -> float:
    residual = day_values.copy()
    for cand in subset:
        spec = database_specs[cand.appliance_index]
        m = spec.cycle_minutes
        residual[cand.start : cand.start + m] -= spec.shape * cand.energy
    return float(np.sum(residual**2))


def disaggregate_combinatorial(
    series: TimeSeries,
    database: ApplianceDatabase,
    config: CombinatorialConfig | None = None,
    household_id: str = "",
) -> DetectionResult:
    """Disaggregate a 1-minute series by per-day subset optimisation.

    For every day window the candidate set is enumerated, then all subsets up
    to ``max_subset_size`` are evaluated in gain order with an early cut:
    adding a candidate can reduce the SSE by at most its standalone gain, so
    branches whose optimistic bound cannot beat the incumbent are skipped.
    """
    if series.axis.resolution != ONE_MINUTE:
        raise DataError("disaggregate_combinatorial expects a 1-minute series")
    config = config or CombinatorialConfig()
    specs = list(database)
    detections: list[Activation] = []
    residual_values = series.values.copy()

    for first, length in series.axis.day_slices():
        day_values = residual_values[first : first + length].copy()
        candidates = _day_candidates(day_values, database, config)
        if not candidates:
            continue
        base_sse = float(np.sum(day_values**2))
        best_sse = base_sse
        best_subset: tuple[_Candidate, ...] = ()
        max_k = min(config.max_subset_size, len(candidates))
        # Exhaustive in gain order with optimistic-bound pruning.
        for k in range(1, max_k + 1):
            for subset in combinations(candidates, k):
                optimistic = base_sse - sum(c.gain for c in subset)
                if optimistic >= best_sse:
                    continue
                # Reject subsets with overlapping same-appliance placements.
                if _has_conflict(subset, specs, config):
                    continue
                sse = _subset_sse(day_values, subset, specs)
                if sse < best_sse:
                    best_sse = sse
                    best_subset = subset
        for cand in best_subset:
            spec = specs[cand.appliance_index]
            start_index = first + cand.start
            detections.append(
                Activation(
                    appliance=spec.name,
                    start=series.axis.time_at(start_index),
                    energy_kwh=cand.energy,
                    duration=spec.cycle_duration,
                    flexible=spec.flexible,
                    household_id=household_id,
                )
            )
            m = spec.cycle_minutes
            residual_values[start_index : start_index + m] -= spec.shape * cand.energy

    detections.sort(key=lambda a: a.start)
    residual = series.with_values(np.clip(residual_values, 0.0, None)).with_name("residual")
    explained = float(sum(d.energy_kwh for d in detections))
    return DetectionResult(detections=detections, residual=residual, explained_kwh=explained)


def _has_conflict(
    subset: tuple[_Candidate, ...], specs: list, config: CombinatorialConfig
) -> bool:
    """True when two candidates of the same appliance overlap in time."""
    for a, b in combinations(subset, 2):
        if a.appliance_index != b.appliance_index:
            continue
        m = specs[a.appliance_index].cycle_minutes
        if abs(a.start - b.start) < m:
            return True
    return False
