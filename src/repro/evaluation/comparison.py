"""Head-to-head comparison of all extraction approaches on one dataset.

Operationalises the paper's qualitative ranking (§6: appliance-level >
household-level > random, with the multi-tariff approach "very realistic"
but data-hungry) into a reproducible table: run every approach on the same
simulated households and collect the §3.1 realism statistics against ground
truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ``input_series_for`` is re-exported: the fleet pipeline, the session
# modules and perfbench pick a trace's series through this module.
from repro.api.registry import create_extractor, input_series_for
from repro.evaluation.realism import RealismReport, realism_report
from repro.extraction.base import FlexibilityExtractor
from repro.flexoffer.model import FlexOffer
from repro.simulation.household import HouseholdTrace

#: Seed stride between households; shared with repro.pipeline so batched
#: runs reproduce this harness's per-household rng streams exactly.
SEED_STRIDE = 7919

#: Registry names of the default comparison suite, in report order.
DEFAULT_SUITE: tuple[str, ...] = (
    "random-baseline",
    "basic",
    "peak-based",
    "frequency-based",
    "schedule-based",
)


def default_suite(flexible_share: float = 0.05) -> list[FlexibilityExtractor]:
    """The comparison suite: both household approaches, both appliance
    approaches, and the random baseline, resolved via the registry.  (The
    multi-tariff approach needs paired tariff data and is evaluated
    separately — see the multitariff bench.)"""
    extractors: list[FlexibilityExtractor] = [create_extractor("random-baseline")]
    extractors.extend(
        create_extractor(name, flexible_share=flexible_share)
        for name in DEFAULT_SUITE[1:]
    )
    return extractors


@dataclass(frozen=True)
class ComparisonResult:
    """Per-extractor reports (one per household) plus averaged rows."""

    reports: dict[str, list[RealismReport]]

    def mean_rows(self) -> list[dict[str, float | str]]:
        """One averaged row per extractor, in suite order."""
        rows = []
        for name, reports in self.reports.items():
            if not reports:
                continue
            keys = [k for k in reports[0].row() if k != "extractor"]
            row: dict[str, float | str] = {"extractor": name}
            for key in keys:
                values = [float(r.row()[key]) for r in reports if key in r.row()]
                row[key] = round(float(np.mean(values)), 4) if values else float("nan")
            rows.append(row)
        return rows

    def get(self, extractor: str) -> list[RealismReport]:
        """All household reports of one extractor."""
        return self.reports[extractor]


def compare_on_traces(
    traces: list[HouseholdTrace],
    extractors: list[FlexibilityExtractor] | None = None,
    seed: int = 0,
) -> ComparisonResult:
    """Run every extractor on every trace and score against ground truth."""
    extractors = extractors if extractors is not None else default_suite()
    reports: dict[str, list[RealismReport]] = {e.name: [] for e in extractors}
    for trace_index, trace in enumerate(traces):
        consumption = trace.metered()
        truth = trace.true_flexible()
        for extractor in extractors:
            rng = np.random.default_rng(seed + SEED_STRIDE * trace_index)
            series = input_series_for(extractor, trace)
            result = extractor.extract(series, rng)
            reports[extractor.name].append(
                realism_report(result, consumption, truth)
            )
    return ComparisonResult(reports=reports)


def collect_offers(
    traces: list[HouseholdTrace],
    extractor: FlexibilityExtractor,
    seed: int = 0,
) -> list[FlexOffer]:
    """All offers an extractor produces over a fleet (for MIRABEL benches)."""
    offers: list[FlexOffer] = []
    for trace_index, trace in enumerate(traces):
        rng = np.random.default_rng(seed + SEED_STRIDE * trace_index)
        series = input_series_for(extractor, trace)
        offers.extend(extractor.extract(series, rng).offers)
    return offers
