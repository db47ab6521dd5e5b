"""The conformance runner: execute matrix cells, emit a structured report.

One *cell* is one (scenario × extractor) pair.  :func:`run_cell` executes
it — the batched :class:`~repro.pipeline.FleetPipeline` over the scenario's
cached fleet, plus the sequential reference rerun the equivalence invariant
needs — and :func:`check_cell` scores it against the invariant library.
:func:`run_conformance` does that for the whole (sub)matrix and returns a
:class:`ConformanceReport`: a versioned, JSON round-trippable record whose
shape is golden-pinned by the tier-2 suite, so both invariant regressions
*and* silent matrix shrinkage fail loudly.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.aggregation.aggregate import aggregate_all
from repro.aggregation.grouping import group_offers
from repro.api.registry import ExtractorEntry, create_extractor, input_series_for
from repro.conformance.invariants import (
    CellRun,
    InvariantResult,
    run_invariants,
    validate_invariant_names,
)
from repro.conformance.matrix import ConformanceScenario, matrix_cells
from repro.errors import DataError
from repro.evaluation.comparison import SEED_STRIDE
from repro.flexoffer.model import offer_id_scope
from repro.pipeline.fleet import (
    FleetPipeline,
    FleetResult,
    HouseholdOutput,
    StageTimings,
    fleet_schedule_target,
    fleet_zoned_target,
    run_sequential,
    schedule_aggregates,
    stamp_household,
)
from repro.market.model import MarketConfig
from repro.scheduling.greedy import ScheduleConfig

#: Wire-format version of conformance reports; bump on incompatible change.
CONFORMANCE_VERSION = 1

#: Every cell runs the schedule stage with this configuration (greedy
#: placement only; the scheduling-feasibility invariant exercises the
#: stochastic improver separately on the greedy output).
CELL_SCHEDULE_CONFIG = ScheduleConfig()
#: ``priced``-tagged scenarios additionally clear a merit-order market
#: before placement (small coupling so the spill pass is a live code path).
CELL_PRICED_SCHEDULE_CONFIG = ScheduleConfig(
    market=MarketConfig(slices=6, coupling_kwh=2.0)
)


@dataclass(frozen=True)
class CellReport:
    """One cell's outcome: workload coordinates, output size, invariants."""

    scenario: str
    extractor: str
    households: int
    days: int
    offers: int
    aggregates: int
    extracted_kwh: float
    invariants: tuple[InvariantResult, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "invariants", tuple(self.invariants))

    @property
    def passed(self) -> bool:
        """True when no invariant failed (skips do not fail a cell)."""
        return all(result.status != "fail" for result in self.invariants)

    def violations(self) -> list[str]:
        """All violation messages, prefixed with the failing invariant."""
        return [
            f"{self.scenario} x {self.extractor} [{result.name}]: {message}"
            for result in self.invariants
            for message in result.violations
        ]

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "extractor": self.extractor,
            "households": self.households,
            "days": self.days,
            "offers": self.offers,
            "aggregates": self.aggregates,
            "extracted_kwh": round(self.extracted_kwh, 6),
            "invariants": [result.to_dict() for result in self.invariants],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellReport":
        try:
            return cls(
                scenario=data["scenario"],
                extractor=data["extractor"],
                households=data["households"],
                days=data["days"],
                offers=data["offers"],
                aggregates=data["aggregates"],
                extracted_kwh=data["extracted_kwh"],
                invariants=tuple(
                    InvariantResult.from_dict(r) for r in data["invariants"]
                ),
            )
        except KeyError as exc:
            raise DataError(f"cell report missing field: {exc}") from exc


@dataclass(frozen=True)
class ConformanceReport:
    """The whole matrix run, serialisable and golden-pinnable."""

    cells: tuple[CellReport, ...]
    version: int = CONFORMANCE_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))

    @property
    def passed(self) -> bool:
        return all(cell.passed for cell in self.cells)

    @property
    def failures(self) -> tuple[CellReport, ...]:
        return tuple(cell for cell in self.cells if not cell.passed)

    def violations(self) -> list[str]:
        return [message for cell in self.cells for message in cell.violations()]

    def shape(self) -> dict[str, dict[str, str]]:
        """The value-free structure of the run: cell → invariant → status.

        This is what the golden pin compares — statuses and matrix
        coverage, not floats — so it survives timing noise and numeric
        library drift while still catching dropped cells, new skips and
        invariant regressions.
        """
        return {
            f"{cell.scenario} x {cell.extractor}": {
                result.name: result.status for result in cell.invariants
            }
            for cell in self.cells
        }

    def summary(self) -> dict[str, int]:
        return {
            "cells": len(self.cells),
            "passed": sum(1 for cell in self.cells if cell.passed),
            "failed": len(self.failures),
            "violations": len(self.violations()),
        }

    def table_rows(self) -> list[dict[str, Any]]:
        """One human-readable row per cell (CLI output)."""
        rows: list[dict[str, Any]] = []
        for cell in self.cells:
            skipped = sum(1 for r in cell.invariants if r.status == "skipped")
            failed = [r.name for r in cell.invariants if r.status == "fail"]
            rows.append(
                {
                    "scenario": cell.scenario,
                    "extractor": cell.extractor,
                    "offers": cell.offers,
                    "aggregates": cell.aggregates,
                    "kwh": round(cell.extracted_kwh, 2),
                    "status": "FAIL: " + ", ".join(failed) if failed else "ok",
                    "skipped": skipped,
                }
            )
        return rows

    # ------------------------------------------------------------------ #
    # Wire format
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "summary": self.summary(),
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ConformanceReport":
        if "version" not in data:
            raise DataError("conformance report missing field: 'version'")
        version = data["version"]
        if version != CONFORMANCE_VERSION:
            raise DataError(f"unsupported conformance report version {version}")
        try:
            return cls(
                cells=tuple(CellReport.from_dict(c) for c in data["cells"]),
                version=version,
            )
        except KeyError as exc:
            raise DataError(f"conformance report missing field: {exc}") from exc

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ConformanceReport":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ConformanceReport":
        return cls.from_json(Path(path).read_text())

    def to_markdown(self) -> str:
        """The report as a GitHub-flavoured markdown table (CI job summary)."""
        summary = self.summary()
        headline = "✅ conformance passed" if self.passed else "❌ conformance FAILED"
        lines = [
            "## Conformance matrix",
            "",
            f"{headline} — {summary['cells']} cells, "
            f"{summary['passed']} passed, {summary['failed']} failed, "
            f"{summary['violations']} violations",
            "",
            "| scenario | extractor | offers | aggregates | kWh | status |",
            "|---|---|---:|---:|---:|---|",
        ]
        for row in self.table_rows():
            status = row["status"]
            if row["skipped"]:
                status += f" ({row['skipped']} skipped)"
            lines.append(
                f"| {row['scenario']} | {row['extractor']} | {row['offers']} "
                f"| {row['aggregates']} | {row['kwh']} | {status} |"
            )
        violations = self.violations()
        if violations:
            lines += ["", "### Violations", ""]
            lines += [f"- `{message}`" for message in violations]
        return "\n".join(lines) + "\n"

    def save_markdown(self, path: str | Path) -> None:
        Path(path).write_text(self.to_markdown())


# ---------------------------------------------------------------------- #
# Cell execution
# ---------------------------------------------------------------------- #


def cell_schedule_target(scenario: ConformanceScenario, fleet):
    """The deterministic schedule-stage target of a scenario's cells.

    ``zoned``-tagged scenarios get a three-zone
    :class:`~repro.scheduling.zones.ZonedTarget` (explicit household
    assignment for half the fleet, hash shard for the rest); every other
    scenario keeps the single wind-surplus target.
    """
    if "zoned" in scenario.tags:
        return fleet_zoned_target(fleet, seed=scenario.seed + 1, zones=3)
    return fleet_schedule_target(fleet, seed=scenario.seed + 1)


def cell_schedule_config(scenario: ConformanceScenario) -> ScheduleConfig:
    """The schedule-stage configuration of a scenario's cells."""
    if "priced" in scenario.tags:
        return CELL_PRICED_SCHEDULE_CONFIG
    return CELL_SCHEDULE_CONFIG


def _run_per_household(
    scenario: ConformanceScenario, entry: ExtractorEntry, fleet, target
) -> FleetResult:
    """Sequential run with a household-specific extractor per trace.

    Mirrors the pipeline's determinism contract — per-household rng
    streams, per-household id scopes, a ``fleet`` scope for aggregation —
    so the invariants apply unchanged even though no single extractor can
    serve the whole fleet (the multi-tariff approach's per-consumer
    reference series).
    """
    per_household = scenario.per_household_params[entry.name]
    base = scenario.params_for(entry.name)
    outputs: list[HouseholdOutput] = []
    for index, trace in enumerate(fleet.traces):
        extractor = create_extractor(
            entry.name, **{**base, **dict(per_household(index))}
        )
        rng = np.random.default_rng(scenario.seed + SEED_STRIDE * index)
        series = input_series_for(extractor, trace)
        with offer_id_scope(f"h{index}"):
            result = extractor.extract(series, rng)
        outputs.append(
            HouseholdOutput(
                index=index,
                household_id=trace.config.household_id,
                offers=stamp_household(result.offers, trace.config.household_id),
                summary=result.summary(),
            )
        )
    offers = [offer for output in outputs for offer in output.offers]
    groups = group_offers(offers, None)
    with offer_id_scope("fleet"):
        aggregates = aggregate_all(groups)
    return FleetResult(
        households=tuple(outputs),
        aggregates=tuple(aggregates),
        timings=StageTimings(),
        schedule=schedule_aggregates(
            aggregates, target, cell_schedule_config(scenario)
        ),
    )


def run_cell(
    scenario: ConformanceScenario,
    entry: ExtractorEntry,
    invariants: tuple[str, ...] | list[str] | None = None,
) -> CellRun:
    """Execute one matrix cell and capture everything the invariants need.

    ``invariants`` names the checks that will run on the cell (``None`` =
    the full library); the sequential reference rerun — which exists only
    to feed ``batched-equals-sequential`` — is skipped when that invariant
    is not selected, halving restricted runs.
    """
    fleet = scenario.build()
    target = cell_schedule_target(scenario, fleet)
    params = scenario.params_for(entry.name)
    needs_sequential = invariants is None or "batched-equals-sequential" in invariants

    if entry.name in scenario.per_household_params:
        per_household = scenario.per_household_params[entry.name]

        def make_extractor(**overrides: Any):
            return create_extractor(
                entry.name, **{**params, **dict(per_household(0)), **overrides}
            )

        result = _run_per_household(scenario, entry, fleet, target)
        sequential = None
    else:

        def make_extractor(**overrides: Any):
            return create_extractor(entry.name, **{**params, **overrides})

        extractor = make_extractor()
        schedule_config = cell_schedule_config(scenario)
        pipeline = FleetPipeline(
            extractor,
            chunk_size=scenario.chunk_size,
            seed=scenario.seed,
            schedule=schedule_config,
        )
        result = pipeline.run(fleet, target=target)
        sequential = (
            run_sequential(
                fleet,
                extractor,
                seed=scenario.seed,
                target=target,
                schedule_config=schedule_config,
            )
            if needs_sequential
            else None
        )

    return CellRun(
        scenario=scenario,
        entry=entry,
        fleet=fleet,
        result=result,
        sequential=sequential,
        target=target,
        make_extractor=make_extractor,
    )


def check_cell(
    run: CellRun, invariants: tuple[str, ...] | list[str] | None = None
) -> CellReport:
    """Score one executed cell against the (selected) invariant library."""
    results = run_invariants(run, invariants)
    return CellReport(
        scenario=run.scenario.name,
        extractor=run.entry.name,
        households=len(run.fleet.traces),
        days=run.fleet.days,
        offers=len(run.result.offers),
        aggregates=len(run.result.aggregates),
        extracted_kwh=run.result.total_extracted_kwh,
        invariants=results,
    )


def _crashed_cell_report(
    scenario: ConformanceScenario, entry: ExtractorEntry, exc: Exception
) -> CellReport:
    """A failing report for a cell whose *execution* raised.

    Invariants report violations instead of raising, but the extraction
    run itself can still blow up (a future extractor choking on a
    degenerate scenario); that must fail the one cell, not hide the rest
    of the matrix.
    """
    return CellReport(
        scenario=scenario.name,
        extractor=entry.name,
        households=0,
        days=0,
        offers=0,
        aggregates=0,
        extracted_kwh=0.0,
        invariants=(
            InvariantResult(
                name="cell-execution",
                status="fail",
                violations=(f"cell raised {type(exc).__name__}: {exc}",),
            ),
        ),
    )


def _run_cell_to_dict(
    position: int,
    scenario_name: str,
    extractor_name: str,
    invariants: tuple[str, ...] | None,
) -> dict[str, Any]:
    """Worker entry point: execute one cell, return its report as a dict.

    Module-level (so it pickles under multiprocessing) and dict-valued (so
    the parent rebuilds the exact :class:`CellReport` the in-process path
    would have produced — the worker-fanout ≡ in-process contract).
    ``position`` is the cell's matrix index (the fault-injection
    coordinate of the worker-death tests).
    """
    from repro.api.registry import get_entry
    from repro.conformance.matrix import get_scenario
    from repro.testing import faults

    faults.fire("conformance-cell", position)
    scenario = get_scenario(scenario_name)
    entry = get_entry(extractor_name)
    try:
        report = check_cell(run_cell(scenario, entry, invariants), invariants)
    except Exception as exc:  # noqa: BLE001 - isolation is the contract
        report = _crashed_cell_report(scenario, entry, exc)
    return report.to_dict()


def run_conformance(
    scenarios: tuple[str, ...] | list[str] | None = None,
    extractors: tuple[str, ...] | list[str] | None = None,
    invariants: tuple[str, ...] | list[str] | None = None,
    workers: int | None = None,
) -> ConformanceReport:
    """Run every compatible cell of the (sub)matrix and report.

    ``scenarios``/``extractors``/``invariants`` restrict the run by name;
    the default is the full matrix under the full invariant library.
    Unknown names fail fast (before any cell executes); a cell whose
    execution raises becomes a failing cell report instead of aborting
    the matrix.  ``workers`` > 1 fans cells out over a process pool —
    every cell is deterministic, so the report is identical to the
    in-process run (cells arrive in matrix order regardless of which
    worker finishes first).  The fan-out rides the fault-tolerant
    dispatcher: a worker killed outright (OOM, segfault) rebuilds the
    pool and re-dispatches only the outstanding cells, and a cell whose
    retries run out executes in-process — a dead worker can therefore
    never fail, or lose, a cell.
    """
    from repro.errors import ValidationError

    if invariants is not None:
        validate_invariant_names(invariants)
    if workers is not None and workers < 1:
        raise ValidationError("workers must be >= 1 (or None)")
    cells = matrix_cells(scenarios, extractors)
    selected = None if invariants is None else tuple(invariants)

    if workers is not None and workers > 1 and len(cells) > 1:
        from concurrent.futures import ProcessPoolExecutor

        from repro.pipeline.dispatch import dispatch_chunks

        def run_cell_locally(position: int) -> dict[str, Any]:
            # The in-process degradation path after retry exhaustion.
            # Deliberately *not* routed through the module-level
            # _run_cell_to_dict: that name is the worker entry (and the
            # worker-death tests' injection point) — the local fallback
            # must run the real cell.
            scenario, entry = cells[position]
            try:
                report = check_cell(run_cell(scenario, entry, selected), selected)
            except Exception as exc:  # noqa: BLE001 - isolation is the contract
                report = _crashed_cell_report(scenario, entry, exc)
            return report.to_dict()

        task_args = [
            (position, scenario.name, entry.name, selected)
            for position, (scenario, entry) in enumerate(cells)
        ]
        dicts = dispatch_chunks(
            task_args,
            _run_cell_to_dict,
            lambda: ProcessPoolExecutor(max_workers=workers),
            run_cell_locally,
            label="conformance cells",
        )
        return ConformanceReport(
            cells=tuple(CellReport.from_dict(data) for data in dicts)
        )

    reports = []
    for scenario, entry in cells:
        try:
            reports.append(check_cell(run_cell(scenario, entry, selected), selected))
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            reports.append(_crashed_cell_report(scenario, entry, exc))
    return ConformanceReport(cells=tuple(reports))
