"""Tier-2 conformance suite: the scenario matrix as parametrized pytest.

One test per compatible (scenario × extractor) cell, each asserting the
full invariant library passes — so every registered approach is proven on
every workload it claims to handle, on every run.  Cell execution is
cached per (scenario, extractor) and scenario fleets are cached by their
builders, so the whole matrix stays well under the 120 s budget.

The matrix *shape* (which cells exist, which invariants pass vs skip) is
golden-pinned: silently dropping a cell, a scenario or an invariant fails
just as loudly as a violated invariant.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.api.registry import available_extractors, get_entry
from repro.cli import main
from repro.conformance import (
    INVARIANTS,
    CellReport,
    ConformanceReport,
    InvariantResult,
    check_cell,
    incompatibility,
    matrix_cells,
    run_cell,
    scenario_matrix,
    scenario_names,
)
from repro.conformance.matrix import ConformanceError, get_scenario

pytestmark = pytest.mark.tier2

GOLDEN = Path(__file__).parent / "data" / "golden"

CELLS = matrix_cells()
CELL_IDS = [f"{scenario.name}--{entry.name}" for scenario, entry in CELLS]


@lru_cache(maxsize=None)
def cell_report(scenario_name: str, extractor_name: str) -> CellReport:
    """Execute one cell once per session, shared by every assertion on it."""
    return check_cell(run_cell(get_scenario(scenario_name), get_entry(extractor_name)))


def full_report() -> ConformanceReport:
    return ConformanceReport(
        cells=tuple(cell_report(s.name, e.name) for s, e in CELLS)
    )


# ---------------------------------------------------------------------- #
# The matrix itself
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("scenario,entry", CELLS, ids=CELL_IDS)
def test_cell_invariants(scenario, entry):
    report = cell_report(scenario.name, entry.name)
    assert report.passed, "\n".join(report.violations())
    # A cell that runs but extracts from an empty matrix would be vacuous;
    # the structural invariants must actually have had offers to inspect
    # for at least the production and baseline approaches (which generate
    # unconditionally).  Appliance approaches may legitimately find nothing
    # on degraded inputs, so no per-cell offer floor is imposed here.
    assert len(report.invariants) == len(INVARIANTS)


def test_matrix_covers_every_registered_extractor():
    covered = {entry.name for _, entry in CELLS}
    assert covered == set(available_extractors())


def test_matrix_covers_every_scenario():
    covered = {scenario.name for scenario, _ in CELLS}
    assert covered == set(scenario_names())
    assert len(scenario_matrix()) >= 8


def test_matrix_produces_offers_overall():
    # The matrix as a whole must be non-vacuous: extraction really happened.
    report = full_report()
    assert sum(cell.offers for cell in report.cells) > 0
    assert sum(cell.aggregates for cell in report.cells) > 0


def test_matrix_shape_matches_golden():
    shape = full_report().shape()
    golden = json.loads((GOLDEN / "conformance_matrix_shape.json").read_text())
    assert shape == golden


def test_incompatibilities_are_stated():
    large = get_scenario("large-fleet")
    reason = incompatibility(large, get_entry("frequency-based"))
    assert reason is not None and "appliance" in reason
    winter = get_scenario("seasonal-winter")
    reason = incompatibility(winter, get_entry("multi-tariff"))
    assert reason is not None and "reference" in reason
    assert incompatibility(winter, get_entry("basic")) is None


def test_scenario_builders_are_cached():
    scenario = get_scenario("seasonal-summer")
    assert scenario.build() is scenario.build()


def test_unknown_scenario_name_raises():
    with pytest.raises(ConformanceError, match="unknown conformance scenario"):
        get_scenario("mars-colony")
    with pytest.raises(ConformanceError, match="available"):
        matrix_cells(scenarios=["mars-colony"])


# ---------------------------------------------------------------------- #
# Report wire format
# ---------------------------------------------------------------------- #


def _tiny_report() -> ConformanceReport:
    """A handcrafted report with fully deterministic values (golden pin)."""
    return ConformanceReport(
        cells=(
            CellReport(
                scenario="unit-scenario",
                extractor="basic",
                households=2,
                days=1,
                offers=3,
                aggregates=1,
                extracted_kwh=1.25,
                invariants=(
                    InvariantResult(
                        name="offer-validity", status="pass", detail="3 offers"
                    ),
                    InvariantResult(
                        name="energy-conservation",
                        status="fail",
                        violations=("hh-0: conservation error 2.0e-03 kWh",),
                    ),
                    InvariantResult(
                        name="engine-fidelity",
                        status="skipped",
                        detail="approach has no pluggable matching engine",
                    ),
                ),
            ),
        )
    )


def test_wire_format_matches_golden():
    report = _tiny_report()
    golden = json.loads((GOLDEN / "conformance_report.json").read_text())
    assert report.to_dict() == golden


def test_wire_format_roundtrip(tmp_path):
    report = _tiny_report()
    assert ConformanceReport.from_json(report.to_json()).to_dict() == report.to_dict()
    path = tmp_path / "report.json"
    report.save(path)
    loaded = ConformanceReport.load(path)
    assert loaded.to_dict() == report.to_dict()
    assert not loaded.passed
    assert loaded.summary() == {
        "cells": 1,
        "passed": 0,
        "failed": 1,
        "violations": 1,
    }


def test_full_report_roundtrips():
    report = full_report()
    assert ConformanceReport.from_json(report.to_json()).to_dict() == report.to_dict()


def test_wire_format_requires_version():
    from repro.errors import DataError

    payload = _tiny_report().to_dict()
    del payload["version"]
    with pytest.raises(DataError, match="missing field: 'version'"):
        ConformanceReport.from_dict(payload)


# ---------------------------------------------------------------------- #
# Runner behaviour
# ---------------------------------------------------------------------- #


def test_worker_fanout_matches_in_process():
    # ROADMAP: `repro conformance --workers N`.  Cells are deterministic
    # and workers return their CellReport by value, so fanning them out
    # over a process pool must reproduce the in-process report as an
    # object — not only through the wire format, which rounds
    # extracted_kwh to 6 places.
    from repro.conformance import run_conformance

    kwargs = dict(
        scenarios=["seasonal-summer"],
        extractors=["basic", "peak-based"],
        invariants=["offer-validity", "scheduling-feasibility"],
    )
    in_process = run_conformance(**kwargs)
    fanned = run_conformance(**kwargs, workers=2)
    assert fanned == in_process
    assert fanned.passed


def test_worker_count_validated():
    from repro.conformance import run_conformance
    from repro.errors import ValidationError

    with pytest.raises(ValidationError, match="workers"):
        run_conformance(scenarios=["seasonal-summer"], workers=0)


def test_scheduling_feasibility_enrolled_and_passes():
    report = cell_report("seasonal-summer", "peak-based")
    (feasibility,) = [
        r for r in report.invariants if r.name == "scheduling-feasibility"
    ]
    assert feasibility.status == "pass"
    assert "placed" in feasibility.detail


def test_dst_fallback_week_covers_the_25_hour_day():
    from datetime import datetime

    scenario = get_scenario("dst-fallback-week")
    fleet = scenario.build()
    assert fleet.start == datetime(2012, 10, 22)
    # The week spans the 2012-10-28 fall-back Sunday end to end.
    assert fleet.start.weekday() == 0
    assert fleet.days == 7
    assert "calendar" in scenario.tags


def test_markdown_report_rendering():
    markdown = _tiny_report().to_markdown()
    assert "## Conformance matrix" in markdown
    assert "❌ conformance FAILED" in markdown
    assert "| unit-scenario | basic | 3 | 1 | 1.25 |" in markdown
    assert "FAIL: energy-conservation (1 skipped)" in markdown
    assert "### Violations" in markdown
    assert "conservation error" in markdown


def test_cli_conformance_markdown_and_workers(tmp_path, capsys):
    markdown = tmp_path / "summary.md"
    code = main(
        [
            "conformance",
            "--scenario",
            "seasonal-summer",
            "--extractor",
            "basic",
            "--extractor",
            "peak-based",
            "--invariant",
            "offer-validity",
            "--workers",
            "2",
            "--markdown",
            str(markdown),
        ]
    )
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    text = markdown.read_text()
    assert "✅ conformance passed" in text
    assert "| seasonal-summer | basic |" in text


def test_restricted_invariants_skip_sequential_rerun():
    from repro.conformance import run_conformance

    report = run_conformance(
        scenarios=["seasonal-summer"],
        extractors=["peak-based"],
        invariants=["offer-validity"],
    )
    (cell,) = report.cells
    assert [r.name for r in cell.invariants] == ["offer-validity"]
    assert report.passed


def test_unknown_invariant_fails_before_any_cell_runs(monkeypatch):
    from repro.conformance import run_conformance
    from repro.conformance import runner as runner_module
    from repro.errors import ReproError

    def explode(*args, **kwargs):  # pragma: no cover - must not be reached
        raise AssertionError("a cell ran despite the bad invariant name")

    monkeypatch.setattr(runner_module, "run_cell", explode)
    with pytest.raises(ReproError, match="unknown invariant"):
        run_conformance(invariants=["typoed-name"])


def test_crashing_cell_is_isolated(monkeypatch):
    from repro.conformance import run_conformance
    from repro.conformance import runner as runner_module

    real_run_cell = runner_module.run_cell

    def flaky(scenario, entry, invariants=None):
        if entry.name == "basic":
            raise RuntimeError("synthetic extractor crash")
        return real_run_cell(scenario, entry, invariants)

    monkeypatch.setattr(runner_module, "run_cell", flaky)
    report = run_conformance(
        scenarios=["seasonal-summer"],
        extractors=["basic", "peak-based"],
        invariants=["offer-validity"],
    )
    assert len(report.cells) == 2
    crashed = next(c for c in report.cells if c.extractor == "basic")
    survivor = next(c for c in report.cells if c.extractor == "peak-based")
    assert not crashed.passed
    assert crashed.invariants[0].name == "cell-execution"
    assert "synthetic extractor crash" in crashed.violations()[0]
    assert survivor.passed
    assert not report.passed


# ---------------------------------------------------------------------- #
# CLI surface
# ---------------------------------------------------------------------- #


def test_cli_conformance_single_cell(tmp_path, capsys):
    out = tmp_path / "conformance.json"
    code = main(
        [
            "conformance",
            "--scenario",
            "seasonal-summer",
            "--extractor",
            "peak-based",
            "--out",
            str(out),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "seasonal-summer" in captured.out
    assert "1 cells: 1 passed, 0 failed, 0 violations" in captured.out
    assert ConformanceReport.load(out).passed


def test_cli_conformance_list(capsys):
    assert main(["conformance", "--list"]) == 0
    captured = capsys.readouterr()
    for name in scenario_names():
        assert name in captured.out
    for invariant in INVARIANTS:
        assert invariant in captured.out
