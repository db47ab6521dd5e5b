"""The ``repro.bench`` harness: pinned workloads and the preset table.

``tests/data/golden/bench_workloads.json`` was generated from the workload
builders before they were merged into one; the merged builders must
reproduce it exactly: the same offer ids, start bounds, per-slice energies
and zone routing, which means the same RNG draw order and id scopes.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path

import pytest

from repro.bench import (
    PRESETS,
    Gate,
    build_schedule_workload,
    build_zoned_workload,
    equivalence_failures,
    report_tables,
)
from repro.evaluation.realism import format_table
from repro.scheduling.zones import assign_zones

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = REPO_ROOT / "tests" / "data" / "golden" / "bench_workloads.json"


def _offer_row(offer) -> dict:
    return {
        "id": offer.offer_id,
        "earliest_start": offer.earliest_start.isoformat(),
        "latest_start": offer.latest_start.isoformat(),
        "slices": [[s.energy_min, s.energy_max] for s in offer.slices],
    }


def _aggregate_row(aggregate) -> dict:
    return {
        **_offer_row(aggregate.offer),
        "members": [
            {k: v for k, v in _offer_row(m).items() if k != "slices"}
            for m in aggregate.members
        ],
    }


def _zoned_rows(aggregates, zoned) -> dict:
    return {
        "aggregates": [_aggregate_row(a) for a in aggregates],
        "zones": [
            [z.name, z.target.total(), z.price_floor, z.price_cap] for z in zoned.zones
        ],
        "assignment": dict(sorted(zoned.assignment.items())),
        "partition": {
            name: [a.offer.offer_id for a in bucket]
            for name, bucket in assign_zones(aggregates, zoned).items()
        },
    }


class TestWorkloadGolden:
    golden = json.loads(GOLDEN.read_text())

    def test_schedule_workload(self):
        aggregates, target = build_schedule_workload(n_aggregates=12)
        assert [_aggregate_row(a) for a in aggregates] == self.golden["schedule"][
            "aggregates"
        ]
        assert target.total() == self.golden["schedule"]["target_kwh"]

    def test_zoned_workload(self):
        assert _zoned_rows(*build_zoned_workload(n_aggregates=12)) == self.golden[
            "zones"
        ]

    def test_market_workload(self):
        workload = build_zoned_workload(n_aggregates=12, shape="market")
        assert _zoned_rows(*workload) == self.golden["market"]


class TestPresets:
    def test_defaults_are_exactly_the_run_parameters(self):
        for preset in PRESETS.values():
            assert list(preset.defaults) == list(
                inspect.signature(preset.run).parameters
            ), preset.name

    def test_every_preset_has_a_gate_and_its_own_artefact(self):
        assert [p.artefact for p in PRESETS.values()] == [
            f"BENCH_{name}.json" for name in PRESETS
        ]
        assert all(preset.gates for preset in PRESETS.values())

    def test_gate_failures_name_the_number_and_the_bound(self):
        report = {"greedy": {"speedup": 4.2, "overhead": 2.5}}
        floor = Gate(("greedy", "speedup"), 5.0)
        cap = Gate(("greedy", "overhead"), 2.0, upper=True)
        assert floor.failure(report) == "greedy.speedup = 4.2, gate >= 5"
        assert cap.failure(report) == "greedy.overhead = 2.5, gate <= 2"
        assert Gate(("greedy", "speedup"), 4.0).failure(report) is None
        assert PRESETS["schedule"].gate_failures(report) == [
            "greedy.speedup = 4.2, gate >= 5"
        ]

    def test_equivalence_failures_name_only_false_booleans(self):
        report = {"equivalence": {"a": True, "b": False, "fidelity_rtol": 1e-9}}
        assert equivalence_failures(report) == ["b"]
        assert equivalence_failures({}) == []


def _numbers(node) -> list:
    """Every number and boolean under ``node``, in document order."""
    if isinstance(node, dict):
        return [n for value in node.values() for n in _numbers(value)]
    if isinstance(node, list):
        return [n for value in node for n in _numbers(value)]
    return [node] if isinstance(node, (bool, int, float)) else []


class TestReportTables:
    @pytest.mark.parametrize("name", list(PRESETS))
    def test_every_number_of_a_committed_report_is_rendered(self, name):
        report = json.loads((REPO_ROOT / PRESETS[name].artefact).read_text())
        tables = report_tables(report)
        rendered = [list(row.values()) for _, rows in tables for row in rows]
        body = {key: value for key, value in report.items() if key != "environment"}
        assert sorted(map(repr, _numbers(rendered))) == sorted(map(repr, _numbers(body)))
        title, metrics = tables[-1]
        assert title == "metrics"
        values = {row["metric"]: row["value"] for row in metrics}
        for key, value in report["equivalence"].items():
            assert values[f"equivalence.{key}"] == value
        text = "\n".join(format_table(rows) for _, rows in tables)
        if name == "scale":
            assert [title for title, _ in tables] == ["ladder", "metrics"]
            assert "extract->aggregate->schedule" in text
            description = PRESETS["scale"].description
            assert "simulate" in description
            assert "peak-based extract->aggregate->schedule" in description
            assert "synthetic" not in description
