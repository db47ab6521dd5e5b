"""Golden-schema guards for benchmark output artefacts.

Seven machine-readable bench artefacts are load-bearing outside this repo:
``BENCH_fleet.json`` (the committed fleet-pipeline speedup baseline),
``BENCH_schedule.json`` (the scheduling-engine speedup baseline),
``BENCH_zones.json`` (the zone-sharded multi-market baseline),
``BENCH_scale.json`` (the million-household scale-out baseline),
``BENCH_market.json`` (the merit-order clearing baseline),
``BENCH_uncertainty.json`` (the robust quantile-fan scheduling baseline)
and the ``--bench-json`` table dump ``benchmarks/conftest.py`` writes for CI
archiving.  Their *schemas* are pinned here — a drifted key, a renamed
stage or a silently dropped section fails loudly instead of breaking
downstream consumers at read time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "data" / "golden"


def type_schema(value):
    """A value's recursive shape: dict keys → schemas, lists → first element.

    Numbers collapse to ``"number"`` (ints and floats drift freely in JSON),
    every other leaf keeps its JSON type name.
    """
    if isinstance(value, dict):
        return {key: type_schema(item) for key, item in sorted(value.items())}
    if isinstance(value, list):
        return [type_schema(value[0])] if value else []
    if isinstance(value, bool):
        return "bool"
    if value is None:
        return "null"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


class TestFleetBenchBaseline:
    def test_bench_fleet_json_schema_matches_golden(self):
        report = json.loads((REPO_ROOT / "BENCH_fleet.json").read_text())
        golden = json.loads((GOLDEN / "bench_fleet_schema.json").read_text())
        assert type_schema(report) == golden

    def test_bench_fleet_json_semantics(self):
        report = json.loads((REPO_ROOT / "BENCH_fleet.json").read_text())
        assert report["speedup"] > 1.0
        assert report["equivalence"]["batched_equals_sequential"] is True
        assert report["equivalence"]["reference_matches_vectorized"] is True
        assert report["baseline"]["offers"] == report["pipeline"]["offers"]
        stages = report["pipeline"]["stages"]
        assert {
            "prepare",
            "disaggregate",
            "extract",
            "group",
            "aggregate",
            "schedule",
        } <= set(stages)
        # The timed run schedules every fleet aggregate on the wind target.
        schedule = report["schedule"]
        assert schedule["placed"] + schedule["unplaced"] == report["pipeline"][
            "aggregates"
        ]
        assert schedule["target_kwh"] > 0
        assert 0.0 <= schedule["improvement"] <= 1.0


class TestScheduleBenchBaseline:
    def test_bench_schedule_json_schema_matches_golden(self):
        report = json.loads((REPO_ROOT / "BENCH_schedule.json").read_text())
        golden = json.loads((GOLDEN / "bench_schedule_schema.json").read_text())
        assert type_schema(report) == golden

    def test_bench_schedule_json_semantics(self):
        report = json.loads((REPO_ROOT / "BENCH_schedule.json").read_text())
        assert report["workload"]["aggregates"] >= 200
        assert report["greedy"]["speedup"] >= 5.0
        equivalence = report["equivalence"]
        assert equivalence["placements_identical"] is True
        assert equivalence["cost_match"] is True
        assert equivalence["energies_match"] is True
        assert equivalence["fidelity_rtol"] == 1e-9
        assert report["improve"]["identical"] is True
        # The improver only ever lowers cost.
        assert report["improve"]["cost"] <= report["greedy"]["cost"] + 1e-9


class TestZonesBenchBaseline:
    def test_bench_zones_json_schema_matches_golden(self):
        report = json.loads((REPO_ROOT / "BENCH_zones.json").read_text())
        golden = json.loads((GOLDEN / "bench_zones_schema.json").read_text())
        assert type_schema(report) == golden

    def test_bench_zones_json_semantics(self):
        report = json.loads((REPO_ROOT / "BENCH_zones.json").read_text())
        workload = report["workload"]
        assert workload["aggregates"] >= 200
        assert workload["zones"] >= 2
        # Both assignment paths (explicit mapping, hash shard) exercised.
        assert 0 < workload["mapped_keys"] < workload["aggregates"]
        greedy = report["greedy"]
        assert greedy["speedup_vs_reference"] >= 2.0
        assert greedy["placed"] + greedy["unplaced"] == workload["aggregates"]
        equivalence = report["equivalence"]
        assert equivalence["reference_identical_placements"] is True
        assert equivalence["cost_match"] is True
        assert equivalence["workers_match_sequential"] is True
        assert equivalence["zone_partition"] is True
        assert equivalence["fidelity_rtol"] == 1e-9
        # Every zone is a real market: named, priced, offers routed to it.
        for zone in report["zones"]:
            assert zone["name"]
            assert zone["offers"] > 0
            assert zone["price_cap"] >= zone["price_floor"] >= 0


class TestMarketBenchBaseline:
    def test_bench_market_json_schema_matches_golden(self):
        report = json.loads((REPO_ROOT / "BENCH_market.json").read_text())
        golden = json.loads((GOLDEN / "bench_market_schema.json").read_text())
        assert type_schema(report) == golden

    def test_bench_market_json_semantics(self):
        report = json.loads((REPO_ROOT / "BENCH_market.json").read_text())
        workload = report["workload"]
        assert workload["aggregates"] >= 200
        assert workload["zones"] >= 2
        # Both assignment paths (explicit mapping, hash shard) exercised.
        assert 0 < workload["mapped_keys"] < workload["aggregates"]
        clearing = report["clearing"]
        assert clearing["speedup"] >= 3.0
        # Every disposition and the spill pass are live on the baseline.
        assert clearing["accepted"] > 0
        assert clearing["partial"] > 0
        assert clearing["rejected"] > 0
        assert clearing["migrated"] > 0
        assert clearing["welfare_eur"] > 0
        assert (
            clearing["accepted"] + clearing["partial"] + clearing["rejected"]
            == workload["aggregates"]
        )
        equivalence = report["equivalence"]
        assert equivalence["acceptance_identical"] is True
        assert equivalence["settlements_identical"] is True
        assert equivalence["prices_identical"] is True
        assert equivalence["welfare_match"] is True
        assert equivalence["budget_balanced"] is True
        assert equivalence["fidelity_rtol"] == 1e-9
        # Per-zone books: settled revenue stays inside the price band.
        for zone in report["zones"]:
            assert zone["bids"] > 0
            assert zone["cleared_kwh"] >= 0
            assert zone["revenue_eur"] >= 0


class TestScaleBenchBaseline:
    def test_bench_scale_json_schema_matches_golden(self):
        report = json.loads((REPO_ROOT / "BENCH_scale.json").read_text())
        golden = json.loads((GOLDEN / "bench_scale_schema.json").read_text())
        assert type_schema(report) == golden

    def test_bench_scale_json_semantics(self):
        report = json.loads((REPO_ROOT / "BENCH_scale.json").read_text())
        # The throughput ladder covers the 1k/10k/100k rungs, each placing
        # the whole fleet through stream -> aggregate -> schedule.
        sizes = report["workload"]["sizes"]
        assert sizes == [1_000, 10_000, 100_000]
        for rung in report["throughput"]:
            assert rung["households_per_second"] > 0
            assert rung["placed"] + rung["unplaced"] == rung["aggregates"]
        # Shared-memory fan-out beats pickling dispatch by the gated factor
        # on the committed 10k-household matrix, with identical results.
        fanout = report["fanout"]
        assert fanout["households"] == 10_000
        assert fanout["meets_min_speedup"] is True
        assert fanout["speedup"] >= 2.0
        assert report["equivalence"] == {"fanout_results_identical": True}
        # Streaming aggregation's peak memory is O(chunk): tripling the
        # household count must not grow the tracemalloc peak ~3x, and the
        # streaming path must undercut materializing the offer list.
        streaming = report["streaming"]
        assert streaming["peak_is_chunk_bound"] is True
        assert streaming["peak_growth_at_3x_households"] < 2.0
        assert (
            streaming["streaming_peak_mb_small"]
            < streaming["materialized_peak_mb_small"]
        )


class TestUncertaintyBenchBaseline:
    def test_bench_uncertainty_json_schema_matches_golden(self):
        report = json.loads((REPO_ROOT / "BENCH_uncertainty.json").read_text())
        golden = json.loads((GOLDEN / "bench_uncertainty_schema.json").read_text())
        assert type_schema(report) == golden

    def test_bench_uncertainty_json_semantics(self):
        report = json.loads((REPO_ROOT / "BENCH_uncertainty.json").read_text())
        workload = report["workload"]
        assert workload["aggregates"] >= 200
        assert list(workload["quantiles"]) == sorted(workload["quantiles"])
        assert workload["risk"] in ("expected", "cvar")
        greedy = report["greedy"]
        # The acceptance gate: robust scoring costs at most 2x point mode.
        assert greedy["overhead_gate"] == 2.0
        assert greedy["meets_overhead_gate"] is True
        assert greedy["overhead"] <= greedy["overhead_gate"]
        assert greedy["placed"] + greedy["unplaced"] == workload["aggregates"]
        equivalence = report["equivalence"]
        assert equivalence["robust_reference_identical"] is True
        assert equivalence["deterministic_across_runs"] is True
        assert equivalence["fidelity_rtol"] == 1e-9
        # Realized-cost fan: one point/robust cost pair per quantile level,
        # and the risk measure's hedge shows up on the lowest quantile.
        realized = report["realized"]
        levels = realized["levels"]
        assert len(levels) == len(realized["point_costs"])
        assert len(levels) == len(realized["robust_costs"])
        assert realized["robust_costs"][0] <= realized["point_costs"][0]


class TestBenchJsonWriter:
    @pytest.fixture(scope="class")
    def records(self, tmp_path_factory):
        """Run the smallest bench under ``--bench-json`` in a subprocess."""
        out = tmp_path_factory.mktemp("bench") / "tables.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                "benchmarks/bench_fig1_flexoffer.py",
                "-q",
                "--bench-json",
                str(out),
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        return json.loads(out.read_text())

    def test_every_record_matches_golden_schema(self, records):
        golden = json.loads((GOLDEN / "bench_json_record_schema.json").read_text())
        assert records, "--bench-json wrote no records"
        for record in records:
            schema = type_schema(record)
            # Rows/lines are optional per record; the invariant is the
            # envelope: nodeid + title always present, payload keys known.
            assert set(schema) == set(golden)
            assert schema["test"] == golden["test"]
            assert schema["title"] == golden["title"]

    def test_records_carry_table_payload(self, records):
        assert any(record["rows"] for record in records)
        for record in records:
            assert record["test"].startswith("benchmarks/")
            assert record["title"]
            if record["rows"]:
                first_keys = set(record["rows"][0])
                assert all(set(row) == first_keys for row in record["rows"])
