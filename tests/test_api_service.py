"""`FlexibilityService`: spec-driven end-to-end runs and the report wire format.

Covers the acceptance contract of the unified API: a fleet spec executes
end to end for 4+ registry-resolved approaches, and both
:class:`~repro.api.spec.RunSpec` and :class:`~repro.api.service.RunReport`
round-trip losslessly through JSON.  The wire format itself is pinned by a
golden file (``tests/data/run_report_golden.json``); regenerate it by
re-running the construction in :func:`golden_report` and dumping
``report.to_dict()`` if the format version is deliberately bumped.
"""

from __future__ import annotations

import json
from dataclasses import replace
from datetime import datetime
from pathlib import Path

import pytest

from repro.aggregation.aggregate import aggregate_group
from repro.api import (
    ExtractorSpec,
    FlexibilityService,
    PipelineSpec,
    RunReport,
    RunSpec,
    ScenarioSpec,
)
from repro.api.service import ExtractorRunReport
from repro.errors import DataError, RegistryError
from repro.flexoffer.model import figure1_flexoffer

GOLDEN_PATH = Path(__file__).parent / "data" / "run_report_golden.json"
COMPAT_REPORT_PATH = Path(__file__).parent / "data" / "golden" / "compat" / "run_report_v1.json"

#: The acceptance-criteria fleet: five approaches, all resolved by name.
FLEET_SPEC = RunSpec(
    kind="fleet",
    name="service-test",
    scenario=ScenarioSpec(households=2, days=2, seed=7),
    extractors=(
        ExtractorSpec("basic", {"flexible_share": 0.05}),
        ExtractorSpec("peak-based", {"flexible_share": 0.05}),
        ExtractorSpec("random-baseline"),
        ExtractorSpec("frequency-based"),
        ExtractorSpec("schedule-based"),
    ),
    pipeline=PipelineSpec(chunk_size=4),
)


@pytest.fixture(scope="module")
def fleet_report() -> RunReport:
    return FlexibilityService().run(FLEET_SPEC)


def golden_report() -> RunReport:
    """The handcrafted report the golden file pins (fully deterministic)."""
    offer = replace(figure1_flexoffer(datetime(2012, 3, 5)), offer_id="golden-ev-1")
    aggregate = aggregate_group([offer])
    aggregate = replace(
        aggregate, offer=replace(aggregate.offer, offer_id="golden-agg-1")
    )
    spec = RunSpec(
        kind="fleet",
        name="golden",
        scenario=ScenarioSpec(households=1, days=1, seed=0),
        extractors=(ExtractorSpec("peak-based", {"flexible_share": 0.05}),),
        pipeline=PipelineSpec(),
    )
    return RunReport(
        spec=spec,
        results=(
            ExtractorRunReport(
                extractor="peak-based",
                households=1,
                offers=(offer,),
                aggregates=(aggregate,),
                stage_seconds={
                    "prepare": 0.001,
                    "extract": 0.25,
                    "group": 0.002,
                    "aggregate": 0.004,
                },
                summary={"offers": 1.0, "aggregates": 1.0, "extracted_kwh": 50.0},
            ),
        ),
        extras={
            "note": "golden wire-format fixture; regenerate via "
            "tests/test_api_service.py docstring"
        },
    )


class TestFleetRuns:
    def test_at_least_four_approaches_produce_offers(self, fleet_report):
        producing = [r.extractor for r in fleet_report.results if r.offers]
        assert len(producing) >= 4
        assert {"basic", "peak-based", "random-baseline", "frequency-based"} <= set(
            producing
        )

    def test_every_result_carries_aggregates_and_timings(self, fleet_report):
        for result in fleet_report.results:
            assert result.households == 2
            if result.offers:
                assert result.aggregates
            assert result.stage_seconds.get("extract", 0.0) >= 0.0
            assert result.summary["offers"] == float(len(result.offers))

    def test_report_result_order_follows_spec(self, fleet_report):
        assert [r.extractor for r in fleet_report.results] == [
            e.name for e in FLEET_SPEC.extractors
        ]

    def test_get_by_name(self, fleet_report):
        assert fleet_report.get("peak-based").extractor == "peak-based"
        with pytest.raises(KeyError):
            fleet_report.get("multi-tariff")

    def test_fleet_matches_direct_pipeline_run(self, fleet_report):
        """The service is a façade: same spec → same offers as FleetPipeline."""
        from repro.pipeline.fleet import FleetPipeline, offers_equivalent
        from repro.simulation.dataset import generate_fleet

        scenario = FLEET_SPEC.scenario
        fleet = generate_fleet(
            scenario.households, scenario.start, scenario.days, seed=scenario.seed
        )
        direct = FleetPipeline(
            extractor=FLEET_SPEC.extractors[1].create(),
            grouping=FLEET_SPEC.pipeline.grouping_params(),
            chunk_size=FLEET_SPEC.pipeline.chunk_size,
            seed=scenario.seed,
        ).run(fleet)
        assert offers_equivalent(
            list(fleet_report.get("peak-based").offers), direct.offers
        )

    def test_unknown_extractor_fails_before_simulation_cost_is_wasted(self):
        spec = FLEET_SPEC.with_overrides(extractors=(ExtractorSpec("nope"),))
        with pytest.raises(RegistryError, match="unknown extractor 'nope'"):
            FlexibilityService().run(spec)


class TestReportRoundTrip:
    def test_fleet_report_round_trips_losslessly(self, fleet_report):
        assert RunReport.from_dict(fleet_report.to_dict()) == fleet_report
        assert RunReport.from_json(fleet_report.to_json()) == fleet_report

    def test_report_file_round_trip(self, fleet_report, tmp_path):
        path = tmp_path / "report.json"
        fleet_report.save(path)
        assert RunReport.load(path) == fleet_report

    def test_report_dict_is_json_native(self, fleet_report):
        encoded = fleet_report.to_dict()
        assert json.loads(json.dumps(encoded)) == encoded


class TestGoldenWireFormat:
    def test_encoding_matches_golden_file(self):
        assert golden_report().to_dict() == json.loads(GOLDEN_PATH.read_text())

    def test_golden_file_decodes_to_equal_report(self):
        assert RunReport.from_json(GOLDEN_PATH.read_text()) == golden_report()

    def test_aggregates_survive_with_members_and_offsets(self):
        decoded = RunReport.from_json(GOLDEN_PATH.read_text())
        aggregate = decoded.results[0].aggregates[0]
        assert aggregate.size == 1
        assert aggregate.member_offsets == (0,)
        assert aggregate.members[0].offer_id == "golden-ev-1"

    def test_unsupported_report_version_rejected(self):
        data = json.loads(GOLDEN_PATH.read_text())
        data["version"] = 99
        with pytest.raises(DataError, match="unsupported run-report format version"):
            RunReport.from_dict(data)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda report: [1],
            lambda report: {**report, "results": "x"},
            lambda report: {**report, "results": [{**report["results"][0], "stage_seconds": None}]},
            lambda report: {**report, "results": [{**report["results"][0], "summary": [[1]]}]},
            lambda report: {**report, "results": [{**report["results"][0], "households": "x"}]},
            lambda report: {**report, "results": [{**report["results"][0], "households": True}]},
            lambda report: {**report, "results": [{**report["results"][0], "households": -1}]},
            lambda report: {**report, "results": [{**report["results"][0], "households": 2.0}]},
            lambda report: {**report, "results": [{**report["results"][0], "extractor": 5}]},
        ],
        ids=[
            "list-body",
            "string-results",
            "null-stage-seconds",
            "nested-list-summary",
            "string-households",
            "bool-households",
            "negative-households",
            "float-households",
            "int-extractor",
        ],
    )
    def test_malformed_report_raises_data_error(self, mutate):
        report = json.loads(COMPAT_REPORT_PATH.read_text())
        with pytest.raises(DataError, match="^malformed (extractor )?run report dict: "):
            RunReport.from_dict(mutate(report))


class TestScheduleStageReports:
    @pytest.fixture(scope="class")
    def schedule_report(self) -> RunReport:
        from repro.api import ScheduleSpec

        spec = RunSpec(
            kind="fleet",
            name="schedule-test",
            scenario=ScenarioSpec(households=2, days=2, seed=7),
            extractors=(ExtractorSpec("peak-based", {"flexible_share": 0.05}),),
            pipeline=PipelineSpec(
                chunk_size=4,
                schedule=ScheduleSpec(target_kwh=25.0, improve_iterations=40),
            ),
        )
        return FlexibilityService().run(spec)

    def test_schedule_result_attached_and_summarised(self, schedule_report):
        (result,) = schedule_report.results
        assert result.schedule is not None
        assert "schedule" in result.stage_seconds
        assert result.summary["schedule_placed"] + result.summary[
            "schedule_unplaced"
        ] == float(len(result.aggregates))
        assert result.summary["schedule_cost"] == pytest.approx(
            result.schedule.cost
        )

    def test_schedule_report_round_trips_losslessly(self, schedule_report):
        assert RunReport.from_dict(schedule_report.to_dict()) == schedule_report
        assert RunReport.from_json(schedule_report.to_json()) == schedule_report
        encoded = schedule_report.to_dict()
        assert json.loads(json.dumps(encoded)) == encoded

    def test_schedule_target_is_deterministic(self, schedule_report):
        (result,) = schedule_report.results
        assert result.schedule.target.total() == pytest.approx(25.0)
        rerun = FlexibilityService().run(schedule_report.spec)
        # Identical modulo wall-clock timings: offers, placements, cost.
        assert rerun.results[0].offers == result.offers
        assert rerun.results[0].schedule == result.schedule
        assert rerun.results[0].summary == result.summary

    @pytest.mark.parametrize("engine", ["vectorized", "reference"])
    def test_robust_run_scores_the_synthetic_fan(self, engine):
        """A robust spec places as `greedy_schedule` does over the explicit
        synthetic fan, and its summary's realized costs are that fan's."""
        from repro.api.spec import RobustSpec, ScheduleSpec
        from repro.scheduling import evaluate_realized, greedy_schedule, synthetic_fan

        schedule = ScheduleSpec(
            engine=engine, target_kwh=25.0, robust=RobustSpec(risk="cvar")
        )
        spec = RunSpec(
            kind="fleet",
            scenario=ScenarioSpec(households=2, days=2, seed=7),
            extractors=(ExtractorSpec("peak-based", {"flexible_share": 0.05}),),
            pipeline=PipelineSpec(chunk_size=4, schedule=schedule),
        )
        (result,) = FlexibilityService().run(spec).results
        config = schedule.config()
        target = result.schedule.target
        fan = synthetic_fan(target, config.robust)
        explicit = greedy_schedule(
            [aggregate.offer for aggregate in result.aggregates],
            target,
            config=config,
            scenarios=list(fan),
        )
        assert result.schedule.schedules
        assert result.schedule == explicit
        costs = [evaluate_realized(result.schedule, s).realized_cost for s in fan]
        assert result.summary["robust_risk"] == "cvar"
        assert result.summary["robust_scenarios"] == 3.0
        assert result.summary["realized_cost_low_q"] == costs[0]
        assert result.summary["realized_cost_median_q"] == costs[1]
        assert result.summary["realized_cost_high_q"] == costs[2]

    def test_flat_target_kind(self):
        from repro.api import ScheduleSpec

        spec = RunSpec(
            kind="fleet",
            scenario=ScenarioSpec(households=1, days=1, seed=3),
            extractors=(ExtractorSpec("random-baseline"),),
            pipeline=PipelineSpec(
                schedule=ScheduleSpec(target="flat", target_kwh=10.0)
            ),
        )
        report = FlexibilityService().run(spec)
        target = report.results[0].schedule.target
        assert target.total() == pytest.approx(10.0)
        assert float(target.values.min()) == pytest.approx(float(target.values.max()))


class TestOtherKinds:
    def test_compare_kind_produces_realism_rows(self):
        spec = RunSpec(
            kind="compare",
            scenario=ScenarioSpec(households=2, days=2, seed=3),
            extractors=(ExtractorSpec("basic"), ExtractorSpec("random-baseline")),
        )
        report = FlexibilityService().run(spec)
        assert [r.extractor for r in report.results] == ["basic", "random-baseline"]
        for result in report.results:
            assert not result.offers  # compare reports scores, not offers
            assert "extracted_kwh" in result.summary or result.summary
        assert RunReport.from_json(report.to_json()) == report

    def test_bench_kind_is_refused_naming_kind(self):
        """Benchmarks run through `repro bench`; a spec cannot ask for one."""
        from repro.errors import SpecError

        with pytest.raises(SpecError, match=r"kind .*'bench'.*repro bench --suite fleet"):
            RunSpec.from_dict({"kind": "bench"})
        with pytest.raises(SpecError, match="kind must be one of fleet, compare"):
            RunSpec(kind="bench")


class TestGridValidation:
    def test_extract_rejects_wrong_grid_before_running(self, fleet):
        metered = fleet.traces[0].metered()
        with pytest.raises(RegistryError, match="requires input on the 1-minute grid"):
            FlexibilityService().extract("frequency-based", metered)

    def test_extract_runs_registered_approach(self, fleet):
        result = FlexibilityService().extract(
            "peak-based", fleet.traces[0].metered(), seed=1, flexible_share=0.05
        )
        assert result.offers
        assert result.energy_conservation_error() < 1e-6
