"""CLI over the unified API: run specs, the approaches table, extract gaps.

The historical CLI hardcoded ``{basic, peak-based}``; these tests pin the
registry-backed grammar: every registered approach is extractable, grid
mismatches fail with actionable errors, and ``repro run`` executes a
declarative spec end to end (including the shipped smoke spec used by CI).
"""

from __future__ import annotations

import json
import re
from datetime import timedelta
from pathlib import Path

import pytest

from repro.api import RunReport, available_extractors
from repro.cli import build_parser, main
from repro.flexoffer.io import load_flexoffers
from repro.timeseries.io import load_series_csv, save_series_csv
from repro.timeseries.resample import downsample_sum

SMOKE_SPEC = Path(__file__).resolve().parents[1] / "examples" / "specs" / "smoke.json"
MARKET_SPEC = Path(__file__).resolve().parents[1] / "examples" / "specs" / "market.json"


@pytest.fixture()
def metered_csv(tmp_path) -> Path:
    assert main(
        ["simulate", "--households", "1", "--days", "2", "--seed", "4",
         "--out", str(tmp_path / "m")]
    ) == 0
    return next((tmp_path / "m").glob("*.csv"))


@pytest.fixture()
def total_csv(tmp_path) -> Path:
    assert main(
        ["simulate", "--households", "1", "--days", "2", "--seed", "4",
         "--grid", "total", "--out", str(tmp_path / "t")]
    ) == 0
    return next((tmp_path / "t").glob("*.csv"))


class TestParserGrammar:
    def test_new_subcommands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["approaches"]).command == "approaches"
        args = parser.parse_args(["run", "--spec", "x.json"])
        assert args.command == "run" and args.spec == Path("x.json")

    def test_extract_accepts_every_registered_approach(self):
        parser = build_parser()
        for name in available_extractors():
            args = parser.parse_args(
                ["extract", "--input", "i.csv", "--approach", name, "--out", "o.json"]
            )
            assert args.approach == name

    def test_param_flag_parses_json_scalars(self):
        parser = build_parser()
        args = parser.parse_args(
            ["extract", "--input", "i.csv", "--out", "o.json",
             "--param", "flexible_share=0.1", "--param", "engine=reference"]
        )
        assert dict(args.param) == {"flexible_share": 0.1, "engine": "reference"}


class TestApproaches:
    def test_lists_every_registered_approach(self, capsys):
        assert main(["approaches"]) == 0
        out = capsys.readouterr().out
        for name in available_extractors():
            assert name in out
        assert "1-minute total" in out  # grid column present


class TestExtract:
    def test_schedule_based_from_total_grid(self, total_csv, tmp_path):
        out = tmp_path / "offers.json"
        code = main(
            ["extract", "--input", str(total_csv),
             "--approach", "schedule-based", "--out", str(out)]
        )
        assert code == 0
        assert isinstance(json.loads(out.read_text()), list)

    def test_appliance_approach_rejects_metered_grid(self, metered_csv, tmp_path, capsys):
        code = main(
            ["extract", "--input", str(metered_csv),
             "--approach", "frequency-based", "--out", str(tmp_path / "o.json")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "requires input on the 1-minute grid" in err
        assert "--grid total" in err  # actionable hint

    def test_multi_tariff_requires_reference(self, metered_csv, tmp_path, capsys):
        code = main(
            ["extract", "--input", str(metered_csv),
             "--approach", "multi-tariff", "--out", str(tmp_path / "o.json")]
        )
        assert code == 1
        assert "requires parameter(s) 'reference'" in capsys.readouterr().err

    def test_multi_tariff_with_reference_runs(self, metered_csv, tmp_path):
        out = tmp_path / "offers.json"
        code = main(
            ["extract", "--input", str(metered_csv),
             "--approach", "multi-tariff",
             "--reference", str(metered_csv), "--out", str(out)]
        )
        assert code == 0  # identical reference → zero shift, still a clean run
        assert json.loads(out.read_text()) == []

    def test_param_flag_reaches_the_extractor(self, metered_csv, tmp_path, capsys):
        code = main(
            ["extract", "--input", str(metered_csv), "--approach", "basic",
             "--param", "period_hours=12", "--out", str(tmp_path / "o.json")]
        )
        assert code == 0
        assert "basic:" in capsys.readouterr().out

    @pytest.mark.parametrize("approach", ["basic", "peak-based"])
    def test_household_approach_slices_offers_on_the_input_grid(
        self, approach, metered_csv, tmp_path
    ):
        # A 2-hour grid does not divide the default 1-hour minimum start-time
        # flexibility; every draw still lands inside [1 h, 12 h].
        grid = timedelta(hours=2)
        coarse_csv = tmp_path / "two_hourly.csv"
        save_series_csv(downsample_sum(load_series_csv(metered_csv), grid), coarse_csv)
        out = tmp_path / "offers.json"
        code = main(
            ["extract", "--input", str(coarse_csv), "--approach", approach,
             "--out", str(out)]
        )
        assert code == 0
        offers = load_flexoffers(out)
        assert offers
        for offer in offers:
            assert offer.resolution == grid
            assert timedelta(hours=1) <= offer.time_flexibility <= timedelta(hours=12)

    def test_unknown_param_fails_cleanly(self, metered_csv, tmp_path, capsys):
        code = main(
            ["extract", "--input", str(metered_csv), "--approach", "basic",
             "--param", "wibble=1", "--out", str(tmp_path / "o.json")]
        )
        assert code == 1
        assert "has no parameter 'wibble'" in capsys.readouterr().err


class TestRun:
    def test_run_spec_end_to_end_with_report(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "version": 1,
            "kind": "fleet",
            "name": "cli-test",
            "scenario": {"households": 2, "days": 2, "seed": 7},
            "extractors": [
                {"name": "basic"},
                {"name": "peak-based"},
                {"name": "random-baseline"},
                {"name": "frequency-based"},
            ],
            "pipeline": {"chunk_size": 4},
        }))
        report_path = tmp_path / "report.json"
        code = main(["run", "--spec", str(spec_path), "--out", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "kind=fleet" in out and "frequency-based" in out
        report = RunReport.load(report_path)
        assert len(report.results) == 4
        assert report.total_offers > 0

    def test_shipped_smoke_spec_runs(self, capsys):
        assert SMOKE_SPEC.exists()
        code = main(["run", "--spec", str(SMOKE_SPEC)])
        assert code == 0
        out = capsys.readouterr().out
        assert "schedule-based" in out

    def test_shipped_market_spec_runs_schedule_stage(self, tmp_path, capsys):
        assert MARKET_SPEC.exists()
        report_path = tmp_path / "market.json"
        code = main(["run", "--spec", str(MARKET_SPEC), "--out", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "schedule_cost" in out
        report = RunReport.load(report_path)
        for result in report.results:
            assert result.schedule is not None
            assert "schedule" in result.stage_seconds
            assert result.summary["schedule_placed"] + result.summary[
                "schedule_unplaced"
            ] == float(len(result.aggregates))
        # The full report — schedule stage included — survives the wire.
        assert RunReport.from_json(report.to_json()) == report

    def test_bad_spec_fails_cleanly(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text('{"kind": "party"}')
        assert main(["run", "--spec", str(spec_path)]) == 1
        assert "kind must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, field",
        [
            pytest.param(lambda spec: dict(spec, kind="bench"), "kind", id="bench-kind"),
            pytest.param(
                lambda spec: {"robust": {"sigma": float("inf")}},
                "pipeline.schedule.robust.sigma",
                id="infinite-sigma",
            ),
            pytest.param(lambda spec: {"target_kwh": 1e160}, "target", id="huge-target"),
            pytest.param(
                lambda spec: {
                    "zones": [{"name": "north", "target_kwh": 1e160}, {"name": "south"}]
                },
                "target 'north-target'",
                id="huge-zone-target",
            ),
            pytest.param(
                lambda spec: {"robust": {"sigma": 1e300}}, "scenario 0", id="huge-robust-fan"
            ),
        ],
    )
    def test_malformed_run_spec_fails_cleanly(
        self, edit, field, tmp_path, capsys, monkeypatch
    ):
        # The smoke spec with one bad run setting: a retired kind, or a
        # schedule stage (on a peak-based copy) whose fan or target cannot
        # be scored.  Each is an error line naming the field or the target,
        # raised before a single household is simulated: the scheduler's
        # own rule checks the target (each zone's, or the robust stage's
        # synthetic fan) up front.
        def simulate(*args, **kwargs):
            raise AssertionError("the fleet was simulated")

        monkeypatch.setattr("repro.simulation.dataset.generate_fleet", simulate)
        spec = json.loads(SMOKE_SPEC.read_text())
        edited = edit(spec)
        if "kind" not in edited:
            peak = [e for e in spec["extractors"] if e["name"] == "peak-based"]
            edited = dict(
                spec, extractors=peak, pipeline={**spec["pipeline"], "schedule": edited}
            )
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(edited))
        assert main(["run", "--spec", str(spec_path)]) == 1
        err = capsys.readouterr().err
        assert any(
            line.startswith("error: ") and field in line for line in err.splitlines()
        ), err
        assert "Traceback" not in err

    def test_missing_spec_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", "--spec", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "approach, field, value",
        [
            ("frequency-based", "min_detections", "2"),
            ("schedule-based", "smoothing_minutes", 2.5),
            ("peak-based", "params", {"flexible_share": 0.05}),
            ("peak-based", "slices_min", "2"),
            ("frequency-based", "time_flexibility_min", "x"),
            ("peak-based", "resolution", 1800),
        ],
    )
    def test_malformed_extractor_parameter_fails_cleanly(
        self, approach, field, value, tmp_path, capsys
    ):
        # The smoke spec with one malformed parameter: a typed error line
        # naming the parameter, raised before any extraction runs.
        spec = json.loads(SMOKE_SPEC.read_text())
        spec["extractors"] = [{"name": approach, "params": {field: value}}]
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["run", "--spec", str(spec_path)]) == 1
        err = capsys.readouterr().err
        assert any(
            line.startswith("error: ") and field in line for line in err.splitlines()
        ), err
        assert "Traceback" not in err


class TestEvaluate:
    def test_named_approaches_via_registry(self, capsys):
        code = main(
            ["evaluate", "--households", "2", "--days", "2",
             "--approaches", "basic,random-baseline"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "basic" in out and "random-baseline" in out

    def test_unknown_approach_fails_cleanly(self, capsys):
        code = main(["evaluate", "--households", "2", "--days", "2",
                     "--approaches", "zorp"])
        assert code == 1
        assert "unknown extractor 'zorp'" in capsys.readouterr().err


#: Each suite at a tiny size, and the flags it takes.
BENCH_SMOKES = {
    "fleet": ["--households", "2", "--days", "1"],
    "schedule": ["--aggregates", "12", "--days", "2"],
    "zones": ["--aggregates", "12", "--days", "2"],
    "market": ["--aggregates", "12", "--days", "2"],
    "scale": ["--sizes", "50", "--days", "2"],
    "uncertainty": ["--aggregates", "12", "--days", "2"],
}
BENCH_ACCEPTS = {
    "fleet": {"--households", "--days", "--seed", "--workers", "--chunk-size"},
    "schedule": {"--aggregates", "--days", "--seed"},
    "zones": {"--aggregates", "--days", "--seed", "--zones"},
    "market": {"--aggregates", "--days", "--seed", "--zones"},
    "scale": {"--sizes", "--days", "--seed"},
    "uncertainty": {"--aggregates", "--days", "--seed"},
}
BENCH_PARAMETER_FLAGS = set().union(*BENCH_ACCEPTS.values())


@pytest.fixture(scope="module")
def tiny_run():
    """``tiny_run(suite)``: the suite's report at its tiny size, run once per
    module through the CLI."""
    import repro.cli

    runs: dict[str, dict] = {}
    real = repro.cli.run_preset

    def run(suite: str) -> dict:
        if suite not in runs:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(
                    repro.cli,
                    "run_preset",
                    lambda *args, **kwargs: runs.setdefault(suite, real(*args, **kwargs)),
                )
                assert main(["bench", "--suite", suite, *BENCH_SMOKES[suite]]) == 0
        return runs[suite]

    return run


def _metric_row(out: str, metric: str, value: object) -> bool:
    """Whether ``out`` prints ``metric | value`` as one table row."""
    row = rf"^{re.escape(metric)}\s+{re.escape(str(value))}\s*$"
    return re.search(row, out, re.MULTILINE) is not None


class TestBench:
    def test_fleet_suite_exits_zero_when_equivalent(self, capsys):
        assert main(["bench", "--households", "2", "--days", "1"]) == 0
        assert _metric_row(
            capsys.readouterr().out, "equivalence.batched_equals_sequential", True
        )

    def test_a_false_equivalence_check_fails_the_run(self, monkeypatch, capsys):
        monkeypatch.setattr("repro.pipeline.fleet.results_identical", lambda a, b: False)
        assert main(["bench", "--households", "2", "--days", "1"]) == 1
        captured = capsys.readouterr()
        assert _metric_row(captured.out, "equivalence.batched_equals_sequential", False)
        assert "equivalence check failed: batched_equals_sequential" in captured.err

    def test_a_false_fanout_identity_fails_the_scale_suite(self, monkeypatch, capsys):
        monkeypatch.setattr("repro.pipeline.fleet.results_identical", lambda a, b: False)
        assert main(["bench", "--suite", "scale", *BENCH_SMOKES["scale"]]) == 1
        captured = capsys.readouterr()
        assert _metric_row(captured.out, "equivalence.workers_match_in_process", False)
        assert "equivalence check failed: workers_match_in_process" in captured.err

    def test_a_disagreeing_improver_fails_the_schedule_suite(self, monkeypatch, capsys):
        # The reference improver hands back the greedy schedule unimproved,
        # so the two engines disagree on the improved placements.
        from repro.scheduling import stochastic

        real = stochastic.improve_schedule

        def improve(result, rng, *, engine, **kwargs):
            return result if engine == "reference" else real(
                result, rng, engine=engine, **kwargs
            )

        monkeypatch.setattr(stochastic, "improve_schedule", improve)
        assert main(["bench", "--suite", "schedule", *BENCH_SMOKES["schedule"]]) == 1
        assert (
            "equivalence check failed: improve_identical" in capsys.readouterr().err
        )

    def test_a_disagreeing_improver_fails_the_zones_suite(self, monkeypatch, capsys):
        # The lockstep improver hands back the greedy zones unimproved, so
        # it disagrees with the per-zone reference runs.
        from repro.scheduling import stochastic

        monkeypatch.setattr(
            stochastic, "improve_many", lambda results, rngs, iterations: list(results)
        )
        assert main(["bench", "--suite", "zones", *BENCH_SMOKES["zones"]]) == 1
        assert (
            "equivalence check failed: improve_identical" in capsys.readouterr().err
        )

    @pytest.mark.parametrize("suite", list(BENCH_SMOKES))
    def test_every_suite_exits_zero_at_a_tiny_size(
        self, suite, tmp_path, capsys
    ):
        out = tmp_path / "report.json"
        argv = ["bench", "--suite", suite, *BENCH_SMOKES[suite], "--out", str(out)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert f"wrote {out}" in captured.out
        assert "equivalence check failed" not in captured.err
        equivalence = json.loads(out.read_text())["equivalence"]
        assert equivalence
        for key, value in equivalence.items():
            assert _metric_row(captured.out, f"equivalence.{key}", value), key

    @pytest.mark.parametrize(
        "suite, check",
        [
            (suite, check)
            for suite, checks in {
                "fleet": ["batched_equals_sequential", "reference_matches_vectorized"],
                "schedule": [
                    "placements_identical",
                    "cost_match",
                    "energies_match",
                    "improve_identical",
                ],
                "zones": [
                    "reference_identical_placements",
                    "cost_match",
                    "zone_partition",
                ],
                "market": [
                    "acceptance_identical",
                    "settlements_identical",
                    "prices_identical",
                    "welfare_match",
                    "budget_balanced",
                ],
                "scale": ["workers_match_in_process"],
                "uncertainty": ["robust_reference_identical", "deterministic_across_runs"],
            }.items()
            for check in checks
        ],
    )
    def test_every_false_equivalence_boolean_fails_its_suite(
        self, suite, check, tiny_run, monkeypatch, capsys
    ):
        import copy

        report = tiny_run(suite)
        assert report["equivalence"][check] is True
        forced = copy.deepcopy(report)
        forced["equivalence"][check] = False
        monkeypatch.setattr("repro.cli.run_preset", lambda *a, **k: forced)
        assert main(["bench", "--suite", suite, *BENCH_SMOKES[suite]]) == 1
        assert f"equivalence check failed: {check}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "suite, flag",
        [
            (suite, flag)
            for suite, accepted in BENCH_ACCEPTS.items()
            for flag in sorted(BENCH_PARAMETER_FLAGS - accepted)
        ],
    )
    def test_a_flag_the_suite_does_not_take_is_an_error(self, suite, flag, capsys):
        value = "5,6" if flag == "--sizes" else "5"
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--suite", suite, flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag} is not used by the {suite!r} suite" in err
        takers = [name for name, accepted in BENCH_ACCEPTS.items() if flag in accepted]
        assert f"accepted by: {', '.join(takers)}" in err

    def test_every_parameter_flag_is_listed(self):
        from repro.cli import BENCH_FLAGS

        assert {flag for flag, _, _ in BENCH_FLAGS} == BENCH_PARAMETER_FLAGS
