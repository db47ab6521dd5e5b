"""CLI over the unified API: run specs, the approaches table, extract gaps.

The historical CLI hardcoded ``{basic, peak-based}``; these tests pin the
registry-backed grammar: every registered approach is extractable, grid
mismatches fail with actionable errors, and ``repro run`` executes a
declarative spec end to end (including the shipped smoke spec used by CI).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import RunReport, available_extractors
from repro.cli import build_parser, main

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

    def test_missing_spec_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", "--spec", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err


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


class TestBench:
    def test_fleet_suite_exits_zero_when_equivalent(self, capsys):
        assert main(["bench", "--households", "2", "--days", "1"]) == 0
        assert "batched == sequential: True" in capsys.readouterr().out

    def test_a_false_equivalence_check_fails_the_run(self, monkeypatch, capsys):
        monkeypatch.setattr("repro.pipeline.bench.results_identical", lambda a, b: False)
        assert main(["bench", "--households", "2", "--days", "1"]) == 1
        captured = capsys.readouterr()
        assert "batched == sequential: False" in captured.out
        assert "equivalence check failed: batched_equals_sequential" in captured.err

    def test_a_false_fanout_identity_fails_the_scale_suite(self, monkeypatch, capsys):
        # Stub the two fleet-sized sections; the ladder itself runs for real.
        fanout = {
            "households": 10,
            "matrix_mb": 0.1,
            "jobs": 1,
            "pickled_seconds": 0.02,
            "shared_seconds": 0.01,
            "speedup": 2.0,
            "meets_min_speedup": True,
        }
        streaming = {"peak_is_chunk_bound": True, "peak_growth_at_3x_households": 1.0}
        monkeypatch.setattr(
            "repro.pipeline.bench._fanout_comparison", lambda *args: (fanout, False)
        )
        monkeypatch.setattr(
            "repro.pipeline.bench._streaming_section", lambda *args: streaming
        )
        assert main(["bench", "--suite", "scale", "--sizes", "50", "--days", "2"]) == 1
        captured = capsys.readouterr()
        assert "results identical: False" in captured.out
        assert "equivalence check failed: fanout_results_identical" in captured.err
