"""Command-line interface: a thin shell over :mod:`repro.api`.

Installed as the ``repro`` console script::

    repro simulate   --households 5 --days 7 --out data/
    repro extract    --input data/hh-0000.csv --approach peak-based \
                     --param flexible_share=0.05 --out offers.json
    repro run        --spec examples/specs/smoke.json --out report.json
    repro session    --replay examples/specs/session_events.json
    repro approaches
    repro evaluate   --households 6 --days 7
    repro bench      --households 20 --days 7 --out BENCH_fleet.json
    repro conformance --out conformance.json
    repro figures

Every subcommand routes through the same service surface programmatic
callers use: extractors are resolved by name via the registry
(``repro approaches`` lists them), whole runs are described by declarative
:class:`~repro.api.spec.RunSpec` JSON files, and
:class:`~repro.api.service.FlexibilityService` executes them.  The CLI
itself only parses flags, loads/saves files and prints tables.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime
from pathlib import Path

from repro.api import (
    ExtractorSpec,
    FlexibilityService,
    PipelineSpec,
    RunSpec,
    ScenarioSpec,
    available_extractors,
    load_run_spec,
    registry_rows,
)
from repro.errors import ReproError
from repro.evaluation.comparison import DEFAULT_SUITE
from repro.evaluation.realism import format_table
from repro.flexoffer.io import save_flexoffers
from repro.pipeline import stage_table_rows
from repro.simulation import generate_fleet
from repro.timeseries.io import load_series_csv, save_series_csv

_SERVICE = FlexibilityService()

#: The benchmark suites `repro bench --suite` accepts, with one-line
#: descriptions.  Both the argparse choices and the help text are generated
#: from this table, so the help can no longer drift from the real suite
#: names (it previously did when the schedule suite landed).
BENCH_SUITES: dict[str, str] = {
    "fleet": "batched extract->aggregate->schedule pipeline vs the "
    "sequential loop (BENCH_fleet.json)",
    "schedule": "vectorized vs reference placement engine on aggregated "
    "offers (BENCH_schedule.json)",
    "zones": "zone-sharded multi-market scheduling, vectorized vs "
    "reference engine (BENCH_zones.json)",
    "market": "merit-order market clearing on the priced 220-aggregate "
    "suite, batched vs reference bid derivation (BENCH_market.json)",
    "scale": "million-household scale-out: streaming throughput ladder, "
    "shared-memory fan-out vs pickling and O(chunk) memory proof "
    "(BENCH_scale.json)",
    "uncertainty": "robust quantile-fan scheduling vs point scheduling: "
    "overhead gate, bitwise engine equivalence and per-quantile realized "
    "costs (BENCH_uncertainty.json)",
}


def _parse_date(text: str) -> datetime:
    try:
        return datetime.fromisoformat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad date {text!r}: {exc}") from exc


def _parse_param(text: str) -> tuple[str, object]:
    """Parse one ``key=value`` extractor parameter (JSON-style scalars)."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"bad parameter {text!r}: expected key=value"
        )
    import json

    try:
        value: object = json.loads(raw)
    except ValueError:
        value = raw  # bare strings stay strings
    return key, value


def _parse_sizes(text: str) -> tuple[int, ...]:
    """Parse the scale suite's comma-separated household ladder."""
    try:
        sizes = tuple(int(piece) for piece in text.split(",") if piece.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad sizes {text!r}: {exc}") from exc
    if not sizes or any(size < 1 for size in sizes):
        raise argparse.ArgumentTypeError(
            f"bad sizes {text!r}: expected positive integers"
        )
    return sizes


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument grammar."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Flexibility extraction from electricity time series "
        "(Kaulakiene et al., EDBT/ICDT Workshops 2013).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a household fleet to CSV")
    sim.add_argument("--households", type=int, default=5)
    sim.add_argument("--days", type=int, default=7)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--start", type=_parse_date, default=datetime(2012, 3, 5))
    sim.add_argument(
        "--grid", choices=("metered", "total"), default="metered",
        help="which series to write: 15-minute metered (default) or "
        "1-minute total (the appliance-level approaches' input)",
    )
    sim.add_argument("--out", type=Path, required=True, help="output directory")

    ext = sub.add_parser("extract", help="extract flex-offers from a CSV series")
    ext.add_argument("--input", type=Path, required=True, help="timestamp,value CSV")
    ext.add_argument(
        "--approach", choices=available_extractors(), default="peak-based",
        help="any registered approach (see `repro approaches`)",
    )
    ext.add_argument("--share", type=float, default=None,
                     help="flexible share (shorthand for --param flexible_share=X)")
    ext.add_argument(
        "--param", type=_parse_param, action="append", default=[],
        metavar="KEY=VALUE",
        help="extractor parameter, repeatable (e.g. --param engine=reference)",
    )
    ext.add_argument(
        "--reference", type=Path, default=None,
        help="one-tariff reference CSV (required by the multi-tariff approach)",
    )
    ext.add_argument("--seed", type=int, default=0)
    ext.add_argument("--out", type=Path, required=True, help="offers JSON path")

    run = sub.add_parser(
        "run", help="execute a declarative run spec (simulate→extract→aggregate)"
    )
    run.add_argument("--spec", type=Path, required=True, help="RunSpec JSON file")
    run.add_argument("--out", type=Path, default=None,
                     help="write the full RunReport JSON here")
    run.add_argument("--workers", type=int, default=None,
                     help="override the spec's worker fan-out")

    ses = sub.add_parser(
        "session",
        help="replay a recorded ingest/replan/commit event stream through "
        "a rolling-horizon flexibility session",
    )
    ses.add_argument("--replay", type=Path, required=True,
                     help="session events JSON (spec + ordered event list)")
    ses.add_argument("--out", type=Path, default=None,
                     help="write the full replay report JSON here")
    ses.add_argument("--journal", type=Path, default=None,
                     help="journal every event into a durable write-ahead "
                     "log in this directory (crash-recoverable)")
    ses.add_argument("--resume", action="store_true",
                     help="recover the session from --journal first, then "
                     "replay only the events the crashed run never applied")

    sub.add_parser("approaches", help="list every registered extraction approach")

    ev = sub.add_parser("evaluate", help="run the approach comparison")
    ev.add_argument("--households", type=int, default=4)
    ev.add_argument("--days", type=int, default=7)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument(
        "--approaches", default=None,
        help="comma-separated registry names, or 'suite' for the full "
        "default comparison suite (default: basic,peak-based)",
    )
    ev.add_argument("--include-random", action="store_true",
                    help="include the random baseline")

    bench = sub.add_parser(
        "bench",
        help="run a benchmark suite: the fleet pipeline, the scheduling "
        "engine, or the zone-sharded multi-market scheduler",
    )
    bench.add_argument(
        "--suite", choices=tuple(BENCH_SUITES), default="fleet",
        help="; ".join(f"'{name}' = {text}" for name, text in BENCH_SUITES.items()),
    )
    bench.add_argument("--households", type=int, default=20,
                       help="fleet size (fleet suite)")
    bench.add_argument("--days", type=int, default=None,
                       help="target axis length; defaults to the suite's "
                       "canonical baseline (fleet/schedule/zones/market: 7, "
                       "scale: 30)")
    bench.add_argument("--seed", type=int, default=None,
                       help="workload seed; defaults to the suite's canonical "
                       "baseline seed (fleet: 13, schedule/zones/market: 17, "
                       "scale: 23), so `--out BENCH_*.json` refreshes the "
                       "committed baseline on the same workload the pytest "
                       "gate measures")
    bench.add_argument("--workers", type=int, default=None,
                       help="fan extraction out over N worker processes (fleet suite)")
    bench.add_argument("--chunk-size", type=int, default=8,
                       help="households per batch (fleet suite)")
    bench.add_argument("--aggregates", type=int, default=220,
                       help="aggregated offers to place "
                       "(schedule/zones/market suites)")
    bench.add_argument("--zones", type=int, default=4,
                       help="market zones to shard into (zones/market suites)")
    bench.add_argument("--sizes", type=_parse_sizes, default=None,
                       metavar="N,N,...",
                       help="comma-separated household ladder for the scale "
                       "suite (default: 1000,10000,100000)")
    bench.add_argument("--out", type=Path, default=None,
                       help="write the JSON report here (e.g. BENCH_fleet.json, "
                       "BENCH_schedule.json or BENCH_zones.json)")

    conf = sub.add_parser(
        "conformance",
        help="run the scenario-matrix invariant harness over every "
        "registered extractor",
    )
    conf.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="restrict to one matrix scenario (repeatable; default: all)",
    )
    conf.add_argument(
        "--extractor", action="append", default=None, metavar="NAME",
        help="restrict to one registered approach (repeatable; default: all)",
    )
    conf.add_argument(
        "--invariant", action="append", default=None, metavar="NAME",
        help="restrict to one invariant (repeatable; default: full library)",
    )
    conf.add_argument("--list", action="store_true",
                      help="list the matrix scenarios and invariants, then exit")
    conf.add_argument("--workers", type=int, default=None,
                      help="fan matrix cells out over N worker processes "
                      "(the report is identical to the in-process run)")
    conf.add_argument("--out", type=Path, default=None,
                      help="write the full ConformanceReport JSON here")
    conf.add_argument("--markdown", type=Path, default=None,
                      help="write the report as a markdown table here "
                      "(e.g. for the CI job summary)")

    sub.add_parser("figures", help="print the paper's figures (ASCII)")
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    fleet = generate_fleet(args.households, args.start, args.days, seed=args.seed)
    for trace in fleet:
        series = trace.total if args.grid == "total" else trace.metered()
        path = args.out / f"{trace.config.household_id}.csv"
        save_series_csv(series, path)
        print(f"wrote {path} ({series.total():.1f} kWh, {args.grid} grid)")
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    series = load_series_csv(args.input, name=args.input.stem)
    params = dict(args.param)
    if args.share is not None:
        params["flexible_share"] = args.share
    if args.reference is not None:
        params["reference"] = load_series_csv(args.reference, name=args.reference.stem)
    result = _SERVICE.extract(args.approach, series, seed=args.seed, **params)
    save_flexoffers(result.offers, args.out)
    print(
        f"{args.approach}: {len(result.offers)} offers, "
        f"{result.extracted_energy:.2f} kWh "
        f"({result.extracted_share:.1%} of input), "
        f"conservation error {result.energy_conservation_error():.2e} kWh"
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = load_run_spec(args.spec)
    if args.workers is not None:
        spec = spec.with_overrides(
            pipeline=PipelineSpec.from_dict(
                {**spec.pipeline.to_dict(), "workers": args.workers}
            )
        )
    label = spec.name or args.spec.stem
    print(
        f"run {label!r}: kind={spec.kind}, "
        f"{spec.scenario.households} households x {spec.scenario.days} days, "
        f"approaches: {', '.join(e.name for e in spec.extractors)}"
    )
    report = _SERVICE.run(spec)
    print(format_table(report.table_rows()))
    from repro.scheduling.zones import ZonedScheduleResult

    for result in report.results:
        if isinstance(result.schedule, ZonedScheduleResult):
            print(f"\n{result.extractor} — zone schedule:")
            print(format_table(result.schedule.zone_rows()))
            if result.schedule.clearing is not None:
                print(f"\n{result.extractor} — market clearing:")
                print(format_table(result.schedule.clearing.table_rows()))
        if "robust_risk" in result.summary:
            summary = result.summary
            print(f"\n{result.extractor} — uncertainty (robust scheduling):")
            print(
                format_table(
                    [
                        {
                            "quantile": band,
                            "realized_cost": round(summary[key], 4),
                        }
                        for band, key in (
                            ("low", "realized_cost_low_q"),
                            ("median", "realized_cost_median_q"),
                            ("high", "realized_cost_high_q"),
                        )
                    ]
                )
            )
            print(
                f"risk measure: {summary['robust_risk']} over "
                f"{int(summary['robust_scenarios'])} quantile scenarios"
            )
    if args.out is not None:
        report.save(args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_session(args: argparse.Namespace) -> int:
    from repro.errors import SessionReplayError
    from repro.session import replay_session

    if args.resume and args.journal is None:
        print("error: --resume needs --journal DIR", file=sys.stderr)
        return 2
    try:
        report = replay_session(
            args.replay, journal_dir=args.journal, resume=args.resume
        )
    except SessionReplayError as exc:
        # The partial report is still written: progress up to the failed
        # event survives for diagnosis (and the journal, if any, makes the
        # applied prefix recoverable with --resume).
        if args.out is not None and exc.report is not None:
            import json

            args.out.write_text(json.dumps(exc.report, indent=2, sort_keys=True) + "\n")
            print(f"wrote partial report to {args.out}", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    label = report["spec_name"] or args.replay.stem
    print(
        f"session {label!r}: {report['events']} events, "
        f"{len(report['replans'])} snapshots"
    )
    print(format_table(report["replans"]))
    print(
        f"\ncommitted placements: {report['committed']}; "
        f"stable across replans: {report['committed_stable']}"
    )
    if args.out is not None:
        import json

        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0 if report["committed_stable"] else 1


def _cmd_approaches(_args: argparse.Namespace) -> int:
    print(format_table(registry_rows()))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if args.approaches == "suite":
        names = list(DEFAULT_SUITE)
    elif args.approaches:
        names = [n.strip() for n in args.approaches.split(",") if n.strip()]
    else:
        names = ["basic", "peak-based"]
    if args.include_random and "random-baseline" not in names:
        names.insert(0, "random-baseline")
    spec = RunSpec(
        kind="compare",
        scenario=ScenarioSpec(
            households=args.households, days=args.days, seed=args.seed
        ),
        extractors=tuple(ExtractorSpec(name) for name in names),
    )
    report = _SERVICE.run(spec)
    print(format_table(report.table_rows()))
    return 0


def _equivalence_status(report: dict) -> int:
    """A bench run's exit status: 1 when any equivalence check is false."""
    failed = [
        name for name, value in report.get("equivalence", {}).items() if value is False
    ]
    if failed:
        print(f"error: equivalence check failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.suite == "schedule":
        return _cmd_bench_schedule(args)
    if args.suite == "zones":
        return _cmd_bench_zones(args)
    if args.suite == "market":
        return _cmd_bench_market(args)
    if args.suite == "scale":
        return _cmd_bench_scale(args)
    if args.suite == "uncertainty":
        return _cmd_bench_uncertainty(args)
    from repro.pipeline import run_fleet_benchmark

    if args.seed is None:
        args.seed = 13  # the committed BENCH_fleet.json workload
    if args.days is None:
        args.days = 7
    print(
        f"Fleet benchmark: {args.households} households x {args.days} days "
        f"(seed {args.seed}, workers {args.workers or 1}) ..."
    )
    report, result = run_fleet_benchmark(
        n_households=args.households,
        days=args.days,
        seed=args.seed,
        workers=args.workers,
        chunk_size=args.chunk_size,
        out_path=args.out,
    )
    print(format_table(stage_table_rows(report, result)))
    schedule = report["schedule"]
    equivalence = report["equivalence"]
    print(
        f"\nschedule stage: {schedule['placed']} aggregates placed on a "
        f"{schedule['target_kwh']:.1f} kWh target "
        f"({schedule['improvement']:.1%} imbalance reduction)"
    )
    print(
        f"speedup: {report['speedup']}x over the sequential reference loop; "
        f"batched == sequential: {equivalence['batched_equals_sequential']}; "
        f"reference matches within {equivalence['fidelity_rtol']:g}: "
        f"{equivalence['reference_matches_vectorized']}"
    )
    if args.out is not None:
        print(f"wrote {args.out}")
    return _equivalence_status(report)


def _cmd_bench_schedule(args: argparse.Namespace) -> int:
    from repro.scheduling import run_schedule_benchmark, schedule_table_rows

    if args.seed is None:
        args.seed = 17  # the committed BENCH_schedule.json workload
    if args.days is None:
        args.days = 7
    print(
        f"Schedule benchmark: {args.aggregates} aggregated offers x "
        f"{args.days} day target (seed {args.seed}) ..."
    )
    report, _ = run_schedule_benchmark(
        n_aggregates=args.aggregates,
        days=args.days,
        seed=args.seed,
        out_path=args.out,
    )
    print(format_table(schedule_table_rows(report)))
    equivalence = report["equivalence"]
    print(
        f"\ngreedy speedup: {report['greedy']['speedup']}x; placements "
        f"identical: {equivalence['placements_identical']}; cost within "
        f"{equivalence['fidelity_rtol']:g}: {equivalence['cost_match']}"
    )
    if args.out is not None:
        print(f"wrote {args.out}")
    return _equivalence_status(report)


def _cmd_bench_zones(args: argparse.Namespace) -> int:
    from repro.scheduling import run_zones_benchmark, zones_table_rows

    if args.seed is None:
        args.seed = 17  # the committed BENCH_zones.json workload
    if args.days is None:
        args.days = 7
    print(
        f"Zones benchmark: {args.aggregates} aggregated offers sharded into "
        f"{args.zones} market zones x {args.days} day targets (seed {args.seed}) ..."
    )
    report, _ = run_zones_benchmark(
        n_aggregates=args.aggregates,
        days=args.days,
        seed=args.seed,
        zones=args.zones,
        out_path=args.out,
    )
    print(format_table(zones_table_rows(report)))
    greedy = report["greedy"]
    equivalence = report["equivalence"]
    print(
        f"\nvectorized engine: {greedy['vectorized_seconds']}s "
        f"({greedy['speedup_vs_reference']}x vs reference); placements "
        f"identical to reference: "
        f"{equivalence['reference_identical_placements']}; "
        f"workers fan-out identical: {equivalence['workers_match_sequential']}"
    )
    if args.out is not None:
        print(f"wrote {args.out}")
    return _equivalence_status(report)


def _cmd_bench_market(args: argparse.Namespace) -> int:
    from repro.market import market_table_rows, run_market_benchmark

    if args.seed is None:
        args.seed = 17  # the committed BENCH_market.json workload
    if args.days is None:
        args.days = 7
    print(
        f"Market benchmark: {args.aggregates} priced aggregates cleared over "
        f"{args.zones} zone markets x {args.days} day targets (seed {args.seed}) ..."
    )
    report, _ = run_market_benchmark(
        n_aggregates=args.aggregates,
        days=args.days,
        seed=args.seed,
        zones=args.zones,
        out_path=args.out,
    )
    print(format_table(market_table_rows(report)))
    clearing = report["clearing"]
    equivalence = report["equivalence"]
    print(
        f"\nclearing speedup: {clearing['speedup']}x over the reference "
        f"scalar loops; acceptance sets identical: "
        f"{equivalence['acceptance_identical']}; prices bitwise: "
        f"{equivalence['prices_identical']}; welfare within "
        f"{equivalence['fidelity_rtol']:g}: {equivalence['welfare_match']}"
    )
    if args.out is not None:
        print(f"wrote {args.out}")
    return _equivalence_status(report)


def _cmd_bench_scale(args: argparse.Namespace) -> int:
    from repro.pipeline import SCALE_SIZES, run_scale_benchmark, scale_table_rows

    if args.seed is None:
        args.seed = 23  # the committed BENCH_scale.json workload
    if args.days is None:
        args.days = 30
    sizes = args.sizes if args.sizes is not None else SCALE_SIZES
    print(
        f"Scale benchmark: {', '.join(str(s) for s in sizes)} households x "
        f"{args.days} days (seed {args.seed}) ..."
    )
    report = run_scale_benchmark(
        sizes=sizes,
        days=args.days,
        seed=args.seed,
        out_path=args.out,
    )
    print(format_table(scale_table_rows(report)))
    fanout = report["fanout"]
    streaming = report["streaming"]
    print(
        f"\nshared-memory fan-out: {fanout['speedup']}x over pickling "
        f"(gate >= 2x: {fanout['meets_min_speedup']}; results identical: "
        f"{report['equivalence']['fanout_results_identical']}); streaming "
        f"peak chunk-bound: {streaming['peak_is_chunk_bound']} "
        f"({streaming['peak_growth_at_3x_households']}x peak at 3x "
        f"households)"
    )
    if args.out is not None:
        print(f"wrote {args.out}")
    return _equivalence_status(report)


def _cmd_bench_uncertainty(args: argparse.Namespace) -> int:
    from repro.scheduling import run_uncertainty_benchmark, uncertainty_table_rows

    if args.seed is None:
        args.seed = 17  # the committed BENCH_uncertainty.json workload
    if args.days is None:
        args.days = 7
    print(
        f"Uncertainty benchmark: {args.aggregates} aggregated offers x "
        f"{args.days} day target, robust quantile fan vs point scheduling "
        f"(seed {args.seed}) ..."
    )
    report, _ = run_uncertainty_benchmark(
        n_aggregates=args.aggregates,
        days=args.days,
        seed=args.seed,
        out_path=args.out,
    )
    print(format_table(uncertainty_table_rows(report)))
    greedy = report["greedy"]
    equivalence = report["equivalence"]
    print(
        f"\nrobust overhead: {greedy['overhead']}x point scheduling "
        f"(gate <= {greedy['overhead_gate']:g}x: {greedy['meets_overhead_gate']}); "
        f"reference identical: {equivalence['robust_reference_identical']}; "
        f"deterministic: {equivalence['deterministic_across_runs']}"
    )
    if args.out is not None:
        print(f"wrote {args.out}")
    return _equivalence_status(report)


def _cmd_conformance(args: argparse.Namespace) -> int:
    from repro.conformance import INVARIANTS, scenario_matrix

    if args.list:
        rows = [
            {
                "scenario": s.name,
                "tags": ",".join(sorted(s.tags)),
                "description": s.description,
            }
            for s in scenario_matrix()
        ]
        print(format_table(rows))
        print(f"\ninvariants: {', '.join(INVARIANTS)}")
        return 0
    report = _SERVICE.conformance(
        scenarios=args.scenario,
        extractors=args.extractor,
        invariants=args.invariant,
        workers=args.workers,
    )
    print(format_table(report.table_rows()))
    summary = report.summary()
    print(
        f"\n{summary['cells']} cells: {summary['passed']} passed, "
        f"{summary['failed']} failed, {summary['violations']} violations"
    )
    for violation in report.violations():
        print(f"  {violation}", file=sys.stderr)
    if args.out is not None:
        report.save(args.out)
        print(f"wrote {args.out}")
    if args.markdown is not None:
        report.save_markdown(args.markdown)
        print(f"wrote {args.markdown}")
    return 0 if report.passed else 1


def _cmd_figures(_args: argparse.Namespace) -> int:
    # The renderers ship inside the wheel (repro.examples); imported lazily
    # to keep CLI start fast, with a library-only fallback for stripped
    # installs (e.g. a vendored copy without the examples subpackage).
    import importlib

    try:
        module = importlib.import_module("repro.examples.paper_figures")
    except ImportError:
        module = None
    if module is not None:
        module.show_figure1()
        module.show_figure4()
        module.show_figure5()
        return 0
    # Examples absent: print the core Figure 5 walkthrough from the library.
    from repro.extraction.peaks import detect_peaks, filter_peaks, selection_probabilities
    from repro.workloads.paper_day import figure5_day

    day = figure5_day()
    peaks = detect_peaks(day.series.values)
    print(f"Figure 5 day: total {day.series.total():.2f} kWh, {len(peaks)} peaks")
    survivors = filter_peaks(peaks, day.filter_threshold)
    for peak, prob in zip(survivors, selection_probabilities(survivors)):
        print(f"  surviving peak size {peak.size:.2f} kWh, P={prob:.0%}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "extract": _cmd_extract,
        "run": _cmd_run,
        "session": _cmd_session,
        "approaches": _cmd_approaches,
        "evaluate": _cmd_evaluate,
        "bench": _cmd_bench,
        "conformance": _cmd_conformance,
        "figures": _cmd_figures,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
