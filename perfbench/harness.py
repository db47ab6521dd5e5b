"""Measure one workload: repeated set-up, timed operations, checks, metrics.

A run sets the workload up :data:`SETUP_REPEATS` times (``setup_s`` is the
median), then repeats the timed operation in a closed loop until its time
is up.  The first operation's outputs go through the workload's
correctness checks; every later one, traced or not, must reproduce them
bitwise.  With tracing on, half the time runs untraced and half traced,
and the per-layer metrics come from the traced half.

Times are reported in calibrated seconds.  The shared machine switches
between speed phases that last tens of seconds and slow all code alike by
up to 1.7x, which no within-run median removes.  A fixed reference kernel
that shares no code with the program is timed right before and after each
measurement (and between the simulated days of a session), and the wall
time in between is scaled by ``REFERENCE_S / reference time``: a program
change moves the calibrated time, a machine phase cancels out.  The raw wall-clock throughput is
reported next to it.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from perfbench import layers
from perfbench.spans import Tracer, busy_by_name, instrument, write_spans
from perfbench.workloads import WORKLOADS

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Fewest untraced operations an end-to-end run takes, however short.
MIN_OPS = 2

#: Duration of :func:`reference_seconds` on the uncontended machine; the
#: scale of a calibrated second.
REFERENCE_S = 0.08


def reference_seconds() -> float:
    """Wall time of a fixed numpy-plus-interpreter kernel (~``REFERENCE_S``)."""
    t0 = perf_counter()
    x = np.random.default_rng(0).random(1 << 16)
    for _ in range(20):
        np.fft.irfft(np.fft.rfft(x) * np.fft.rfft(x[::-1]))
        np.sort(x)
    tally: dict[int, int] = {}
    for i in range(150_000):
        tally[i % 1000] = tally.get(i % 1000, 0) + i
    return perf_counter() - t0


def _calibrated(run) -> tuple[float, float, object]:
    """Call ``run(pause)``; return its wall seconds, calibrated seconds and result.

    ``run`` returns ``(stretches, result)``: the wall seconds of the timed
    stretches it ran, split wherever it called ``pause()``.  The reference
    kernel runs before, after and at every pause, and each stretch is
    calibrated by the references on either side of it.
    """
    references = [reference_seconds()]
    stretches, result = run(lambda: references.append(reference_seconds()))
    references.append(reference_seconds())
    calibrated = sum(
        stretch * 2 * REFERENCE_S / (before + after)
        for stretch, before, after in zip(stretches, references, references[1:])
    )
    return sum(stretches), calibrated, result


def _setup(workload, *args):
    t0 = perf_counter()
    case = workload.setup(*args)
    return [perf_counter() - t0], case


@dataclass
class Op:
    """One timed operation."""

    run_id: str
    wall: float
    seconds: float  # calibrated
    digest: str
    facts: dict[str, float]
    latencies: dict[str, list[float]]
    counts: Counter


@dataclass
class Result:
    workload: str
    values: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def _operations(workload, case, budget, min_ops, result, tracer=None, hooks=()) -> list[Op]:
    """Run the timed operation until ``budget`` seconds have passed."""
    ops: list[Op] = []
    deadline = perf_counter() + budget
    while len(ops) < min_ops or perf_counter() < deadline:
        gc.collect()
        run_id = f"{'traced' if tracer else 'op'}-{len(ops)}"
        result.attempted += 1
        try:
            if tracer is None:
                wall, seconds, output = _calibrated(lambda pause: workload.run(case, pause))
                counts = Counter()
            else:
                tracer.run_id, tracer.counts = run_id, Counter()
                with instrument(tracer, hooks):
                    wall, seconds, output = _calibrated(lambda pause: workload.run(case, pause))
                counts = tracer.counts
            op = Op(
                run_id,
                wall,
                seconds,
                workload.digest(output),
                workload.facts(case, output),
                workload.latencies(output),
                counts,
            )
            if not ops and tracer is None:
                result.problems += workload.check(case, output)
            workload.release(output)
        except Exception:
            result.failed += 1
            result.problems.append(traceback.format_exc())
            break
        ops.append(op)
    return ops


def _percentile(values: list[float], q: float, scale: float) -> float:
    return float(np.percentile(values, q)) * scale if values else 0.0


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    households: int | None = None,
    min_ops: int = MIN_OPS,
    spans_path: Path | None = None,
) -> Result:
    """Run workload ``name`` and collect every metric it reports."""
    workload = WORKLOADS[name]
    result = Result(name)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        _, calibrated, case = _calibrated(
            lambda pause: _setup(workload, seed, households, workdir)
        )
        setup_s.append(calibrated)
    budget = seconds / 2 if trace else seconds
    ops = _operations(workload, case, budget, 1 if trace else min_ops, result)
    traced: list[Op] = []
    tracer = Tracer()
    if trace and ops:
        hooks = layers.hooks()
        tracer.run_id = "setup"
        with instrument(tracer, hooks):
            case = workload.setup(seed, households, workdir)
        traced = _operations(workload, case, budget, 1, result, tracer, hooks)
    if not ops:
        return result

    first = ops[0]
    drifted = [op for op in ops + traced if (op.digest, op.facts) != (first.digest, first.facts)]
    if drifted:
        result.failed += len(drifted)
        result.problems.append(
            f"outputs of {', '.join(op.run_id for op in drifted)} differ from {first.run_id}"
        )
    if any(op.counts != traced[0].counts for op in traced):
        result.problems.append("layer counts differ between traced operations")
    if result.problems and not result.failed:
        result.failed = result.attempted

    median_s = statistics.median(op.seconds for op in ops)
    median_wall = statistics.median(op.wall for op in ops)
    latencies = {
        kind: [value for op in ops for value in op.latencies.get(kind, ())]
        for kind in ("replan", "ingest")
    }
    values = result.values
    values.update(
        household_weeks_per_s=case.household_weeks / median_s,
        household_weeks_per_wall_s=case.household_weeks / median_wall,
        calibration_factor=statistics.median(op.seconds / op.wall for op in ops),
        setup_s=statistics.median(setup_s),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        imbalance_reduction=first.facts["imbalance_reduction"],
        residual_imbalance=first.facts["residual_imbalance"],
        extracted_share=first.facts["extracted_share"],
        market_welfare_eur=first.facts["market_welfare_eur"],
        replan_p50_ms=_percentile(latencies["replan"], 50, 1e3),
        replan_p90_ms=_percentile(latencies["replan"], 90, 1e3),
        ingest_p50_us=_percentile(latencies["ingest"], 50, 1e6),
        ingest_p99_us=_percentile(latencies["ingest"], 99, 1e6),
        error_rate=result.failed / result.attempted,
    )
    result.notes.append(
        f"{len(ops)} untraced operation(s), median {median_s:.4f} calibrated s "
        f"({median_wall:.4f} wall s); "
        f"{len(latencies['replan'])} replans, {len(latencies['ingest'])} ingests"
    )
    result.notes.append(
        "operation wall/calibrated seconds: "
        + " ".join(f"{op.wall:.3f}/{op.seconds:.3f}" for op in ops)
    )
    if traced:
        values.update(
            layers.layer_metrics(
                tracer,
                [op.run_id for op in traced],
                [op.wall for op in traced],
                traced[0].counts,
            )
        )
        values["simulation.busy_s"] = busy_by_name(tracer.run_spans("setup")).get(
            "simulation", 0.0
        )
        values["trace.overhead"] = (
            statistics.median(op.seconds for op in traced) / median_s - 1.0
        )
        result.notes.append(f"{len(traced)} traced operation(s)")
        if values.get("journal.snapshots"):
            per_snapshot = values["journal.snapshot_busy_s"] / values["journal.snapshots"]
            result.notes.append(
                f"{1e3 * per_snapshot:.1f} ms per snapshot compaction; replan p90 - p50 = "
                f"{values['replan_p90_ms'] - values['replan_p50_ms']:.1f} ms"
            )
        if spans_path is not None:
            write_spans(tracer.spans, spans_path)
            result.notes.append(f"spans written to {spans_path}")
    return result


def report(result: Result, spec: dict, trace: bool) -> dict:
    """The run's last-line JSON: end-to-end metrics, or per-layer ones."""
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            m["name"]: {"value": result.values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in metrics
            if result.values
        },
    }


def print_table(result: Result, spec: dict, trace: bool) -> None:
    """Every metric the run measured, by name with its unit.

    An untraced run measures the end-to-end metrics and the per-layer ones
    that need no spans (latency percentiles, welfare, error rate).
    """
    print(f"workload {result.workload}")
    for note in result.notes:
        print(f"  {note}")
    for group in ("end_to_end", "per_layer"):
        print(f"  {group}:")
        for metric in spec[group]:
            value = result.values.get(metric["name"])
            if value is not None:
                print(f"    {metric['name']:<34} {value:>16.6g} {metric['unit']}")
    busy = {
        name: value
        for name, value in result.values.items()
        if name.endswith("busy_s") and name != "simulation.busy_s" and value
    }
    if trace and busy:
        wall = sum(busy.values())
        print("  layer shares of the traced wall time:")
        for name, value in sorted(busy.items(), key=lambda item: -item[1]):
            print(f"    {name:<34} {value / wall:>8.1%}")
    for problem in result.problems:
        print(f"  CHECK FAILED: {problem}")


def main(args, root: Path) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    out = root / ".perfbench"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out, prefix="work-") as workdir:
        result = measure(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            Path(workdir),
            spans_path=out / f"spans-{args.workload}-seed{args.seed}.jsonl",
        )
    print_table(result, spec, bool(args.trace))
    print(json.dumps(report(result, spec, bool(args.trace))))
    return 0 if result.correct else 1
