"""The benchmark's own tests: the BENCHMARK.json schema, span arithmetic and
a small-fleet smoke run of every workload.

    PYTHONPATH=src python -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import pytest

from perfbench.spans import Hook, Span, Tracer, busy_by_name, instrument, root_time, self_times

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


# ---------------------------------------------------------------------- #
# BENCHMARK.json
# ---------------------------------------------------------------------- #


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(SPEC["command"]) <= 32
    assert all(isinstance(arg, str) and len(arg) <= 200 for arg in SPEC["command"])
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/") and ".." not in path
        assert (ROOT / path).is_dir()
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    names = [item["name"] for group in ("workloads", "end_to_end", "per_layer") for item in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("higher", "lower")
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_workloads_match_the_benchmark():
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #


def _tree() -> list[Span]:
    # root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]; a lone root d [11, 12]
    return [
        Span(0, "root", None, "r", 0.0, 10.0),
        Span(1, "a", 0, "r", 1.0, 4.0),
        Span(2, "b", 0, "r", 5.0, 9.0),
        Span(3, "a", 2, "r", 6.0, 7.0),
        Span(4, "d", None, "r", 11.0, 12.0),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_tree()) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0, 4: 1.0}
    assert busy_by_name(_tree()) == {"root": 3.0, "a": 4.0, "b": 3.0, "d": 1.0}


def test_self_times_add_up_to_the_root_spans():
    assert sum(busy_by_name(_tree()).values()) == root_time(_tree()) == 11.0


def test_tracer_nests_spans_and_rejects_out_of_order_closes():
    tracer = Tracer()
    tracer.run_id = "op-0"
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    assert (inner.parent, outer.parent) == (outer.id, None)
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert {span.run_id for span in tracer.spans} == {"op-0"}
    first, second = tracer.open("x"), tracer.open("y")
    with pytest.raises(RuntimeError):
        tracer.close(first)
    del second


def test_instrument_wraps_imported_names_and_restores_them():
    layer = types.ModuleType("perfbench._layer")
    exec(
        "def leaf(x):\n    return x + 1\n"
        "def branch(x):\n    return leaf(x) * 2\n"
        "def stream(n):\n    yield from range(n)\n",
        layer.__dict__,
    )
    user = types.ModuleType("perfbench._user")
    user.branch = layer.branch
    sys.modules.update({layer.__name__: layer, user.__name__: user})
    originals = (layer.leaf, layer.branch, layer.stream)
    hooks = [
        Hook("perfbench._layer:leaf", "leaf"),
        Hook(
            "perfbench._layer:branch",
            "branch",
            after=lambda tracer, args, kwargs, result, state: tracer.counts.update(calls=1),
        ),
        Hook("perfbench._layer:stream", "stream", generator=True),
    ]
    tracer = Tracer()
    try:
        with instrument(tracer, hooks):
            assert user.branch(1) == 4
            assert list(layer.stream(3)) == [0, 1, 2]
        assert (layer.leaf, layer.branch, layer.stream) == originals
        assert user.branch is originals[1]
    finally:
        for name in (layer.__name__, user.__name__):
            sys.modules.pop(name)
    branch, leaf, stream = tracer.spans
    assert [span.name for span in tracer.spans] == ["branch", "leaf", "stream"]
    assert leaf.parent == branch.id and branch.parent is None and stream.parent is None
    assert tracer.counts["calls"] == 1


# ---------------------------------------------------------------------- #
# Workloads (small fleets)
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Every workload measured traced on a four-household fleet."""
    from perfbench.harness import measure

    return {
        name: measure(name, 3, 0.0, True, tmp_path_factory.mktemp(name), households=4)
        for name in (w["name"] for w in SPEC["workloads"])
    }


def test_smoke_runs_pass_their_checks(smoke):
    for result in smoke.values():
        assert result.correct, result.problems
        assert result.attempted == 2 and result.values["error_rate"] == 0.0


def test_smoke_runs_report_every_metric(smoke):
    from perfbench.harness import report

    for result in smoke.values():
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            line = report(result, SPEC, trace)
            assert list(line["metrics"]) == [m["name"] for m in SPEC[group]]
            assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
        for metric in SPEC["end_to_end"]:
            assert result.values[metric["name"]] > 0, (result.workload, metric["name"])
    # Every layer metric is exercised by at least one workload.
    for metric in SPEC["per_layer"]:
        if metric["name"] not in ("trace.overhead", "error_rate"):
            assert any(r.values.get(metric["name"]) for r in smoke.values()), metric["name"]


def test_layer_rows_leave_no_negative_remainder(smoke):
    for result in smoke.values():
        busy = sum(
            value
            for name, value in result.values.items()
            if name.endswith("busy_s") and name != "simulation.busy_s"
        )
        assert busy > 0
        assert result.values["unaccounted.busy_s"] >= -1e-6


def test_layer_counts_follow_the_workload_shape(smoke):
    fleet, zoned, session = (smoke[w["name"]].values for w in SPEC["workloads"])
    assert fleet["matching.calls"] == fleet["baseline.calls"] == 4
    assert "matching.calls" not in zoned and zoned["clearing.bids"] > 0
    assert session["session.replans"] == 28 * 4 and session["journal.snapshots"] > 0
    assert session["journal.fsyncs"] > session["journal.snapshots"]


def test_operations_repeat_until_the_time_is_up(tmp_path):
    from perfbench.harness import measure

    result = measure("zoned-market", 3, 1.0, False, tmp_path, households=4, min_ops=1)
    assert result.correct and result.attempted >= 2


def test_deterministic_metrics_repeat_at_a_fixed_seed(smoke, tmp_path):
    from perfbench.harness import measure

    again = measure("zoned-market", 3, 0.0, False, tmp_path, households=4, min_ops=1)
    first = smoke["zoned-market"].values
    for name in ("imbalance_reduction", "extracted_share", "market_welfare_eur"):
        assert again.values[name] == first[name]
