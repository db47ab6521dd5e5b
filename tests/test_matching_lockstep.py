"""Lockstep matching pursuit against a pinned detections golden.

``tests/data/golden/matching_detections.json`` records, per household of
five conformance scenarios, every detection (appliance, start minute,
``repr`` of its energy), the explained energy and a SHA-256 of the final
residual.  :func:`~repro.disaggregation.matching.match_pursuit_many` must
reproduce it bitwise whatever tile the household runs in: alone, in a
tile of three, or in one tile with every other household, in any order.

Regenerate the golden (after an *intentional* change of the pursuit's
semantics) with::

    PYTHONPATH=src python tests/test_matching_lockstep.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appliances.database import default_database
from repro.disaggregation.baseline import remove_baseline
from repro.errors import DataError
from repro.disaggregation.matching import (
    DetectionResult,
    MatchingConfig,
    match_pursuit,
    match_pursuit_many,
)
from repro.timeseries.series import TimeSeries
from repro.workloads import scenarios

GOLDEN = Path(__file__).parent / "data" / "golden" / "matching_detections.json"

#: (scenario name, fleet builder, household indices) pinned by the golden.
GOLDEN_HOUSEHOLDS = (
    ("large-fleet", scenarios.large_fleet, (5, 17, 42, 99)),
    ("dst-transition-week", scenarios.dst_transition_fleet, (0, 1, 3)),
    ("dst-fallback-week", scenarios.dst_fallback_fleet, (0, 2, 3)),
    ("gap-ridden-metering", scenarios.gap_ridden_fleet, (0, 1, 2)),
    ("ev-heavy", scenarios.ev_heavy_fleet, (0, 1, 4)),
)


@lru_cache(maxsize=None)
def golden_inputs() -> tuple[tuple[str, TimeSeries], ...]:
    """``(key, appliance series)`` per pinned household, in golden order.

    The input is what the appliance-level extractors hand the pursuit: the
    household total minus its rolling baseline (default knobs).
    """
    inputs = []
    for name, build, indices in GOLDEN_HOUSEHOLDS:
        traces = list(build())
        for index in indices:
            trace = traces[index]
            appliance, _ = remove_baseline(trace.total)
            inputs.append((f"{name}/{trace.config.household_id}", appliance))
    return tuple(inputs)


def golden_entry(result: DetectionResult) -> dict:
    """One household's pinned view of a pursuit result."""
    axis = result.residual.axis
    return {
        "detections": [
            [d.appliance, axis.index_of(d.start), repr(d.energy_kwh)]
            for d in result.detections
        ],
        "explained_kwh": repr(result.explained_kwh),
        "residual_sha256": hashlib.sha256(result.residual.values.tobytes()).hexdigest(),
    }


def golden_payload() -> dict:
    database = default_database()
    return {
        key: golden_entry(match_pursuit(series, database))
        for key, series in golden_inputs()
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_pinned_households(golden):
    assert list(golden) == [key for key, _ in golden_inputs()]
    assert len(golden) >= 12
    assert all(entry["detections"] for entry in golden.values())


def test_single_series_pursuit_reproduces_the_golden(golden):
    assert golden_payload() == golden


@pytest.mark.parametrize("width", [1, 3, 16])
def test_lockstep_tiles_reproduce_the_golden(golden, width):
    inputs = list(golden_inputs())
    random.Random(width).shuffle(inputs)
    database = default_database()
    for first in range(0, len(inputs), width):
        tile = inputs[first : first + width]
        results = match_pursuit_many([series for _, series in tile], database)
        for (key, _), result in zip(tile, results):
            assert golden_entry(result) == golden[key], key


@settings(max_examples=12, deadline=None)
@given(
    target=st.integers(0, 15),
    others=st.lists(st.integers(0, 15), max_size=4),
    position=st.integers(0, 4),
)
def test_a_households_result_ignores_its_tile_mates(golden, target, others, position):
    inputs = golden_inputs()
    tile = [inputs[i][1] for i in others]
    position = min(position, len(tile))
    tile.insert(position, inputs[target][1])
    results = match_pursuit_many(tile, default_database())
    assert golden_entry(results[position]) == golden[inputs[target][0]]


def test_household_ids_stamp_each_tile_member():
    (_, a), (_, b) = golden_inputs()[:2]
    first, second = match_pursuit_many([a, b], default_database(), household_ids=["a", "b"])
    assert {d.household_id for d in first.detections} == {"a"}
    assert {d.household_id for d in second.detections} == {"b"}


def test_pursuit_tile_answers_member_calls_from_one_run(golden, monkeypatch):
    from repro.disaggregation import matching

    runs = []
    real = matching.match_pursuit_many

    def counting(series, *args, **kwargs):
        runs.append(len(series))
        return real(series, *args, **kwargs)

    monkeypatch.setattr(matching, "match_pursuit_many", counting)
    members = [series for _, series in golden_inputs()[4:7]]
    outsider = golden_inputs()[7][1]
    database = default_database()
    with matching.pursuit_tile(members, database):
        inside = [match_pursuit(series, database) for series in members]
        alone = match_pursuit(outsider, database)
    assert runs == [3, 1]
    keys = [key for key, _ in golden_inputs()[4:8]]
    assert [golden_entry(r) for r in inside + [alone]] == [golden[key] for key in keys]


def test_mismatched_household_ids_are_rejected():
    (_, series), = golden_inputs()[:1]
    with pytest.raises(DataError, match="2 household ids for 1 series"):
        match_pursuit_many([series], default_database(), household_ids=["a", "b"])


def test_reference_engine_runs_per_series():
    (_, series), = golden_inputs()[4:5]
    config = MatchingConfig(engine="reference", max_iterations=3)
    (many,) = match_pursuit_many([series], default_database(), config)
    single = match_pursuit(series, default_database(), config)
    assert golden_entry(many) == golden_entry(single)


def test_empty_tile_returns_no_results():
    assert match_pursuit_many([], default_database()) == []


def test_lockstep_matches_sequential_on_a_random_tile():
    rng = np.random.default_rng(5)
    inputs = golden_inputs()
    picks = [inputs[int(i)][1] for i in rng.choice(len(inputs), size=5, replace=False)]
    database = default_database()
    together = match_pursuit_many(picks, database)
    alone = [match_pursuit(series, database) for series in picks]
    assert [golden_entry(r) for r in together] == [golden_entry(r) for r in alone]


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        GOLDEN.write_text(json.dumps(golden_payload(), indent=1) + "\n")
        print(f"wrote {GOLDEN}")
