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
from datetime import datetime
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appliances.database import ApplianceDatabase, default_database
from repro.appliances.model import ApplianceCategory, ApplianceSpec, flat_shape
from repro.disaggregation.baseline import remove_baseline
from repro.errors import DataError
from repro.disaggregation.matching import (
    _PER_DAY_QUOTA,
    DetectionResult,
    MatchingConfig,
    _Lockstep,
    _nms_picks,
    match_pursuit,
    match_pursuit_many,
)
from repro.timeseries.axis import ONE_MINUTE, TimeAxis
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


# ---------------------------------------------------------------------- #
# Bound pruning: cells whose residual can never host an appliance
# ---------------------------------------------------------------------- #


def test_a_run_at_exactly_the_energy_floor_is_still_detected():
    """A flat run whose fitted energy is exactly ``energy_min·(1 − slack)``
    sits on the pruning bound: round-off in the bound must not prune it.

    Whether the unpruned engine admits the run at all depends on the FFT
    rounding its map value to at least the floor; every case it admits
    must be detected, and enough cases are admitted to make that bite.
    """
    admitted = 0
    for seed in range(32):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(20, 200))
        energy_min = float(rng.uniform(0.5, 5.0))
        slack = float(rng.uniform(0.0, 0.5))
        floor = energy_min * (1.0 - slack)
        database = ApplianceDatabase(
            (
                ApplianceSpec(
                    name="flat",
                    manufacturer="test",
                    category=ApplianceCategory.WET,
                    energy_min_kwh=energy_min,
                    energy_max_kwh=2.0 * energy_min,
                    shape=flat_shape(m),
                    flexible=True,
                ),
            )
        )
        # Low positive noise on day one puts round-off into the bound's
        # cumulative sum; the run itself sits on day two.
        values = np.zeros(2 * 1440)
        values[: 1440 - m] = rng.uniform(0.0, 0.2 * floor / m, 1440 - m)
        t = int(rng.integers(1440, values.size - m))
        values[t : t + m] = floor / m
        series = TimeSeries(TimeAxis(datetime(2024, 1, 1), ONE_MINUTE, values.size), values)
        config = MatchingConfig(energy_slack=slack)
        if _Lockstep([series], database, config).maps[0][0, t] < floor:
            continue
        admitted += 1
        (result,) = match_pursuit_many([series], database, config)
        starts = [series.axis.index_of(d.start) for d in result.detections]
        assert starts == [t], seed
        assert result.detections[0].energy_kwh == pytest.approx(floor)
    assert admitted >= 8


def test_ev_free_households_never_correlate_ev_templates(golden, monkeypatch):
    """No day of an EV-free household can host an EV, so after the set-up
    FFT no patch correlates an EV template (240, 300 and 330 minutes)."""
    key, series = golden_inputs()[0]
    database = default_database()
    lockstep = _Lockstep([series], database, MatchingConfig())
    ev = [i for i, spec in enumerate(database) if spec.name.startswith("ev-")]
    assert not lockstep.live_pairs[0, ev].any()
    lengths = []
    real = np.correlate

    def recording(a, v, mode="valid"):
        lengths.append(len(v))
        return real(a, v, mode=mode)

    monkeypatch.setattr(np, "correlate", recording)
    (result,) = match_pursuit_many([series], database)
    assert lengths, "the pursuit patched nothing"
    assert not {240, 300, 330} & set(lengths)
    assert golden_entry(result) == golden[key]


@settings(max_examples=10, deadline=None)
@given(
    pick=st.integers(0, 15),
    scales=st.lists(st.floats(0.25, 4.0), min_size=1, max_size=3),
    slack=st.floats(0.0, 0.6),
)
def test_pruned_cells_stay_below_the_floor_to_the_end(pick, scales, slack):
    """Every offset of a cell the bound declared dead still fits less than
    the appliance's floor on the *final* residual, by exact direct
    correlation: pruning the cell dropped no candidate the pursuit could
    have taken at any iteration."""
    _, series = golden_inputs()[pick]
    tile = [series.with_values(series.values * scale) for scale in scales]
    database = default_database()
    config = MatchingConfig(energy_slack=slack)
    live = _Lockstep(tile, database, config).live
    results = match_pursuit_many(tile, database, config)
    for household, result in enumerate(results):
        residual = result.residual.values
        for index, spec in enumerate(database):
            dead_days = np.flatnonzero(~live[household, index])
            m = spec.cycle_minutes
            if not dead_days.size or m > residual.size:
                continue
            fitted = np.correlate(residual, spec.shape, mode="valid") / np.dot(spec.shape, spec.shape)
            floor = spec.energy_min_kwh * (1.0 - slack)
            for day in dead_days.tolist():
                offsets = fitted[day * 1440 : (day + 1) * 1440]
                assert not (offsets >= floor).any(), (pick, spec.name, day)


# ---------------------------------------------------------------------- #
# Non-max suppression against its documented rule
# ---------------------------------------------------------------------- #


def nms_oracle(block: np.ndarray, feasible: np.ndarray, cycle_minutes: int):
    """:func:`_nms_picks` as a plain per-row loop of its documented rule:
    the largest feasible value wins, exact ties go to the largest offset,
    and a pick (and every offset closer to it than half a cycle) leaves
    the running."""
    rows = block.shape[0]
    half = cycle_minutes // 2
    picks = np.zeros((rows, _PER_DAY_QUOTA), dtype=np.intp)
    valid = np.zeros((rows, _PER_DAY_QUOTA), dtype=bool)
    for row in range(rows):
        candidates = [int(t) for t in np.flatnonzero(feasible[row])]
        for q in range(_PER_DAY_QUOTA):
            if not candidates:
                break
            best = max(candidates, key=lambda t: (block[row, t], t))
            picks[row, q], valid[row, q] = best, True
            candidates = [t for t in candidates if t != best and abs(t - best) >= half]
    return picks, valid


@st.composite
def nms_blocks(draw):
    rows = draw(st.integers(1, 6), label="rows")
    width = draw(st.integers(1, 40), label="width")
    # Few distinct values, so exact ties are common.
    size = rows * width
    values = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=size, max_size=size))
    density = draw(st.sampled_from([0.0, 0.3, 1.0]), label="density")
    feasible = draw(
        st.lists(
            st.booleans() if 0.0 < density < 1.0 else st.just(density == 1.0),
            min_size=size,
            max_size=size,
        )
    )
    block = np.array(values).reshape(rows, width)
    feasible = np.array(feasible, dtype=bool).reshape(rows, width)
    # Empty rows next to full ones, and an empty first row.
    empty = draw(st.sets(st.integers(0, rows - 1)), label="empty rows")
    feasible[sorted(empty)] = False
    cycle = draw(st.sampled_from([1, 2, 3, 4, 5, 9, 20, 64]), label="cycle minutes")
    return block, feasible, cycle


@settings(max_examples=200, deadline=None)
@given(case=nms_blocks())
def test_nms_picks_follow_the_per_row_rule(case):
    block, feasible, cycle = case
    picks, valid = _nms_picks(block, feasible, cycle)
    expected_picks, expected_valid = nms_oracle(block, feasible, cycle)
    assert valid.tolist() == expected_valid.tolist()
    assert picks.tolist() == expected_picks.tolist()


@pytest.mark.parametrize("cycle", [1, 2, 7])
def test_an_empty_first_row_suppresses_nothing_in_the_last(cycle):
    """An empty row's argmax is its first entry; the first row's window
    around it must not wrap round into the last row's data."""
    width = 12
    block = np.tile(np.arange(width, dtype=float), (3, 1))
    feasible = np.ones_like(block, dtype=bool)
    feasible[0] = False
    picks, valid = _nms_picks(block, feasible, cycle)
    expected_picks, expected_valid = nms_oracle(block, feasible, cycle)
    assert valid.tolist() == expected_valid.tolist()
    assert picks.tolist() == expected_picks.tolist()
    assert not valid[0].any()


def test_an_all_infeasible_block_picks_nothing():
    block = np.ones((4, 30))
    picks, valid = _nms_picks(block, np.zeros_like(block, dtype=bool), 10)
    assert not valid.any() and not picks.any()


# ---------------------------------------------------------------------- #
# Tiles of mixed heights and lengths in one process
# ---------------------------------------------------------------------- #


def result_bytes(result: DetectionResult) -> tuple:
    """Everything a later tile could clobber: residual bytes and energies."""
    return (
        result.residual.values.tobytes(),
        repr(result.explained_kwh),
        [repr(d.energy_kwh) for d in result.detections],
    )


def test_tiles_of_any_height_and_length_reproduce_the_golden(golden):
    """Tiles of 16, 3 and again 16 households of one length, then a tile
    of another length, run one after another in one process: every tile
    reproduces the golden, and no tile changes an earlier tile's
    results."""
    inputs = list(golden_inputs())
    length = 7 * 1440
    same = [(key, series) for key, series in inputs if series.axis.length == length]
    other = [(key, series) for key, series in inputs if series.axis.length != length]
    widest = same * 3  # 18 households of one length
    database = default_database()
    runs = [widest[:16], same[3:6], widest[2:18], other[:4], widest[:16]]
    earlier: list[tuple[DetectionResult, tuple]] = []
    for tile in runs:
        results = match_pursuit_many([series for _, series in tile], database)
        for (key, _), result in zip(tile, results):
            assert golden_entry(result) == golden[key], key
        for result, kept in earlier:
            assert result_bytes(result) == kept
        earlier += [(result, result_bytes(result)) for result in results]


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        GOLDEN.write_text(json.dumps(golden_payload(), indent=1) + "\n")
        print(f"wrote {GOLDEN}")
