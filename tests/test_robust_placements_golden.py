"""Greedy placement, point and robust, against a pinned placements golden.

``tests/data/golden/robust_placements.json`` records, for one small
scheduling workload (40 two-member aggregates over 2 days), every
placement ``(offer_id, start, slice_energies)``, the unplaced offer ids
and a SHA-256 digest of the demand bytes of :func:`greedy_schedule` runs
across both engines, both risk measures (``expected`` and ``cvar``), a
synthetic and an explicit scenario fan, and runs with and without an
``earliest_allowed`` boundary; point-target runs of both engines are
pinned alongside.  The robust and point placement searches are therefore
pinned bitwise together.

The golden is the contract, not a snapshot of the current code: never
regenerate it to make a change pass.  To print the current code's view
(for a diagnosis, not to overwrite the file), run
``PYTHONPATH=src python tests/test_robust_placements_golden.py``.

The property tests pin the identity point scheduling rests on: a point
schedule is bitwise the robust schedule over the one-level fan holding
the target alone.
"""

from __future__ import annotations

import hashlib
import json
from datetime import timedelta
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.bench import build_schedule_workload
from repro.scheduling import RobustConfig, ScheduleConfig, greedy_schedule
from repro.timeseries.series import TimeSeries

GOLDEN = Path(__file__).parent / "data" / "golden" / "robust_placements.json"

ENGINES = ("vectorized", "reference")
RISKS = ("expected", "cvar")
FANS = ("synthetic", "explicit")
WINDOWS = ("open", "bounded")

#: The explicit fan's levels and how each one reshapes the target.
EXPLICIT_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)
EXPLICIT_SHIFTS = (-8, -4, 0, 4, 8)
EXPLICIT_SCALES = (0.7, 0.85, 1.0, 1.15, 1.3)


@lru_cache(maxsize=None)
def workload():
    aggregates, target = build_schedule_workload(
        n_aggregates=40, members_per_aggregate=2, days=2, seed=11
    )
    return [aggregate.offer for aggregate in aggregates], target


def explicit_fan(target: TimeSeries) -> list[TimeSeries]:
    """A deterministic fan that shifts the target in time as well as size."""
    return [
        TimeSeries(target.axis, np.roll(target.values, shift) * scale, f"q{level:g}")
        for level, shift, scale in zip(EXPLICIT_LEVELS, EXPLICIT_SHIFTS, EXPLICIT_SCALES)
    ]


def case_names() -> list[str]:
    names = [f"{engine}/point/{window}" for engine in ENGINES for window in WINDOWS]
    names += [
        f"{engine}/{risk}/{fan}/{window}"
        for engine in ENGINES
        for risk in RISKS
        for fan in FANS
        for window in WINDOWS
    ]
    return names


def run_case(name: str):
    """The schedule one golden case names."""
    offers, target = workload()
    engine, mode, *rest = name.split("/")
    window = rest[-1]
    earliest_allowed = (
        target.axis.start + timedelta(hours=20) if window == "bounded" else None
    )
    if mode == "point":
        return greedy_schedule(
            offers,
            target,
            config=ScheduleConfig(engine=engine),
            earliest_allowed=earliest_allowed,
        )
    fan = rest[0]
    if fan == "synthetic":
        robust = RobustConfig(risk=mode, alpha=0.5)
        scenarios = None
    else:
        robust = RobustConfig(quantiles=EXPLICIT_LEVELS, risk=mode, alpha=0.5)
        scenarios = explicit_fan(target)
    return greedy_schedule(
        offers,
        target,
        config=ScheduleConfig(engine=engine, robust=robust),
        earliest_allowed=earliest_allowed,
        scenarios=scenarios,
    )


def view(result) -> dict:
    """The pinned view of one schedule."""
    return {
        "placements": [
            [s.offer.offer_id, s.start.isoformat(), list(s.slice_energies)]
            for s in result.schedules
        ],
        "unplaced": [offer.offer_id for offer in result.unplaced],
        "demand_sha256": hashlib.sha256(result.demand.values.tobytes()).hexdigest(),
    }


@lru_cache(maxsize=None)
def golden() -> dict:
    return json.loads(GOLDEN.read_text())["cases"]


def test_golden_names_every_case():
    assert list(golden()) == case_names()


@pytest.mark.parametrize("name", case_names())
def test_placements_match_golden(name):
    assert view(run_case(name)) == golden()[name]


def test_golden_cases_place_and_differ():
    cases = golden()
    for entry in cases.values():
        assert entry["placements"]
    # The robust runs must actually move placements, or the golden would
    # only pin the point search.
    point = cases["vectorized/point/open"]["placements"]
    assert any(
        cases[f"vectorized/{risk}/{fan}/open"]["placements"] != point
        for risk in RISKS
        for fan in FANS
    )


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("risk", RISKS)
@pytest.mark.parametrize("engine", ENGINES)
def test_point_is_the_one_level_fan(engine, risk, seed):
    """Point placement is bitwise robust placement over the fan ``{target}``."""
    aggregates, target = build_schedule_workload(
        n_aggregates=24, members_per_aggregate=2, days=2, seed=seed
    )
    offers = [aggregate.offer for aggregate in aggregates]
    earliest_allowed = (
        target.axis.start + timedelta(hours=6 * (seed % 4)) if seed % 2 else None
    )
    point = greedy_schedule(
        offers,
        target,
        config=ScheduleConfig(engine=engine),
        earliest_allowed=earliest_allowed,
    )
    fan = greedy_schedule(
        offers,
        target,
        config=ScheduleConfig(
            engine=engine, robust=RobustConfig(quantiles=(0.5,), risk=risk)
        ),
        earliest_allowed=earliest_allowed,
        scenarios=[target],
    )
    assert view(fan) == view(point)


if __name__ == "__main__":
    # One placement per line keeps the file diffable.
    cases = []
    for name in case_names():
        entry = view(run_case(name))
        rows = ",\n   ".join(json.dumps(row) for row in entry["placements"])
        cases.append(
            f" {json.dumps(name)}: {{\n  \"placements\": [\n   {rows}\n  ],\n"
            f"  \"unplaced\": {json.dumps(entry['unplaced'])},\n"
            f"  \"demand_sha256\": {json.dumps(entry['demand_sha256'])}\n }}"
        )
    print('{"cases": {\n' + ",\n".join(cases) + "\n}}")
