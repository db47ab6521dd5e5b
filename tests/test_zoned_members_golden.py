"""The zoned market path, end to end, against a pinned digests golden.

``tests/data/golden/zoned_members.json`` records, per seed of a
``zoned-market``-shaped run (``peak-based`` at ``flexible_share=0.05``,
groups of at most two, four priced zones cleared by a
``MarketConfig(slices=8, coupling_kwh=25)`` market, 40 households × 7
days), SHA-256 digests of the wire encodings of every household's offers,
every aggregate, the zoned schedule result and every member schedule
that :func:`~repro.aggregation.aggregate.disaggregate_schedule` splits
the placed aggregates into.  Extraction, aggregation, zoned placement
and clearing, and disaggregation are therefore pinned bitwise together.

The golden is the contract, not a snapshot of the current code: never
regenerate it to make a change pass.  To print the digests of the
current code (for a diagnosis, not to overwrite the file), run
``PYTHONPATH=src python tests/test_zoned_members_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Any

import pytest

from repro.aggregation.aggregate import disaggregate_schedule
from repro.aggregation.grouping import GroupingParams
from repro.api.registry import create_extractor
from repro.flexoffer.io import (
    aggregated_to_dict,
    any_schedule_to_dict,
    flexoffer_to_dict,
    schedule_to_dict,
)
from repro.market.model import MarketConfig
from repro.pipeline.fleet import FleetPipeline, fleet_zoned_target
from repro.scheduling.greedy import ScheduleConfig
from repro.simulation.dataset import generate_fleet
from repro.workloads.scenarios import SCENARIO_START

GOLDEN = Path(__file__).parent / "data" / "golden" / "zoned_members.json"

SEEDS = (1, 3)
HOUSEHOLDS = 40
DAYS = 7


def sha(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def zoned_run(seed: int):
    """``(FleetResult, member schedules per placement)`` of one seed."""
    fleet = generate_fleet(HOUSEHOLDS, SCENARIO_START, DAYS, seed=seed)
    pipeline = FleetPipeline(
        create_extractor("peak-based", flexible_share=0.05),
        grouping=GroupingParams(max_group_size=2),
        seed=seed,
        schedule=ScheduleConfig(
            engine="auto",
            improve_iterations=200,
            market=MarketConfig(slices=8, coupling_kwh=25),
        ),
    )
    result = pipeline.run(list(fleet), fleet_zoned_target(fleet, seed=2, zones=4))
    by_id = {aggregate.offer.offer_id: aggregate for aggregate in result.aggregates}
    members = [
        disaggregate_schedule(by_id[placement.offer.offer_id], placement)
        for placement in result.schedule.schedules
    ]
    return result, members


def digests(seed: int) -> dict:
    """The pinned view of one seed's run."""
    result, members = zoned_run(seed)
    return {
        "households": [
            sha([h.index, h.household_id, h.summary, [flexoffer_to_dict(o) for o in h.offers]])
            for h in result.households
        ],
        "aggregates": [sha(aggregated_to_dict(a)) for a in result.aggregates],
        "schedule": sha(any_schedule_to_dict(result.schedule)),
        "members": [sha(schedule_to_dict(part)) for parts in members for part in parts],
    }


@lru_cache(maxsize=None)
def golden() -> dict:
    return json.loads(GOLDEN.read_text())["seeds"]


@lru_cache(maxsize=None)
def current(seed: int) -> dict:
    return digests(seed)


def test_golden_names_every_seed():
    assert list(golden()) == [str(seed) for seed in SEEDS]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("part", ["households", "aggregates", "schedule", "members"])
def test_zoned_path_matches_golden(seed, part):
    assert current(seed)[part] == golden()[str(seed)][part]


def test_golden_covers_every_member():
    for entry in golden().values():
        assert len(entry["households"]) == HOUSEHOLDS
        assert len(entry["members"]) > len(entry["aggregates"]) > 0


if __name__ == "__main__":
    print(json.dumps({"seeds": {str(seed): digests(seed) for seed in SEEDS}}, indent=1))
