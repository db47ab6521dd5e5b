"""The appliance-level approaches and the online generator against a golden.

``tests/data/golden/appliance_offers.json`` records what the frequency-based
(§4.1) and schedule-based (§4.2) extractors and the §6 online generator
produced before they were merged onto one detection engine:

* ``extraction``: per approach and trace (the NILM household and the
  weekend-skewed household), a SHA-256 of every offer's wire encoding (ids
  included, minted in a fixed scope), the ``summary()`` (as ``repr``
  strings), a SHA-256 of the modified series and the ``extras`` keys;
* ``fleet``: per approach, a small scheduled :class:`FleetPipeline` run —
  digests of every household's offers and summary, every aggregate and
  the schedule;
* ``online``: the generator trained on the NILM household — its shortlist,
  mined schedules and mean energies, a week of ``anticipate`` offers and
  the offers ``observe`` emits over a streamed two-day trace.

The golden is the contract, not a snapshot of the current code: never
regenerate it to make a change pass.  To print the digests of the current
code (for a diagnosis, not to overwrite the file), run
``PYTHONPATH=src python tests/test_appliance_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from datetime import timedelta
from functools import lru_cache
from pathlib import Path
from typing import Any

import numpy as np
import pytest

from repro.api.registry import create_extractor
from repro.extraction.online import OnlineFlexOfferGenerator
from repro.flexoffer.io import aggregated_to_dict, any_schedule_to_dict, flexoffer_to_dict
from repro.flexoffer.model import offer_id_scope
from repro.pipeline.fleet import FleetPipeline, fleet_schedule_target
from repro.timeseries.calendar import DayType
from repro.workloads.scenarios import nilm_household, small_fleet, weekend_skewed_household

GOLDEN = Path(__file__).parent / "data" / "golden" / "appliance_offers.json"

APPROACHES = ("frequency-based", "schedule-based")
TRACES = {"nilm": nilm_household, "weekend": weekend_skewed_household}


def sha(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def array_sha(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def offer_digests(offers) -> list[str]:
    return [sha(flexoffer_to_dict(offer)) for offer in offers]


def extraction_entry(approach: str, trace: str) -> dict:
    series = TRACES[trace]().total
    with offer_id_scope(f"golden-{approach}-{trace}"):
        result = create_extractor(approach).extract(series, np.random.default_rng(7))
    return {
        "offers": offer_digests(result.offers),
        "summary": {key: repr(value) for key, value in result.summary().items()},
        "modified_sha256": array_sha(result.modified.values),
        "extras": list(result.extras),
    }


def fleet_entry(approach: str) -> dict:
    fleet = small_fleet(n=4, days=3, seed=13)
    pipeline = FleetPipeline(create_extractor(approach), seed=4)
    result = pipeline.run(fleet, fleet_schedule_target(fleet))
    return {
        "households": [
            sha([h.index, h.household_id, repr(h.summary), [flexoffer_to_dict(o) for o in h.offers]])
            for h in result.households
        ],
        "aggregates": [sha(aggregated_to_dict(a)) for a in result.aggregates],
        "schedule": sha(any_schedule_to_dict(result.schedule)),
    }


@lru_cache(maxsize=None)
def trained() -> OnlineFlexOfferGenerator:
    return OnlineFlexOfferGenerator.train(nilm_household().total)


def online_entry(part: str) -> Any:
    generator = trained()
    if part == "shortlist":
        return [repr(entry) for entry in generator.table]
    if part == "schedules":
        return {
            appliance: {
                "observations": mined.observations,
                "windows": {dtype.name: [repr(w) for w in mined.windows[dtype]] for dtype in DayType},
                "density_sha256": [array_sha(mined.density[dtype]) for dtype in DayType],
            }
            for appliance, mined in generator.schedules.items()
        }
    if part == "mean_energy":
        return {appliance: repr(energy) for appliance, energy in generator.mean_energy.items()}
    history = nilm_household().total
    first_day = history.axis.end.date()
    if part == "anticipate":
        with offer_id_scope("golden-online-anticipate"):
            return [
                offer_digests(generator.anticipate(first_day + timedelta(days=d)))
                for d in range(7)
            ]
    assert part == "observe"
    stream = nilm_household(days=2, seed=21).total
    emitted = []
    generator.reset_stream()
    with offer_id_scope("golden-online-observe"):
        for minute, value in enumerate(stream.values):
            offers = generator.observe(stream.axis.start + timedelta(minutes=minute), float(value))
            if offers:
                emitted.append([minute, *offer_digests(offers)])
    generator.reset_stream()
    return emitted


ONLINE_PARTS = ("shortlist", "schedules", "mean_energy", "anticipate", "observe")


def current() -> dict:
    return {
        "extraction": {
            f"{approach}/{trace}": extraction_entry(approach, trace)
            for approach in APPROACHES
            for trace in TRACES
        },
        "fleet": {approach: fleet_entry(approach) for approach in APPROACHES},
        "online": {part: online_entry(part) for part in ONLINE_PARTS},
    }


@lru_cache(maxsize=None)
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_names_every_case():
    assert list(golden()["extraction"]) == [f"{a}/{t}" for a in APPROACHES for t in TRACES]
    assert list(golden()["fleet"]) == list(APPROACHES)
    assert list(golden()["online"]) == list(ONLINE_PARTS)


@pytest.mark.parametrize("trace", list(TRACES))
@pytest.mark.parametrize("approach", APPROACHES)
def test_extraction_matches_golden(approach, trace):
    assert extraction_entry(approach, trace) == golden()["extraction"][f"{approach}/{trace}"]


@pytest.mark.parametrize("approach", APPROACHES)
def test_fleet_run_matches_golden(approach):
    assert fleet_entry(approach) == golden()["fleet"][approach]


@pytest.mark.parametrize("part", ONLINE_PARTS)
def test_online_generator_matches_golden(part):
    assert online_entry(part) == golden()["online"][part]


def test_golden_is_not_empty():
    for entry in golden()["extraction"].values():
        assert entry["offers"]
    assert golden()["extraction"]["schedule-based/nilm"]["extras"][-1] == "schedules"
    for entry in golden()["fleet"].values():
        assert entry["aggregates"]
    online = golden()["online"]
    assert online["schedules"] and any(online["anticipate"]) and online["observe"]


if __name__ == "__main__":
    print(json.dumps(current(), indent=1))
