"""Peak-based extraction against a pinned offers golden.

``tests/data/golden/peak_offers.json`` records, per case of a small fixed
fleet, the offers (wire encoding, ids included), the ``summary()`` (as
``repr`` strings) and a SHA-256 of the modified series that
``PeakBasedExtractor.extract`` produced before its detection was batched.
The fleet covers the edge days the batched detector must reproduce: a
short last day, an all-zero day, a day that is zero after 06:00 (a
session's uncovered tail), constant days, and a ``fallback_to_largest``
extractor.  Resuming from a day checkpoint of the cold run must reproduce
it from every day boundary.

The golden is the contract, not a snapshot of the current code: never
regenerate it to make a change pass.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.extraction.params import FlexOfferParams
from repro.extraction.peaks import PeakBasedExtractor
from repro.flexoffer.io import flexoffer_to_dict
from repro.flexoffer.model import offer_id_scope
from repro.timeseries.axis import TimeAxis
from repro.timeseries.series import TimeSeries
from repro.workloads.scenarios import small_fleet

GOLDEN = Path(__file__).parent / "data" / "golden" / "peak_offers.json"

PER_DAY = 96


def _series(base: TimeSeries, values: np.ndarray, name: str) -> TimeSeries:
    axis = TimeAxis(base.axis.start, base.axis.resolution, values.size)
    return TimeSeries(axis, values, name)


@lru_cache(maxsize=None)
def golden_cases() -> tuple[tuple[str, PeakBasedExtractor, TimeSeries, int], ...]:
    """``(name, extractor, series, rng seed)`` per pinned case, in golden order."""
    metered = [trace.metered() for trace in small_fleet(n=3, days=3, seed=11)]
    default = PeakBasedExtractor()
    wide = PeakBasedExtractor(params=FlexOfferParams(flexible_share=0.1, slices_max=4))
    fallback = PeakBasedExtractor(fallback_to_largest=True)

    zero_days = metered[0].values.copy()
    zero_days[PER_DAY : 2 * PER_DAY] = 0.0
    zero_days[2 * PER_DAY + 24 :] = 0.0

    constant = metered[1].values.copy()
    constant[:PER_DAY] = 0.4
    constant[2 * PER_DAY :] = 0.0

    # Flat days with one small bump each: no peak survives the filter, so
    # only the fallback extractor emits offers for them.
    bumps = np.full(3 * PER_DAY, 0.3)
    bumps[[40, PER_DAY + 10, PER_DAY + 11, 2 * PER_DAY + 90]] = 0.5

    return (
        ("household-0", default, metered[0], 1),
        ("household-1-wide", wide, metered[1], 2),
        ("short-last-day", default, _series(metered[2], metered[2].values[: 2 * PER_DAY + 40], "short"), 3),
        ("zero-day-and-uncovered-tail", default, _series(metered[0], zero_days, "zero-days"), 4),
        ("constant-days", wide, _series(metered[1], constant, "constant"), 5),
        ("fallback-household-2", fallback, metered[2], 6),
        ("fallback-bumps", fallback, _series(metered[0], bumps, "bumps"), 7),
        ("no-fallback-bumps", default, _series(metered[0], bumps, "bumps"), 7),
    )


def golden_entry(result) -> dict:
    """One case's pinned view of an extraction result."""
    return {
        "offers": json.loads(json.dumps([flexoffer_to_dict(o) for o in result.offers])),
        "summary": {key: repr(value) for key, value in result.summary().items()},
        "modified_sha256": hashlib.sha256(result.modified.values.tobytes()).hexdigest(),
    }


def cold(extractor, series, seed: int, name: str):
    with offer_id_scope(f"golden-{name}"):
        return extractor.extract(series, np.random.default_rng(seed))


@lru_cache(maxsize=None)
def golden() -> dict:
    return json.loads(GOLDEN.read_text())["cases"]


def test_golden_names_every_case():
    assert list(golden()) == [name for name, *_ in golden_cases()]


@pytest.mark.parametrize("case", range(len(golden_cases())))
def test_cold_extract_matches_golden(case):
    name, extractor, series, seed = golden_cases()[case]
    assert golden_entry(cold(extractor, series, seed, name)) == golden()[name]


@pytest.mark.parametrize("case", range(len(golden_cases())))
def test_resume_from_every_day_boundary_matches_golden(case):
    name, extractor, series, seed = golden_cases()[case]
    base = cold(extractor, series, seed, name)
    trail = base.extras["trail"]
    per_day = series.axis.intervals_per_day
    assert len(trail.marks) == len(series.axis.day_slices())
    for day in range(len(trail.marks)):
        checkpoint = trail.checkpoint(day, day * per_day, base.offers)
        detected = extractor.detect_many([series], [day])[0]
        assert [d.index for d in detected] == list(range(day, len(trail.marks)))
        # A differently seeded generator: the checkpoint restores the state.
        with offer_id_scope(f"golden-{name}", start=checkpoint.ids_minted):
            resumed = extractor.formulate(
                series, detected, np.random.default_rng(seed + 1000), checkpoint
            )
        assert golden_entry(resumed) == golden()[name], f"resumed at day {day}"
        assert resumed.extras["trail"].marks == trail.marks


def test_golden_covers_offerless_and_fallback_days():
    entries = golden()
    assert entries["no-fallback-bumps"]["offers"] == []
    assert len(entries["fallback-bumps"]["offers"]) == 3
    assert all(entry["offers"] for name, entry in entries.items() if "bumps" not in name)
