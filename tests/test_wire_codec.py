"""The shared wire codec: typed errors for malformed input, total decoding.

* Inputs that once escaped their decoder as a bare ``KeyError``,
  ``TypeError``, ``ValueError``, ``AttributeError`` or ``JSONDecodeError``
  now raise :class:`~repro.errors.DataError`.
* Every decoder entry point is fuzzed the way ``tests/test_spec_codec.py``
  fuzzes run specs: a stored document with one value replaced by arbitrary
  JSON, one key dropped or one key added either loads or raises a
  :mod:`repro.errors` type, and whatever loads re-encodes and reloads to
  the same encoding.
"""

from __future__ import annotations

import copy
import json
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.service import RunReport
from repro.conformance.runner import ConformanceReport
from repro.errors import DataError, ReproError
from repro.flexoffer.io import (
    aggregated_from_dict,
    aggregated_to_dict,
    any_schedule_from_dict,
    any_schedule_to_dict,
    apply_report_delta,
    flexoffer_from_dict,
    flexoffer_to_dict,
    report_delta,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.market.clearing import ClearingResult
from repro.session.persistence import decode_state, encode_state
from repro.session.replay import load_session_events, session_for_spec
from repro.testing.faults import FaultPlan
from repro.timeseries.axis import axis_for_days
from repro.timeseries.io import series_from_dict, series_to_dict
from repro.timeseries.series import TimeSeries

from test_spec_codec import mutate

ROOT = Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"
EVENTS_FILE = ROOT / "examples" / "specs" / "session_events.json"


def golden(name: str):
    return json.loads((GOLDEN / name).read_text())


def conformance_cell(**changes) -> dict:
    return {**golden("conformance_report.json")["cells"][0], **changes}


# --------------------------------------------------------------------- #
# Inputs that escaped as bare exceptions
# --------------------------------------------------------------------- #

ESCAPES = [
    pytest.param(any_schedule_from_dict, {"zones": [], "clearing": {"zones": [{}]}},
                 id="clearing-zone-without-keys"),
    pytest.param(any_schedule_from_dict, {"zones": [], "clearing": []}, id="clearing-list"),
    pytest.param(
        any_schedule_from_dict,
        {"zones": [], "clearing": {"zones": [], "slices": "x", "coupling_kwh": 0.0,
                                   "engine": "vectorized"}},
        id="clearing-string-slices",
    ),
    pytest.param(ConformanceReport.from_dict, {"version": 1, "cells": 5}, id="int-cells"),
    pytest.param(
        ConformanceReport.from_dict, {"version": 1, "cells": [[1]]}, id="list-cell"
    ),
    pytest.param(
        ConformanceReport.from_dict,
        {"version": 1, "cells": [conformance_cell(
            invariants=[{"name": "offer-validity", "status": "weird"}]
        )]},
        id="unknown-invariant-status",
    ),
    pytest.param(RunReport.from_json, "{", id="run-report-invalid-json"),
    pytest.param(ConformanceReport.from_json, "{", id="conformance-invalid-json"),
    pytest.param(series_from_dict, [1.0, 2.0], id="series-list"),
    pytest.param(
        series_from_dict,
        {"start": 5, "resolution_seconds": 900.0, "values": [1.0]},
        id="series-int-start",
    ),
    pytest.param(
        series_from_dict,
        {"start": "2012-03-05T00:00:00", "resolution_seconds": "900", "values": [1.0]},
        id="series-string-resolution",
    ),
    pytest.param(FaultPlan.decode, '{"specs":[{}]}', id="empty-fault-spec"),
]


@pytest.mark.parametrize("decoder, data", ESCAPES)
def test_malformed_input_raises_the_formats_error(decoder, data):
    with pytest.raises(DataError):
        decoder(data)


# --------------------------------------------------------------------- #
# Total decoding: every entry point, seeded from stored documents
# --------------------------------------------------------------------- #


def _series_document() -> dict:
    axis = axis_for_days(datetime(2012, 3, 5), 1)
    return series_to_dict(TimeSeries(axis, np.linspace(0.0, 1.0, axis.length), "meter"))


def _entry_points() -> dict[str, tuple]:
    """``name -> (decode, encode, seed documents)``.  The seeds are the
    committed goldens, except for series, which no golden stores: those
    are built here, deterministically."""
    zoned = golden("zoned_result_golden.json")
    market = golden("zoned_result_market_golden.json")
    report = json.loads((ROOT / "tests" / "data" / "run_report_golden.json").read_text())
    offers = [
        offer
        for case in golden("peak_offers.json")["cases"].values()
        for offer in case["offers"][:2]
    ]
    placements = [s for zone in market["zones"] for s in zone["result"]["schedules"]]
    return {
        "flex-offer": (flexoffer_from_dict, flexoffer_to_dict, offers),
        "schedule": (schedule_from_dict, schedule_to_dict, placements[:3]),
        "aggregate": (
            aggregated_from_dict, aggregated_to_dict, report["results"][0]["aggregates"]
        ),
        "plain schedule result": (
            any_schedule_from_dict, any_schedule_to_dict, [zoned["zones"][0]["result"]]
        ),
        "zoned schedule result": (
            any_schedule_from_dict, any_schedule_to_dict,
            [zoned, market, golden("compat/zoned_result_v1.json")],
        ),
        "clearing": (
            ClearingResult.from_dict, ClearingResult.to_dict, [market["clearing"]]
        ),
        "run report": (
            RunReport.from_dict, RunReport.to_dict,
            [report, golden("compat/run_report_v1.json")],
        ),
        "conformance report": (
            ConformanceReport.from_dict, ConformanceReport.to_dict,
            [golden("conformance_report.json")],
        ),
        "series": (series_from_dict, series_to_dict, [_series_document()]),
    }


ENTRY_POINTS = _entry_points()


class TestTotalDecoding:
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_seed_documents_round_trip(self, name):
        decode, encode, seeds = ENTRY_POINTS[name]
        for seed in seeds:
            assert encode(decode(seed)) == seed

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_documents_load_or_raise_a_repro_error(self, name, data):
        decode, encode, seeds = ENTRY_POINTS[name]
        document = mutate(data.draw(st.sampled_from(seeds)), data)
        try:
            loaded = decode(document)
        except ReproError:
            return
        encoded = encode(loaded)
        assert json.loads(json.dumps(encoded)) == encoded
        assert encode(decode(encoded)) == encoded


@pytest.fixture(scope="module")
def stream():
    """The CI replay stream: spec, fleet and per-household inputs."""
    spec, events = load_session_events(EVENTS_FILE)
    from repro.evaluation.comparison import input_series_for
    from repro.simulation.dataset import generate_fleet

    scenario = spec.scenario
    fleet = generate_fleet(
        scenario.households, scenario.start, scenario.days, seed=scenario.seed
    )
    probe = session_for_spec(spec, fleet=fleet)
    inputs = [input_series_for(probe.extractor, trace) for trace in fleet]
    return spec, fleet, inputs, events


def _restored(stream, payload: dict, version: int):
    spec, fleet, _, _ = stream
    session = session_for_spec(spec, fleet=fleet)
    session._replaying = True
    decode_state(session, payload, version)
    session._replaying = False
    return session


@pytest.fixture(scope="module")
def delta_documents(stream):
    """Two successive snapshots of the CI stream and the delta between them."""
    spec, fleet, inputs, events = stream
    session = session_for_spec(spec, fleet=fleet)
    snapshots = []
    for event in events:
        if event["type"] == "ingest":
            first, count = event["first"], event["count"]
            values = inputs[event["household"]].values[first : first + count]
            session.ingest(event["household"], first, values)
        elif event["type"] == "replan":
            snapshots.append(session.replan().to_dict())
            if len(snapshots) == 2:
                break
    base, new = snapshots
    return base, report_delta(base, new)


class TestTotalSessionDecoding:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_report_deltas_apply_or_raise_a_repro_error(
        self, delta_documents, data
    ):
        base, delta = delta_documents
        try:
            apply_report_delta(mutate(delta, data), copy.deepcopy(base))
        except ReproError:
            pass

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mutated_snapshot_states_load_or_raise_a_repro_error(self, stream, data):
        state = golden("compat/session_snapshot_v2.json")["state"]
        try:
            restored = _restored(stream, mutate(state, data), 2)
        except ReproError:
            return
        encoded = encode_state(restored)
        assert encode_state(_restored(stream, json.loads(encoded), 2)) == encoded

    def test_a_committed_member_that_is_no_offer_id_is_refused(self, stream):
        state = golden("compat/session_snapshot_v2.json")["state"]
        state["committed_members"][0] = None
        with pytest.raises(ReproError, match="committed_members"):
            _restored(stream, state, 2)
