"""Durable sessions: WAL journal, snapshot compaction, crash recovery.

The contract under test (docs/ARCHITECTURE.md, "Durability"): every
session event is journaled — checksummed, sequenced, fsynced on commit —
*before* it is applied, snapshots compact the log without losing history,
and killing the process at any event boundary (including mid-append: a
torn final record) resumes to a state bitwise identical to the
uninterrupted run.  The full every-boundary sweep over the CI event
stream and the subprocess SIGKILL drills are tier-2; the core journal
semantics run on every tier-1 pass.
"""

from __future__ import annotations

import base64
import json
import os
import shutil
import signal
import stat
import subprocess
import sys
import zlib
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import PersistenceError, SessionError, SessionReplayError
from repro.evaluation.comparison import input_series_for
from repro.session import (
    FlexibilitySession,
    SessionJournal,
    load_session_events,
    replay_session,
    restore_session,
    session_for_spec,
)
from repro.session.persistence import (
    JOURNAL_EVENT_TYPES,
    WAL_NAME,
    _canonical,
    _checksum,
    _coverage_runs,
    _encode_record,
    _framed_crc,
    _mask_runs,
    decode_state,
    encode_state,
)
from repro.session.state import _HouseholdState
from repro.timeseries.axis import TimeAxis
from repro.testing import faults

EVENTS_FILE = Path(__file__).parent.parent / "examples" / "specs" / "session_events.json"
#: The same stream journaled with a snapshot after every replan.
SNAPSHOT_EVENTS_FILE = EVENTS_FILE.with_name("session_events_snapshot.json")
#: A snapshot of the CI stream at seq 6 in the original ``json.dump``
#: layout (insertion-ordered keys, default separators).  Never regenerate.
LEGACY_SNAPSHOT = (
    Path(__file__).parent / "data" / "golden" / "compat" / "session_snapshot_v1.json"
)
#: The same snapshot written by the format-v2 writer (base64 buffers, no
#: offers for the two clean households).  Never regenerate.
V2_SNAPSHOT = LEGACY_SNAPSHOT.with_name("session_snapshot_v2.json")


def _crc_valid_body(seq, state, version=1) -> str:
    return json.dumps(
        {
            "version": version,
            "seq": seq,
            "state": state,
            "crc": _checksum(seq, "snapshot", state),
        }
    )


def _b64_floats(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def _v2_state() -> dict:
    """A fresh copy of the v2 golden's state (both households clean)."""
    return json.loads(V2_SNAPSHOT.read_text())["state"]


def _set(path, value):
    """A state mutation: assign ``value`` at the key/index ``path``."""

    def mutate(state):
        node = state
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return state

    return mutate


def _drop(path):
    def mutate(state):
        node = state
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return state

    return mutate


def _shift_summary(state):
    state["households"][1]["summary"]["extracted_kwh"] += 1.0
    return state


#: CRC-valid snapshot states that must fail to restore with a typed error:
#: ``(id, format version, mutation of the v2 golden state, message)``.
MALFORMED_STATES = [
    ("v1-only-state-version", 1, lambda s: {"state_version": 1},
     "snapshot state missing field 'households'"),
    ("v2-only-state-version", 2, lambda s: {"state_version": 1},
     "snapshot state missing field 'households'"),
    ("households-not-a-list", 2, _set(["households"], {"0": {}}),
     "'households' is dict, not a list"),
    ("household-not-an-object", 2, _set(["households", 0], [1]),
     "malformed snapshot household 0"),
    ("household-missing-axis", 2, _drop(["households", 0, "axis"]),
     "snapshot household 0 missing field 'axis'"),
    ("bad-base64", 2, _set(["households", 0, "values"], "not base64!"),
     "malformed snapshot household 0"),
    ("wrong-byte-count", 2, _set(["households", 1, "values"], _b64_floats([1.0] * 3)),
     "holds 24 byte"),
    ("v2-list-buffer", 2, _set(["households", 0, "values"], [0.0] * 192),
     "buffer is list, not base64 text"),
    ("v1-short-buffer", 1, _set(["households", 0, "values"], [0.0] * 3),
     "holds 3 value"),
    ("summary-mismatch", 2, _shift_summary,
     "household 1 .* does not reproduce the stored summary"),
    ("dirty-without-offers", 2, _set(["households", 0, "dirty"], True),
     "snapshot household 0 missing field 'offers'"),
    ("bad-aggregate", 2, _set(["aggregates"], [{}]),
     "malformed snapshot state: .*aggregated"),
    ("bad-state-version", 2, _set(["state_version"], "x"),
     "malformed snapshot state"),
    ("bad-commit-boundary", 2, _set(["commit_boundary"], 5),
     "malformed snapshot state"),
    ("bad-target-bytes", 2, _set(["target", "values"], "AAAA"),
     "holds 3 byte"),
    # Coverage runs are [first, stop) pairs on the household's axis (192
    # intervals), ascending and disjoint; anything else is corrupt.
    ("covered-negative-stop", 2, _set(["households", 0, "covered"], [[0, -3]]),
     r"snapshot household 0: covered run \[0, -3\] is outside"),
    ("covered-reversed", 2, _set(["households", 0, "covered"], [[5, 2]]),
     r"covered run \[5, 2\] is outside 0 <= first < stop <= 192"),
    ("covered-past-axis", 2, _set(["households", 0, "covered"], [[0, 193]]),
     r"covered run \[0, 193\] is outside"),
    ("covered-string-bound", 2, _set(["households", 0, "covered"], [["0", 3]]),
     r"covered run \['0', 3\] is not a pair of ints"),
    ("covered-bool-bound", 2, _set(["households", 0, "covered"], [[0, True]]),
     "is not a pair of ints"),
    ("covered-triple", 2, _set(["households", 0, "covered"], [[0, 3, 5]]),
     "is not a pair of ints"),
    ("covered-overlapping", 2, _set(["households", 0, "covered"], [[0, 10], [5, 20]]),
     r"covered run \[5, 20\] overlaps or precedes the run before it"),
    ("covered-descending", 2, _set(["households", 0, "covered"], [[10, 20], [0, 5]]),
     "overlaps or precedes"),
    ("covered-not-a-list", 2, _set(["households", 0, "covered"], 7),
     "malformed snapshot household 0"),
]


@pytest.fixture(scope="module")
def stream():
    """The CI event stream: spec, fleet, per-household inputs, events."""
    spec, events = load_session_events(EVENTS_FILE)
    from repro.simulation.dataset import generate_fleet

    scenario = spec.scenario
    fleet = generate_fleet(
        scenario.households, scenario.start, scenario.days, seed=scenario.seed
    )
    probe = session_for_spec(spec, fleet=fleet)
    inputs = [input_series_for(probe.extractor, trace) for trace in fleet]
    return spec, fleet, inputs, events


def _fresh(stream):
    spec, fleet, _, _ = stream
    return session_for_spec(spec, fleet=fleet)


def _apply(session, stream, start=0, stop=None):
    _, _, inputs, events = stream
    for event in events[start : len(events) if stop is None else stop]:
        kind = event["type"]
        if kind == "ingest":
            first, count = event["first"], event["count"]
            values = inputs[event["household"]].values[first : first + count]
            session.ingest(event["household"], first, values)
        elif kind == "replan":
            session.replan()
        else:
            session.commit(datetime.fromisoformat(event["through"]))


@pytest.fixture(scope="module")
def uninterrupted_final(stream):
    session = _fresh(stream)
    _apply(session, stream)
    return session.snapshot().to_dict()


# ---------------------------------------------------------------------- #
# Journal mechanics
# ---------------------------------------------------------------------- #


class TestJournal:
    def test_create_append_reopen(self, tmp_path):
        journal = SessionJournal.create(tmp_path, spec={"name": "x"})
        assert journal.last_seq == 0
        assert journal.append("ingest", {"household": 0}) == 1
        assert journal.append("commit", {"through": "t"}, durable=True) == 2
        journal.close()
        reopened = SessionJournal.open(tmp_path)
        assert reopened.last_seq == 2
        assert reopened.spec == {"name": "x"}
        records = list(reopened.tail(0))
        assert [r["type"] for r in records] == ["ingest", "commit"]
        assert [r["seq"] for r in records] == [1, 2]
        assert list(reopened.tail(1)) == [records[1]]

    def test_create_refuses_existing_journal(self, tmp_path):
        SessionJournal.create(tmp_path)
        with pytest.raises(PersistenceError, match="already holds a session journal"):
            SessionJournal.create(tmp_path)

    def test_create_validates_snapshot_every(self, tmp_path):
        with pytest.raises(PersistenceError, match="snapshot_every"):
            SessionJournal.create(tmp_path, snapshot_every=0)

    def test_append_rejects_unknown_event_type(self, tmp_path):
        journal = SessionJournal.create(tmp_path)
        with pytest.raises(PersistenceError, match="cannot journal"):
            journal.append("checkpoint", {})

    def test_open_requires_a_journal(self, tmp_path):
        with pytest.raises(PersistenceError, match="no session journal"):
            SessionJournal.open(tmp_path / "nowhere")

    def test_torn_final_record_is_truncated(self, tmp_path):
        journal = SessionJournal.create(tmp_path)
        journal.append("ingest", {"household": 0})
        journal.append("replan", {})
        journal.close()
        wal = tmp_path / WAL_NAME
        intact = wal.read_bytes()
        # Die mid-append: half an unterminated record at the tail.
        wal.write_bytes(intact + b'{"seq": 3, "type": "ingest", "da')
        reopened = SessionJournal.open(tmp_path)
        assert reopened.last_seq == 2
        assert wal.read_bytes() == intact  # the torn bytes are gone
        # The journal keeps appending cleanly past the truncation.
        assert reopened.append("replan", {}) == 3

    def test_corrupt_record_mid_log_refuses_recovery(self, tmp_path):
        journal = SessionJournal.create(tmp_path)
        journal.append("ingest", {"household": 0})
        journal.append("replan", {})
        journal.close()
        wal = tmp_path / WAL_NAME
        lines = wal.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"ingest"', b'"txegni"')  # checksum breaks
        wal.write_bytes(b"".join(lines))
        with pytest.raises(PersistenceError, match="corrupt record mid-log"):
            SessionJournal.open(tmp_path)

    def test_non_monotonic_seq_refused(self, tmp_path):
        journal = SessionJournal.create(tmp_path)
        journal.append("replan", {})
        journal.close()
        wal = tmp_path / WAL_NAME
        lines = wal.read_bytes().splitlines(keepends=True)
        wal.write_bytes(b"".join(lines) + lines[1] + lines[1])  # replayed line
        with pytest.raises(PersistenceError, match="sequence went backwards"):
            SessionJournal.open(tmp_path)

    def test_snapshot_compaction_prunes_log_and_older_snapshots(
        self, tmp_path, stream
    ):
        session = _fresh(stream)
        session.attach_journal(SessionJournal.create(tmp_path, snapshot_every=1))
        _apply(session, stream, stop=3)  # ingest, ingest, replan -> snapshot
        snapshots = sorted(tmp_path.glob("snapshot-*.json"))
        assert [p.name for p in snapshots] == ["snapshot-00000003.json"]
        # The snapshot covers seq 1-3: the WAL keeps only the header.
        assert list(session.journal.tail(0)) == []
        assert session.journal.last_seq == 3
        _apply(session, stream, start=3, stop=6)  # two ingests + replan
        snapshots = sorted(tmp_path.glob("snapshot-*.json"))
        assert [p.name for p in snapshots] == ["snapshot-00000006.json"]
        reopened = SessionJournal.open(tmp_path)
        assert reopened.last_seq == 6
        seq, _ = reopened.latest_snapshot()
        assert seq == 6

    def test_torn_snapshot_is_ignored_in_favour_of_older_state(self, tmp_path):
        journal = SessionJournal.create(tmp_path)
        journal.append("replan", {})
        path = journal.write_snapshot(_canonical({"fake": "state"}))
        journal.append("replan", {})
        # A snapshot that died mid-write: valid JSON prefix, bad checksum.
        (tmp_path / "snapshot-00000002.json").write_text('{"version": 1, "seq"')
        assert journal.latest_snapshot() == (1, {"fake": "state"})
        assert path.exists()

    @pytest.mark.parametrize(
        "body",
        [
            "null",
            "[1,2]",
            '"x"',
            _crc_valid_body("2", {"fake": "new"}),
            _crc_valid_body(2.5, {"fake": "new"}),
            _crc_valid_body(2, [1]),
            _crc_valid_body(2, {"fake": "new"}, version=3),
            _crc_valid_body(2, {"fake": "new"}, version=True),
        ],
        ids=[
            "null",
            "list",
            "string",
            "str-seq",
            "float-seq",
            "list-state",
            "unknown-version",
            "bool-version",
        ],
    )
    def test_malformed_snapshot_is_skipped(self, tmp_path, body):
        journal = SessionJournal.create(tmp_path)
        journal.append("replan", {})
        journal.write_snapshot(_canonical({"fake": "state"}))
        (tmp_path / "snapshot-00000002.json").write_text(body)
        assert journal.latest_snapshot() == (1, {"fake": "state"})
        journal.close()

    @pytest.mark.parametrize(
        "version, mutate, message",
        [case[1:] for case in MALFORMED_STATES],
        ids=[case[0] for case in MALFORMED_STATES],
    )
    def test_malformed_snapshot_state_refuses_recovery(
        self, tmp_path, stream, version, mutate, message
    ):
        # The body is intact (CRC-valid), so the snapshot is not skipped;
        # its state is wrong, which must surface as a typed error rather
        # than a bare KeyError/TypeError or a silently different session.
        SessionJournal.create(tmp_path).close()
        state = mutate(_v2_state())
        (tmp_path / "snapshot-00000006.json").write_text(
            _crc_valid_body(6, state, version=version)
        )
        journal = SessionJournal.open(tmp_path)
        try:
            with pytest.raises(PersistenceError, match=message):
                restore_session(_fresh(stream), journal)
        finally:
            journal.close()

    def test_open_refuses_non_object_header(self, tmp_path):
        (tmp_path / WAL_NAME).write_bytes(_encode_record(0, "open", [1]))
        with pytest.raises(PersistenceError, match="header data is not a JSON object"):
            SessionJournal.open(tmp_path)

    def test_compacted_wal_keeps_the_header_bytes(self, tmp_path):
        journal = SessionJournal.create(tmp_path, spec={"name": "é"})
        header = (tmp_path / WAL_NAME).read_bytes()
        journal.append("replan", {})
        journal.write_snapshot(_canonical({"fake": "state"}))
        assert (tmp_path / WAL_NAME).read_bytes() == header
        journal.close()
        reopened = SessionJournal.open(tmp_path)
        reopened.append("replan", {})
        reopened.write_snapshot(_canonical({"fake": "later"}))
        assert (tmp_path / WAL_NAME).read_bytes() == header
        assert reopened.latest_snapshot() == (2, {"fake": "later"})
        reopened.close()

    @pytest.mark.skipif(os.name != "posix", reason="directory fsync is POSIX only")
    def test_directory_fsync_orders_renames_before_compaction(
        self, tmp_path, monkeypatch
    ):
        # A power loss may persist a later directory change (the WAL
        # reset) without an earlier one (the snapshot rename) unless the
        # directory is fsynced in between.
        calls = []
        real_fsync, real_replace, real_unlink = os.fsync, os.replace, Path.unlink

        def fsync(fd):
            is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
            calls.append(("fsync", "directory" if is_dir else "file"))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", Path(dst).name))
            real_replace(src, dst)

        def unlink(path, *args, **kwargs):
            calls.append(("unlink", path.name))
            real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(Path, "unlink", unlink)
        journal = SessionJournal.create(tmp_path)
        assert calls == [("fsync", "file"), ("fsync", "directory")]
        journal.append("replan", {})
        journal.write_snapshot(_canonical({"fake": "state"}))
        journal.append("replan", {})
        calls.clear()
        journal.write_snapshot(_canonical({"fake": "later"}))
        assert calls == [
            ("fsync", "file"),  # the snapshot's temp file
            ("replace", "snapshot-00000002.json"),
            ("fsync", "directory"),
            ("unlink", "snapshot-00000001.json"),
            ("fsync", "file"),  # the reset WAL's temp file
            ("replace", WAL_NAME),
        ]
        journal.close()

    def test_attach_requires_pristine_session_and_fresh_journal(
        self, tmp_path, stream
    ):
        used = _fresh(stream)
        _apply(used, stream, stop=1)
        with pytest.raises(PersistenceError, match="mid-session"):
            used.attach_journal(SessionJournal.create(tmp_path / "a"))
        stale = SessionJournal.create(tmp_path / "b")
        stale.append("replan", {})
        with pytest.raises(PersistenceError, match="already holds events"):
            _fresh(stream).attach_journal(stale)
        attached = _fresh(stream)
        attached.attach_journal(SessionJournal.create(tmp_path / "c"))
        with pytest.raises(PersistenceError, match="already has a journal"):
            attached.attach_journal(SessionJournal.create(tmp_path / "d"))


# ---------------------------------------------------------------------- #
# Wire formats: WAL record bytes and snapshot bodies
# ---------------------------------------------------------------------- #


def _two_pass_crc(seq, kind, data) -> int:
    """The original CRC: the canonical ``[seq, kind, data]``, encoded whole."""
    canonical = json.dumps([seq, kind, data], sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode())


def _two_pass_record(seq, kind, data) -> bytes:
    """The original WAL encoder: checksum pass, then the whole record."""
    record = {"seq": seq, "type": kind, "data": data, "crc": _two_pass_crc(seq, kind, data)}
    return (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode()


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


class TestWireFormat:
    @settings(max_examples=200, deadline=None)
    @given(
        seq=st.integers(min_value=0, max_value=2**53),
        kind=st.sampled_from(("open",) + JOURNAL_EVENT_TYPES),
        data=st.dictionaries(st.text(max_size=8), _json_values, max_size=5),
    )
    @example(seq=1, kind="ingest", data={"values": [-0.0, 1e-05, 2.5e300]})
    @example(seq=7, kind="retarget", data={"name": "Zürich wind ☀", "values": [0.5]})
    @example(seq=3, kind="commit", data={"through": "2012-03-06T12:00:00"})
    def test_record_bytes_match_the_two_pass_encoder(self, seq, kind, data):
        assert _encode_record(seq, kind, data) == _two_pass_record(seq, kind, data)
        crc = _two_pass_crc(seq, kind, data)
        assert _framed_crc(seq, kind, _canonical(data)) == crc
        assert _checksum(seq, kind, data) == crc

    def test_snapshot_body_is_canonical_with_the_same_crc(self, tmp_path, stream):
        session = _fresh(stream)
        _apply(session, stream)
        state = encode_state(session)
        journal = SessionJournal.create(tmp_path)
        journal.append("replan", {})
        # The state arrives canonically encoded, assembled from parts.
        assert state == _canonical(json.loads(state))
        path = journal.write_snapshot(state)
        raw = path.read_bytes()
        body = json.loads(raw)
        assert raw == _canonical(body)
        assert body["crc"] == _checksum(1, "snapshot", json.loads(state))
        assert journal.latest_snapshot() == (1, json.loads(state))

    def test_legacy_snapshot_layout_still_restores_bitwise(
        self, tmp_path, stream, uninterrupted_final
    ):
        text = LEGACY_SNAPSHOT.read_text()
        assert text.startswith('{"version": 1, "seq": 6, "state": {')
        body = json.loads(text)
        # The canonical writer frames the same CRC around the same state.
        assert body["crc"] == _framed_crc(6, "snapshot", _canonical(body["state"]))
        SessionJournal.create(tmp_path).close()
        shutil.copy(LEGACY_SNAPSHOT, tmp_path / "snapshot-00000006.json")
        recovered = restore_session(_fresh(stream), tmp_path)
        assert recovered.journal.last_seq == 6
        live = _fresh(stream)
        _apply(live, stream, stop=6)
        assert recovered.snapshot().to_dict() == live.snapshot().to_dict()
        assert encode_state(recovered) == encode_state(live)
        _apply(recovered, stream, start=6)
        assert recovered.snapshot().to_dict() == uninterrupted_final

    def test_v2_snapshot_restores_bitwise(self, tmp_path, stream, uninterrupted_final):
        raw = V2_SNAPSHOT.read_bytes()
        body = json.loads(raw)
        assert raw == _canonical(body)
        assert body["version"] == 2 and body["seq"] == 6
        assert all("offers" not in h for h in body["state"]["households"])
        SessionJournal.create(tmp_path).close()
        shutil.copy(V2_SNAPSHOT, tmp_path / "snapshot-00000006.json")
        recovered = restore_session(_fresh(stream), tmp_path)
        assert recovered.journal.last_seq == 6
        live = _fresh(stream)
        _apply(live, stream, stop=6)
        assert recovered.snapshot().to_dict() == live.snapshot().to_dict()
        # The writer still produces the golden's state, byte for byte.
        assert encode_state(live) == _canonical(body["state"])
        assert encode_state(recovered) == encode_state(live)
        _apply(recovered, stream, start=6)
        assert recovered.snapshot().to_dict() == uninterrupted_final


# ---------------------------------------------------------------------- #
# State encoding
# ---------------------------------------------------------------------- #


class TestCoverageRuns:
    """The record's coverage read off the covered prefix equals the scan of
    the mask, under any arrival order (in-order arrival takes the fast
    path at every step)."""

    AXIS = TimeAxis(datetime(2012, 3, 5), timedelta(minutes=15), 48)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_fast_path_equals_the_mask_scan(self, data):
        length = self.AXIS.length
        cuts = data.draw(st.sets(st.integers(1, length - 1), max_size=8), label="cuts")
        bounds = [0, *sorted(cuts), length]
        chunks = list(zip(bounds, bounds[1:]))
        if data.draw(st.booleans(), label="shuffled"):
            chunks = data.draw(st.permutations(chunks), label="arrival order")
        rewrites = data.draw(
            st.lists(st.tuples(st.integers(0, length - 1), st.integers(1, 6)), max_size=4),
            label="rewrites",
        )
        for lo, size in rewrites:
            chunks.insert(
                data.draw(st.integers(0, len(chunks))), (lo, min(lo + size, length))
            )
        stop = data.draw(st.integers(0, len(chunks)), label="chunks delivered")
        household = _HouseholdState(0, "h", self.AXIS, "h")
        assert _coverage_runs(household) == _mask_runs(household.covered) == []
        for lo, hi in chunks[:stop]:
            household.write(lo, np.ones(hi - lo))
            assert _coverage_runs(household) == _mask_runs(household.covered)

    def test_in_order_arrival_never_scans_the_mask(self, monkeypatch):
        from repro.session import persistence

        monkeypatch.setattr(persistence, "_mask_runs", None)
        household = _HouseholdState(0, "h", self.AXIS, "h")
        for lo in range(0, self.AXIS.length, 12):
            household.write(lo, np.ones(12))
            assert _coverage_runs(household) == [[0, lo + 12]]


class TestStateCodec:
    def test_encode_decode_round_trips_bitwise(self, stream):
        session = _fresh(stream)
        _apply(session, stream)
        # The payload must survive the JSON wire (floats via repr).
        payload = json.loads(encode_state(session))
        restored = _fresh(stream)
        restored._replaying = True
        decode_state(restored, payload)
        restored._replaying = False
        assert restored.snapshot().to_dict() == session.snapshot().to_dict()
        for live, original in zip(
            restored.state.households, session.state.households
        ):
            np.testing.assert_array_equal(live.values, original.values)
            np.testing.assert_array_equal(live.covered, original.covered)
            assert live.dirty == original.dirty
        np.testing.assert_array_equal(
            restored.state.committed_demand, session.state.committed_demand
        )
        assert restored.state.commit_boundary == session.state.commit_boundary

    def test_dirty_household_keeps_its_stale_offers(self, stream):
        # After seq 4 household 0 holds new readings but still the offers
        # extracted before them: those cannot be re-derived, so they ride
        # along; the clean household's offers do not.
        session = _fresh(stream)
        _apply(session, stream, stop=4)
        assert [h.dirty for h in session.state.households] == [True, False]
        payload = json.loads(encode_state(session))
        dirty, clean = payload["households"]
        assert len(dirty["offers"]) == len(session.state.households[0].offers) > 0
        assert "offers" not in clean
        restored = _fresh(stream)
        restored._replaying = True
        decode_state(restored, payload)
        restored._replaying = False
        for live, original in zip(
            restored.state.households, session.state.households
        ):
            assert live.offers == original.offers
            assert live.summary == original.summary
            assert live.coverage_end == original.coverage_end
        # Both sessions replan the dirty household to the same state.
        assert restored.replan().to_dict() == session.replan().to_dict()

    def test_encoding_skips_clean_offers_and_float_lists(self, stream, monkeypatch):
        session = _fresh(stream)
        _apply(session, stream)
        encoded = []
        monkeypatch.setattr(
            "repro.session.persistence.flexoffer_to_dict",
            lambda offer: encoded.append(offer),
        )
        payload = json.loads(encode_state(session))
        assert encoded == []  # every household is clean after the last replan
        for stored, live in zip(payload["households"], session.state.households):
            assert "offers" not in stored
            raw = base64.b64decode(stored["values"])
            assert raw == live.values.astype("<f8").tobytes()
        assert isinstance(payload["target"]["values"], str)

    def test_decode_refuses_mismatched_fleet(self, stream):
        session = _fresh(stream)
        _apply(session, stream)
        payload = json.loads(encode_state(session))
        spec, fleet, _, _ = stream
        smaller = FlexibilitySession.for_fleet(
            fleet.traces[:1], extractor=session.extractor, seed=session.seed
        )
        with pytest.raises(PersistenceError, match="household"):
            decode_state(smaller, payload)


# ---------------------------------------------------------------------- #
# Recovery
# ---------------------------------------------------------------------- #


class TestRecovery:
    def _crash_at(self, stream, tmp_path, boundary, snapshot_every=2):
        session = _fresh(stream)
        session.attach_journal(
            SessionJournal.create(tmp_path, snapshot_every=snapshot_every)
        )
        _apply(session, stream, stop=boundary)
        session.journal.close()  # the process "dies" here

    def test_resume_mid_stream_matches_uninterrupted(
        self, tmp_path, stream, uninterrupted_final
    ):
        self._crash_at(stream, tmp_path, boundary=4)
        recovered = restore_session(_fresh(stream), tmp_path)
        assert recovered.journal.last_seq == 4
        _apply(recovered, stream, start=4)
        assert recovered.snapshot().to_dict() == uninterrupted_final

    @pytest.mark.tier2
    @pytest.mark.parametrize("boundary", range(8))
    @pytest.mark.parametrize("snapshot_every", [1, 2, 100])
    def test_every_event_boundary_recovers_bitwise(
        self, tmp_path, stream, uninterrupted_final, boundary, snapshot_every
    ):
        # The acceptance sweep: kill at *every* boundary of the CI event
        # stream, under snapshot cadences that recover via snapshot-only,
        # snapshot + WAL tail, and pure log replay.
        self._crash_at(stream, tmp_path, boundary, snapshot_every=snapshot_every)
        recovered = restore_session(_fresh(stream), tmp_path)
        _apply(recovered, stream, start=boundary)
        assert recovered.snapshot().to_dict() == uninterrupted_final

    def test_torn_wal_append_recovers_to_previous_boundary(
        self, tmp_path, stream, uninterrupted_final
    ):
        session = _fresh(stream)
        session.attach_journal(SessionJournal.create(tmp_path, snapshot_every=2))
        _apply(session, stream, stop=3)
        with faults.inject_faults(faults.FaultSpec("wal-append", mode="torn", index=4)):
            with pytest.raises(faults.InjectedCrash, match="torn WAL append"):
                _apply(session, stream, start=3, stop=4)
        # The event died before applying: the journal holds 3 events plus
        # half a record, and recovery truncates back to the boundary.
        recovered = restore_session(_fresh(stream), tmp_path)
        assert recovered.journal.last_seq == 3
        _apply(recovered, stream, start=3)
        assert recovered.snapshot().to_dict() == uninterrupted_final

    @pytest.mark.parametrize("replan_seq", [3, 6])
    def test_torn_snapshot_write_recovers_bitwise(
        self, tmp_path, stream, uninterrupted_final, replan_seq
    ):
        session = _fresh(stream)
        session.attach_journal(SessionJournal.create(tmp_path, snapshot_every=1))
        with faults.inject_faults(
            faults.FaultSpec("snapshot-write", mode="torn", index=replan_seq)
        ):
            with pytest.raises(faults.InjectedCrash, match="torn snapshot write"):
                _apply(session, stream)
        session.journal.close()
        torn = tmp_path / f"snapshot-{replan_seq:08d}.json.tmp"
        assert torn.exists() and not torn.with_suffix("").exists()
        # The replan record is durable, so recovery replays it on top of
        # the previous snapshot (or the whole log).
        recovered = restore_session(_fresh(stream), tmp_path)
        assert recovered.journal.last_seq == replan_seq
        _apply(recovered, stream, start=replan_seq)
        assert recovered.snapshot().to_dict() == uninterrupted_final
        if replan_seq == 3:  # the next compaction sweeps the torn temp file
            assert not torn.exists()

    @pytest.mark.parametrize("replan_seq", [3, 6])
    def test_crash_between_snapshot_rename_and_compaction_recovers_bitwise(
        self, tmp_path, stream, uninterrupted_final, replan_seq, monkeypatch
    ):
        session = _fresh(stream)
        session.attach_journal(SessionJournal.create(tmp_path, snapshot_every=1))
        _apply(session, stream, stop=replan_seq - 1)

        def die(self, snapshot):
            raise faults.InjectedCrash(f"died before compacting {snapshot.name}")

        with monkeypatch.context() as patched:
            patched.setattr(SessionJournal, "_compact", die)
            with pytest.raises(faults.InjectedCrash, match="before compacting"):
                _apply(session, stream, start=replan_seq - 1, stop=replan_seq)
        session.journal.close()
        # The snapshot landed but the WAL still holds the records it covers.
        assert (tmp_path / f"snapshot-{replan_seq:08d}.json").exists()
        reopened = SessionJournal.open(tmp_path)
        assert [r["seq"] for r in reopened.tail(0)][-1] == replan_seq
        reopened.close()
        recovered = restore_session(_fresh(stream), tmp_path)
        assert recovered.journal.last_seq == replan_seq
        _apply(recovered, stream, start=replan_seq)
        assert recovered.snapshot().to_dict() == uninterrupted_final

    @pytest.mark.parametrize(
        "kind, data, field",
        [
            ("ingest", {"household": 0}, "first"),
            ("ingest", {"household": 0, "first": 0}, "values"),
            ("commit", {}, "through"),
            ("retarget", {"name": "wind"}, "values"),
            ("retarget", {"values": []}, "name"),
        ],
    )
    def test_record_missing_a_field_raises_persistence_error(
        self, tmp_path, stream, kind, data, field
    ):
        journal = SessionJournal.create(tmp_path)
        journal.append("replan", {})
        journal.append(kind, data)
        journal.close()
        with pytest.raises(
            PersistenceError, match=rf"seq 2 \({kind}\) missing field '{field}'"
        ):
            restore_session(_fresh(stream), tmp_path)

    @pytest.mark.parametrize(
        "kind, data, message",
        [
            ("ingest", {"household": "1", "first": 0, "values": [0.5]},
             "household must be an integer, got str"),
            ("ingest", {"household": 0, "first": "0", "values": [0.5]},
             "first must be an integer, got str"),
            ("ingest", {"household": 0, "first": 0, "values": "abc"},
             "values must be numbers"),
            ("commit", {"through": 5}, "argument must be str"),
            ("commit", {"through": "yesterday"}, "Invalid isoformat"),
        ],
        ids=["str-household", "str-first", "str-values", "int-through", "word-through"],
    )
    def test_record_with_malformed_fields_raises_persistence_error(
        self, tmp_path, stream, kind, data, message
    ):
        # CRC-valid records whose fields have the wrong types must not
        # escape recovery as a bare TypeError/ValueError.
        journal = SessionJournal.create(tmp_path)
        journal.append("replan", {})
        journal.append(kind, data)
        journal.close()
        with pytest.raises(
            PersistenceError, match=rf"seq 2 \({kind}\) cannot be applied: .*{message}"
        ):
            restore_session(_fresh(stream), tmp_path)

    def test_retarget_record_on_a_targetless_session_raises_persistence_error(
        self, tmp_path, stream
    ):
        spec, fleet, _, _ = stream
        targetless = FlexibilitySession.for_fleet(
            fleet, extractor=spec.extractors[0].create(), seed=spec.scenario.seed
        )
        journal = SessionJournal.create(tmp_path)
        journal.append("retarget", {"name": "wind", "values": [0.0]})
        journal.close()
        with pytest.raises(
            PersistenceError,
            match=r"seq 1 \(retarget\) cannot be applied: .*without a target",
        ):
            restore_session(targetless, tmp_path)

    def test_record_with_non_object_data_raises_persistence_error(
        self, tmp_path, stream
    ):
        journal = SessionJournal.create(tmp_path)
        journal.append("ingest", [0, 0, []])
        journal.close()
        with pytest.raises(PersistenceError, match=r"seq 1 \(ingest\).*not a JSON object"):
            restore_session(_fresh(stream), tmp_path)

    def test_restore_refuses_a_used_session(self, tmp_path, stream):
        self._crash_at(stream, tmp_path, boundary=2)
        used = _fresh(stream)
        _apply(used, stream, stop=1)
        with pytest.raises(PersistenceError, match="freshly constructed"):
            restore_session(used, tmp_path)

    def test_resume_classmethod_rebuilds_from_stored_spec(
        self, tmp_path, stream, uninterrupted_final
    ):
        spec, fleet, _, _ = stream
        session = _fresh(stream)
        session.attach_journal(
            SessionJournal.create(tmp_path, spec=spec.to_dict(), snapshot_every=2)
        )
        _apply(session, stream, stop=5)
        session.journal.close()
        recovered = FlexibilitySession.resume(tmp_path, fleet=fleet)
        _apply(recovered, stream, start=5)
        assert recovered.snapshot().to_dict() == uninterrupted_final

    def test_resume_from_a_legacy_engine_spec_is_bitwise(
        self, tmp_path, stream, uninterrupted_final
    ):
        # Journals written before "auto" became an alias of "vectorized"
        # store that name in their header; they must resume bitwise.
        from repro.api import RunSpec

        spec, fleet, _, _ = stream
        encoded = spec.to_dict()
        encoded["pipeline"]["schedule"]["engine"] = "auto"
        legacy = RunSpec.from_dict(encoded)
        session = session_for_spec(legacy, fleet=fleet)
        session.attach_journal(
            SessionJournal.create(tmp_path, spec=legacy.to_dict(), snapshot_every=2)
        )
        _apply(session, stream, stop=5)
        session.journal.close()
        reopened = SessionJournal.open(tmp_path)
        assert reopened.spec["pipeline"]["schedule"]["engine"] == "auto"
        reopened.close()
        recovered = FlexibilitySession.resume(tmp_path, fleet=fleet)
        _apply(recovered, stream, start=5)
        assert recovered.snapshot().to_dict() == uninterrupted_final

    def test_resume_without_stored_spec_raises(self, tmp_path, stream):
        self._crash_at(stream, tmp_path, boundary=2)
        with pytest.raises(PersistenceError, match="stores no run spec"):
            FlexibilitySession.resume(tmp_path)


# ---------------------------------------------------------------------- #
# replay_session: journal/resume surface + the failed-event report
# ---------------------------------------------------------------------- #


class TestReplaySurface:
    def test_journal_then_resume_full_stream_is_identity(self, tmp_path):
        baseline = replay_session(EVENTS_FILE)
        journaled = replay_session(EVENTS_FILE, journal_dir=tmp_path / "j")
        assert journaled == baseline
        resumed = replay_session(EVENTS_FILE, journal_dir=tmp_path / "j", resume=True)
        # Everything was already applied: the resumed report carries the
        # recovered final state and no new deltas.
        assert resumed["final"] == baseline["final"]
        assert resumed["committed"] == baseline["committed"]
        assert resumed["deltas"] == []

    def test_resume_from_a_snapshot_at_the_commit_event(self, tmp_path):
        # The CI snapshot smoke: a snapshot after every replan, the run dies
        # at the commit, and the resume loads snapshot 6 with an empty tail.
        baseline = replay_session(SNAPSHOT_EVENTS_FILE)
        journal_dir = tmp_path / "j"
        with faults.inject_faults(
            faults.FaultSpec("session-event", mode="error", index=6)
        ):
            with pytest.raises(SessionReplayError, match=r"events\[6\]"):
                replay_session(SNAPSHOT_EVENTS_FILE, journal_dir=journal_dir)
        assert [p.name for p in journal_dir.glob("snapshot-*")] == [
            "snapshot-00000006.json"
        ]
        reopened = SessionJournal.open(journal_dir)
        assert list(reopened.tail(0)) == []
        reopened.close()
        resumed = replay_session(
            SNAPSHOT_EVENTS_FILE, journal_dir=journal_dir, resume=True
        )
        assert resumed["committed_stable"]
        assert resumed["final"] == baseline["final"]
        assert resumed["committed"] == baseline["committed"]

    def test_resume_rejects_foreign_spec(self, tmp_path, stream):
        spec, _, _, _ = stream
        altered = spec.to_dict()
        altered["scenario"]["seed"] = spec.scenario.seed + 1
        SessionJournal.create(tmp_path, spec=altered).close()
        with pytest.raises(SessionError, match="different .* spec"):
            replay_session(EVENTS_FILE, journal_dir=tmp_path, resume=True)

    def test_failed_event_report_survives_the_error(self):
        with faults.inject_faults(
            faults.FaultSpec("session-event", mode="error", index=4)
        ):
            with pytest.raises(SessionReplayError, match=r"events\[4\]") as excinfo:
                replay_session(EVENTS_FILE)
        report = excinfo.value.report
        assert report is not None
        assert report["failed_event"]["position"] == 4
        assert report["failed_event"]["type"] == "ingest"
        assert "injected fault" in report["failed_event"]["error"]
        # Progress up to the failure is preserved: the first replan's row.
        assert len(report["replans"]) == 1
        assert report["final"] is not None

    def test_cli_writes_partial_report_and_exits_nonzero(self, tmp_path):
        out = tmp_path / "report.json"
        env = dict(os.environ)
        env[faults.FAULTS_ENV_VAR] = faults.FaultPlan(
            specs=(faults.FaultSpec("session-event", mode="error", index=4),),
            latch_dir=None,
        ).encode()
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "session",
                "--replay",
                str(EVENTS_FILE),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 1
        assert "wrote partial report" in proc.stderr
        report = json.loads(out.read_text())
        assert report["failed_event"]["position"] == 4

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"household": 1.7}, "ingest household must be an integer, got float"),
            ({"household": True}, "ingest household must be an integer, got bool"),
            ({"first": False}, "ingest first must be an integer, got bool"),
            ({"count": "96"}, "ingest count must be an integer, got str"),
            (
                {"type": "commit", "through": 5},
                "commit through must be an ISO date string, got int",
            ),
        ],
        ids=["float-household", "bool-household", "bool-first", "str-count", "int-through"],
    )
    def test_malformed_event_fields_raise_session_errors(self, tmp_path, fields, message):
        data = json.loads(EVENTS_FILE.read_text())
        data["events"][0].update(fields)
        path = tmp_path / "events.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SessionError, match=rf"events\[0\]: {message}") as excinfo:
            replay_session(path)
        assert type(excinfo.value.__cause__) is SessionError

    def test_cli_resume_without_journal_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["session", "--replay", str(EVENTS_FILE), "--resume"]) == 2
        assert "--resume needs --journal" in capsys.readouterr().err


@pytest.mark.tier2
class TestCrashRecoveryDrill:
    """The CI smoke, as a test: SIGKILL ``repro session`` mid-stream via
    the fault harness, then ``--resume`` finishes to the exact report."""

    def _run(self, argv, tmp_path, fault_index=None):
        env = dict(os.environ)
        env.pop(faults.FAULTS_ENV_VAR, None)
        if fault_index is not None:
            env[faults.FAULTS_ENV_VAR] = faults.FaultPlan(
                specs=(
                    faults.FaultSpec("session-event", mode="kill", index=fault_index),
                ),
                latch_dir=None,
            ).encode()
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "session", "--replay",
             str(EVENTS_FILE), *argv],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_sigkill_then_resume_reproduces_the_report(self, tmp_path):
        baseline_out = tmp_path / "baseline.json"
        assert self._run(["--out", str(baseline_out)], tmp_path).returncode == 0
        journal = tmp_path / "journal"
        killed = self._run(["--journal", str(journal)], tmp_path, fault_index=4)
        assert killed.returncode == -signal.SIGKILL
        assert (journal / WAL_NAME).exists()
        resumed_out = tmp_path / "resumed.json"
        resumed = self._run(
            ["--journal", str(journal), "--resume", "--out", str(resumed_out)],
            tmp_path,
        )
        assert resumed.returncode == 0, resumed.stderr
        baseline = json.loads(baseline_out.read_text())
        recovered = json.loads(resumed_out.read_text())
        assert recovered["final"] == baseline["final"]
        assert recovered["committed"] == baseline["committed"]
        assert recovered["committed_stable"]
