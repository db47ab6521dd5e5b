"""Durable sessions: a write-ahead log plus snapshot compaction.

A :class:`~repro.session.state.FlexibilitySession` lives in memory; a
process crash used to lose every commitment the session had published.
This module makes the session durable with the classic WAL recipe:

* **Write-ahead log** — ``wal.jsonl`` in the journal directory holds one
  JSON record per session event (``ingest`` / ``replan`` / ``retarget`` /
  ``commit``), in
  order, each carrying a monotonically increasing ``seq`` and a CRC-32
  checksum over its canonical encoding.  Events are logged *before* they
  are applied (redo semantics): replaying the log through a fresh session
  reproduces the exact state, because every session mutation is
  deterministic given the event stream.  Appends are flushed always and
  fsynced on ``commit`` records (the events that promise durability to the
  market side) and on snapshots.
* **Snapshot compaction** — every :attr:`SessionJournal.snapshot_every`
  replans the session's full state is encoded into ``snapshot-<seq>.json``
  (checksummed, written via temp-file + rename).  Compaction then prunes
  older snapshots and drops the WAL prefix the snapshot covers, so the
  journal's size tracks the live state, not the session's lifetime.
* **Recovery** — :func:`restore_session` (and
  :meth:`FlexibilitySession.resume`) loads the newest *intact* snapshot,
  replays the WAL tail on top of it, and re-attaches the journal so new
  events continue the same ``seq`` line.  A torn final WAL record — the
  signature of dying mid-append — is truncated away; torn *snapshots* are
  skipped in favour of an older one (or a full-log replay).  Corruption
  anywhere else raises :class:`~repro.errors.PersistenceError`: silently
  skipping a mid-log record would resurrect a different session.

The recovery contract, enforced by the ``crash-recovery-equivalence``
conformance invariant and the boundary property tests: killing the
process at *any* event boundary and resuming yields a session whose final
snapshot is bitwise identical to the uninterrupted run's.
"""

from __future__ import annotations

import json
import os
import zlib
from datetime import datetime, timedelta
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.errors import PersistenceError
from repro.flexoffer.io import (
    aggregated_from_dict,
    aggregated_to_dict,
    any_schedule_from_dict,
    any_schedule_to_dict,
    flexoffer_from_dict,
    flexoffer_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.testing import faults
from repro.timeseries.axis import TimeAxis

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.session.state import FlexibilitySession

#: Wire-format version of journal records and snapshot files.
JOURNAL_VERSION = 1

#: WAL file name inside a journal directory.
WAL_NAME = "wal.jsonl"

#: Replans between automatic snapshot compactions (journal default).
DEFAULT_SNAPSHOT_EVERY = 4

#: Event types a journal records — the session's public event surface.
JOURNAL_EVENT_TYPES = ("ingest", "replan", "retarget", "commit")


# ---------------------------------------------------------------------- #
# Record encoding
# ---------------------------------------------------------------------- #


def _canonical(payload: Any) -> bytes:
    """The canonical JSON encoding of ``payload`` (one pass of the C encoder).

    ``ensure_ascii`` holds, so the text is ASCII and encoding it is exact.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _checksum(seq: int, kind: str, data: Any) -> int:
    """CRC-32 of the canonical ``[seq, kind, data]`` (what readers verify)."""
    return zlib.crc32(_canonical([seq, kind, data]))


def _framed_crc(seq: int, kind: str, canonical: bytes) -> int:
    """:func:`_checksum` for a payload already encoded by :func:`_canonical`,
    computed over ``[seq,"kind",`` + payload + ``]`` without copying it."""
    crc = zlib.crc32(b"[%d,%b," % (seq, _canonical(kind)))
    return zlib.crc32(b"]", zlib.crc32(canonical, crc))


def _encode_record(seq: int, kind: str, data: dict[str, Any]) -> bytes:
    # Byte-identical to canonically encoding the whole record dict, whose
    # sorted keys are crc, data, seq, type; ``data`` is encoded once.
    canonical = _canonical(data)
    crc = _framed_crc(seq, kind, canonical)
    return b'{"crc":%d,"data":%b,"seq":%d,"type":%b}\n' % (
        crc,
        canonical,
        seq,
        _canonical(kind),
    )


def _decode_record(line: bytes) -> dict[str, Any]:
    """Parse and checksum one WAL line; raises ``ValueError`` when torn."""
    record = json.loads(line.decode("utf-8"))
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    for key in ("seq", "type", "data", "crc"):
        if key not in record:
            raise ValueError(f"record missing {key!r}")
    if record["crc"] != _checksum(record["seq"], record["type"], record["data"]):
        raise ValueError("checksum mismatch")
    return record


# ---------------------------------------------------------------------- #
# Durable state encoding (superset of the published SessionSnapshot: the
# input buffers and commit bookkeeping recovery needs ride along)
# ---------------------------------------------------------------------- #


def _axis_to_dict(axis: TimeAxis) -> dict[str, Any]:
    return {
        "start": axis.start.isoformat(),
        "resolution_seconds": axis.resolution.total_seconds(),
        "length": axis.length,
    }


def _axis_from_dict(data: dict[str, Any]) -> TimeAxis:
    return TimeAxis(
        start=datetime.fromisoformat(data["start"]),
        resolution=timedelta(seconds=data["resolution_seconds"]),
        length=int(data["length"]),
    )


def _mask_runs(mask: np.ndarray) -> list[list[int]]:
    """A boolean mask as ``[first, stop)`` runs of True (compact, exact)."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return [[int(first), int(stop)] for first, stop in zip(edges[::2], edges[1::2])]


def _runs_to_mask(runs: list[list[int]], length: int) -> np.ndarray:
    mask = np.zeros(length, dtype=bool)
    for first, stop in runs:
        mask[first:stop] = True
    return mask


def encode_state(session: "FlexibilitySession") -> dict[str, Any]:
    """The session's full durable state (everything recovery must restore)."""
    state = session.state
    return {
        "state_version": state.version,
        "commit_boundary": (
            None if state.commit_boundary is None else state.commit_boundary.isoformat()
        ),
        "households": [
            {
                "index": h.index,
                "household_id": h.household_id,
                "series_name": h.series_name,
                "axis": _axis_to_dict(h.axis),
                "values": h.values.tolist(),
                "covered": _mask_runs(h.covered),
                "dirty": bool(h.dirty),
                "offers": [flexoffer_to_dict(o) for o in h.offers],
                "summary": {k: float(v) for k, v in h.summary.items()},
            }
            for h in state.households
        ],
        "aggregates": [aggregated_to_dict(a) for a in state.aggregates],
        "open_schedules": [schedule_to_dict(s) for s in state.open_schedules],
        "schedule": (
            None if state.schedule is None else any_schedule_to_dict(state.schedule)
        ),
        "committed": [schedule_to_dict(s) for s in state.committed],
        "committed_members": sorted(state.committed_members),
        # The target is constructor configuration *except* after a
        # retarget; storing it keeps compaction safe when the retarget
        # record has been pruned from the WAL.
        "target": (
            None
            if session.target is None
            else {
                "name": session.target.name,
                "values": session.target.values.tolist(),
            }
        ),
    }


def decode_state(session: "FlexibilitySession", payload: dict[str, Any]) -> None:
    """Restore a durable state payload into a freshly constructed session.

    The session must have been built with the same constructor inputs as
    the journaled one (same fleet axes, extractor, seed, target…) — the
    payload carries state, not configuration.  ``committed_demand`` is not
    stored: it is rebuilt by re-accumulating the committed placements in
    commit order, which reproduces the original float sums bitwise.
    """
    state = session.state
    households = payload["households"]
    if len(households) != len(state.households):
        raise PersistenceError(
            f"snapshot has {len(households)} household(s), session has "
            f"{len(state.households)}; resume with the session the journal "
            "was recorded from"
        )
    for live, stored in zip(state.households, households):
        axis = _axis_from_dict(stored["axis"])
        if (
            live.index != stored["index"]
            or live.household_id != stored["household_id"]
            or live.axis != axis
        ):
            raise PersistenceError(
                f"household {stored['index']} ({stored['household_id']!r}) does "
                "not match the session being restored; resume with the session "
                "the journal was recorded from"
            )
        live.series_name = stored["series_name"]
        live.values = np.asarray(stored["values"], dtype=np.float64)
        live.covered = _runs_to_mask(stored["covered"], axis.length)
        live.dirty = bool(stored["dirty"])
        live.offers = tuple(flexoffer_from_dict(o) for o in stored["offers"])
        live.summary = dict(stored["summary"])
    state.version = int(payload["state_version"])
    state.aggregates = tuple(aggregated_from_dict(a) for a in payload["aggregates"])
    state.open_schedules = [schedule_from_dict(s) for s in payload["open_schedules"]]
    state.schedule = (
        None
        if payload["schedule"] is None
        else any_schedule_from_dict(payload["schedule"])
    )
    state.committed = [schedule_from_dict(s) for s in payload["committed"]]
    state.committed_members = set(payload["committed_members"])
    state.commit_boundary = (
        None
        if payload["commit_boundary"] is None
        else datetime.fromisoformat(payload["commit_boundary"])
    )
    stored_target = payload.get("target")
    if stored_target is not None and session.target is not None:
        # A pre-snapshot retarget replaced the constructor target; restore
        # the replacement (axis is fixed, only values/name can change).
        from repro.timeseries.series import TimeSeries

        session.target = TimeSeries(
            session.target.axis,
            np.asarray(stored_target["values"], dtype=np.float64),
            stored_target["name"],
        )
    if session.target is not None:
        axis = session.target.axis
        demand = np.zeros(axis.length)
        for placement in state.committed:
            first = axis.index_of(placement.start)
            energies = placement.interval_energies()
            demand[first : first + energies.size] += energies
        state.committed_demand = demand


# ---------------------------------------------------------------------- #
# The journal
# ---------------------------------------------------------------------- #


class SessionJournal:
    """One session's durable journal: the WAL plus its snapshots.

    Construct via :meth:`create` (fresh directory) or :meth:`open`
    (existing journal; truncates a torn final record).  The journal is a
    plain directory, inspectable with ``cat`` — ``wal.jsonl`` plus zero or
    more ``snapshot-<seq>.json`` files — and safe to copy while cold.
    """

    def __init__(
        self,
        directory: Path,
        spec: dict[str, Any] | None,
        snapshot_every: int,
        last_seq: int,
        header: bytes,
    ) -> None:
        self.directory = directory
        self.spec = spec
        self.snapshot_every = snapshot_every
        self._last_seq = last_seq
        #: The WAL's ``open`` header line, all a compacted WAL keeps.
        self._header = header
        self._wal = directory / WAL_NAME
        self._fh = open(self._wal, "ab")

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls,
        directory: str | Path,
        spec: dict[str, Any] | None = None,
        snapshot_every: int | None = None,
    ) -> "SessionJournal":
        """Start a fresh journal in ``directory`` (created if missing).

        ``spec`` — a :class:`~repro.api.spec.RunSpec` dict — is stored in
        the WAL header so :meth:`FlexibilitySession.resume` can rebuild
        the session without outside help.  Refuses a directory that
        already journals a session: recovery must be an explicit choice
        (:meth:`open` / ``--resume``), never an accidental overwrite.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        wal = directory / WAL_NAME
        if wal.exists() and wal.stat().st_size > 0:
            raise PersistenceError(
                f"journal directory {directory} already holds a session "
                "journal; resume it (or point --journal somewhere fresh)"
            )
        every = DEFAULT_SNAPSHOT_EVERY if snapshot_every is None else snapshot_every
        if every < 1:
            raise PersistenceError(f"snapshot_every must be >= 1, got {every}")
        header = _encode_record(
            0,
            "open",
            {"version": JOURNAL_VERSION, "spec": spec, "snapshot_every": every},
        )
        with open(wal, "wb") as fh:
            fh.write(header)
            fh.flush()
            os.fsync(fh.fileno())
        return cls(directory, spec, every, last_seq=0, header=header)

    @classmethod
    def open(cls, directory: str | Path) -> "SessionJournal":
        """Open an existing journal, truncating a torn final WAL record."""
        directory = Path(directory)
        wal = directory / WAL_NAME
        if not wal.exists():
            raise PersistenceError(f"no session journal at {directory} (no {WAL_NAME})")
        records, keep_bytes, total_bytes = cls._scan(wal)
        if not records:
            raise PersistenceError(f"{wal} holds no intact records (header lost)")
        header = records[0]
        if header["seq"] != 0 or header["type"] != "open":
            raise PersistenceError(f"{wal} does not start with an 'open' header")
        meta = header["data"]
        if not isinstance(meta, dict):
            raise PersistenceError(f"{wal}: 'open' header data is not a JSON object")
        if meta.get("version") != JOURNAL_VERSION:
            raise PersistenceError(
                f"unsupported journal version {meta.get('version')} in {wal}"
            )
        if keep_bytes < total_bytes:
            # Torn final record: the signature of dying mid-append.  The
            # event was never applied durably, so dropping it is exactly
            # the at-boundary semantics recovery promises.
            os.truncate(wal, keep_bytes)
        with open(wal, "rb") as fh:
            header_line = fh.readline()
        journal = cls(
            directory,
            meta.get("spec"),
            meta.get("snapshot_every", DEFAULT_SNAPSHOT_EVERY),
            last_seq=records[-1]["seq"],
            header=header_line,
        )
        # Snapshots may outrun the (compacted) WAL records.
        newest = journal.latest_snapshot()
        if newest is not None:
            journal._last_seq = max(journal._last_seq, newest[0])
        return journal

    @staticmethod
    def _scan(wal: Path) -> tuple[list[dict[str, Any]], int, int]:
        """All intact records plus the byte length of the intact prefix."""
        raw = wal.read_bytes()
        records: list[dict[str, Any]] = []
        offset = 0
        previous_seq: int | None = None
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:
                break  # no terminator: torn tail
            line = raw[offset : newline + 1]
            try:
                record = _decode_record(line[:-1])
            except (ValueError, UnicodeDecodeError) as exc:
                if newline + 1 >= len(raw):
                    break  # corrupt *final* record: torn tail
                raise PersistenceError(
                    f"{wal}: corrupt record mid-log at byte {offset} ({exc}); "
                    "refusing to recover past unreadable history"
                ) from exc
            if previous_seq is not None and record["seq"] <= previous_seq:
                raise PersistenceError(
                    f"{wal}: record sequence went backwards at byte {offset} "
                    f"({previous_seq} -> {record['seq']})"
                )
            previous_seq = record["seq"]
            records.append(record)
            offset = newline + 1
        return records, offset, len(raw)

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest durable event (0 = header only)."""
        return self._last_seq

    def append(self, kind: str, data: dict[str, Any], durable: bool = False) -> int:
        """Log one event record; returns its ``seq``.

        ``durable=True`` (commit events) fsyncs; everything else flushes.
        The ``wal-append`` fault point simulates dying mid-write: a prefix
        of the record is persisted, then
        :class:`~repro.testing.faults.InjectedCrash` flies.
        """
        if kind not in JOURNAL_EVENT_TYPES:
            raise PersistenceError(f"cannot journal event type {kind!r}")
        seq = self._last_seq + 1
        payload = _encode_record(seq, kind, data)
        cut = faults.torn_cut("wal-append", seq, len(payload))
        if cut is not None:
            self._fh.write(payload[:cut])
            self._fh.flush()
            os.fsync(self._fh.fileno())
            raise faults.InjectedCrash(f"torn WAL append at seq {seq}")
        self._fh.write(payload)
        self._fh.flush()
        if durable:
            os.fsync(self._fh.fileno())
        self._last_seq = seq
        return seq

    # ------------------------------------------------------------------ #
    # Snapshots + compaction
    # ------------------------------------------------------------------ #

    def _snapshot_path(self, seq: int) -> Path:
        return self.directory / f"snapshot-{seq:08d}.json"

    def write_snapshot(self, state_payload: dict[str, Any]) -> Path:
        """Persist the state as of :attr:`last_seq`, then compact.

        The snapshot is checksummed and written via temp-file + rename, so
        a crash mid-write leaves either no snapshot or an ignorable torn
        one — never a plausible-looking wrong one.  Compaction then prunes
        older snapshots and drops the WAL records the snapshot covers.

        The state is encoded once, canonically; the body is the canonical
        encoding of ``{"crc", "seq", "state", "version"}`` built around
        that text, and the CRC frames the same text.  The
        ``snapshot-write`` fault point simulates dying mid-write: a prefix
        of the temp file is persisted, then
        :class:`~repro.testing.faults.InjectedCrash` flies before the
        rename.
        """
        seq = self._last_seq
        state = _canonical(state_payload)
        crc = _framed_crc(seq, "snapshot", state)
        body = b'{"crc":%d,"seq":%d,"state":%b,"version":%d}' % (
            crc,
            seq,
            state,
            JOURNAL_VERSION,
        )
        path = self._snapshot_path(seq)
        tmp = path.with_suffix(".json.tmp")
        cut = faults.torn_cut("snapshot-write", seq, len(body))
        with open(tmp, "wb") as fh:
            fh.write(body if cut is None else body[:cut])
            fh.flush()
            os.fsync(fh.fileno())
        if cut is not None:
            raise faults.InjectedCrash(f"torn snapshot write at seq {seq}")
        os.replace(tmp, path)
        self._compact(path)
        return path

    def _compact(self, snapshot: Path) -> None:
        """Prune everything ``snapshot`` (as of :attr:`last_seq`) supersedes.

        Older snapshots and leftover temp files go; the snapshot covers
        every logged event, so the WAL is atomically reset to its header.
        """
        for stale in self.directory.glob("snapshot-*.json*"):
            if stale != snapshot:
                stale.unlink()
        tmp = self._wal.with_suffix(".jsonl.tmp")
        with open(tmp, "wb") as fh:
            fh.write(self._header)
            fh.flush()
            os.fsync(fh.fileno())
        self._fh.close()
        os.replace(tmp, self._wal)
        self._fh = open(self._wal, "ab")

    def latest_snapshot(self) -> tuple[int, dict[str, Any]] | None:
        """The newest intact snapshot as ``(seq, state payload)``, if any.

        Torn, checksum-failing or malformed snapshots (a body that is not
        an object, a non-integer ``seq``, a state that is not an object)
        are skipped: an older one, or a full-log replay, still recovers
        the session.
        """
        for path in sorted(self.directory.glob("snapshot-*.json"), reverse=True):
            try:
                body = json.loads(path.read_text())
                if not isinstance(body, dict):
                    continue
                if body["crc"] != _checksum(body["seq"], "snapshot", body["state"]):
                    continue
            except (ValueError, KeyError, OSError):
                continue
            seq, state = body["seq"], body["state"]
            if (
                body.get("version") == JOURNAL_VERSION
                and type(seq) is int
                and isinstance(state, dict)
            ):
                return seq, state
        return None

    def tail(self, after_seq: int) -> Iterator[dict[str, Any]]:
        """Event records with ``seq > after_seq``, in log order."""
        records, _, _ = self._scan(self._wal)
        for record in records[1:]:
            if record["seq"] > after_seq:
                yield record

    def close(self) -> None:
        self._fh.close()


# ---------------------------------------------------------------------- #
# Recovery
# ---------------------------------------------------------------------- #


def _fields(record: dict[str, Any], *names: str) -> tuple[Any, ...]:
    """``record["data"][name]`` for each name, or a PersistenceError that
    names the record's seq and the first absent field."""
    data = record["data"]
    if not isinstance(data, dict):
        raise PersistenceError(
            f"WAL record seq {record['seq']} ({record['type']}): data is not a "
            "JSON object"
        )
    for name in names:
        if name not in data:
            raise PersistenceError(
                f"WAL record seq {record['seq']} ({record['type']}) missing "
                f"field {name!r}"
            )
    return tuple(data[name] for name in names)


def restore_session(
    session: "FlexibilitySession", journal: "SessionJournal | str | Path"
) -> "FlexibilitySession":
    """Recover ``session`` from its journal and re-attach it.

    ``session`` must be a *fresh* session constructed exactly like the
    journaled one (:meth:`FlexibilitySession.resume` builds it from the
    stored spec; programmatic callers rebuild it themselves).  Recovery
    ordering: newest intact snapshot first, then the WAL tail replayed
    through the ordinary event methods — which re-runs the deterministic
    extraction/aggregation/placement code, so the recovered state is
    bitwise the state the events originally produced.
    """
    if not isinstance(journal, SessionJournal):
        journal = SessionJournal.open(journal)
    if session.journal is not None:
        raise PersistenceError("session already has a journal attached")
    state = session.state
    if state.version > 0 or any(h.covered.any() for h in state.households):
        raise PersistenceError(
            "restore_session needs a freshly constructed session; this one "
            "has already ingested or replanned"
        )
    after = 0
    snapshot = journal.latest_snapshot()
    session._replaying = True
    try:
        if snapshot is not None:
            seq, payload = snapshot
            decode_state(session, payload)
            after = seq
        for record in journal.tail(after):
            kind = record["type"]
            if kind == "ingest":
                household, first, values = _fields(
                    record, "household", "first", "values"
                )
                session.ingest(household, first, values)
            elif kind == "replan":
                session.replan()
            elif kind == "retarget":
                from repro.timeseries.series import TimeSeries

                name, values = _fields(record, "name", "values")
                session.retarget(
                    TimeSeries(
                        session.target.axis,
                        np.asarray(values, dtype=np.float64),
                        name,
                    )
                )
            elif kind == "commit":
                (through,) = _fields(record, "through")
                session.commit(datetime.fromisoformat(through))
            else:  # pragma: no cover - _scan admits only encodable records
                raise PersistenceError(f"unknown journal record type {kind!r}")
    finally:
        session._replaying = False
    session.attach_journal(journal, _resuming=True)
    return session
