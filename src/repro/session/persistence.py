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
  replans the session's durable state is encoded into
  ``snapshot-<seq>.json`` (checksummed, written via temp-file + rename,
  then the directory fsynced).  Compaction then prunes older snapshots
  and drops the WAL prefix the snapshot covers, so the journal's size
  tracks the live state, not the session's lifetime.  The encoder
  reuses the bytes of the household records, offers, aggregates and
  placements the previous snapshot held that have not changed since (an
  in-memory cache, never persisted).
* **Snapshot format v2** — a snapshot stores the session's inputs and
  decisions, not what extraction derives from them.  Each household's
  input buffer (and a retargeted target's values) is base64 of its
  little-endian float64 bytes, exact by construction.  Offers ride along
  only for *dirty* households (their offers predate their newest
  readings); a clean household's offers are re-extracted on restore with
  its own seed and id scope, exactly as a replan would, and the
  re-derived summary must encode to the stored one's bytes or the restore
  raises :class:`~repro.errors.PersistenceError` (the snapshot came from
  a different extractor or seed).  Aggregates, placements and commit
  bookkeeping are stored as they are.  :func:`encode_state` writes v2
  only; :func:`decode_state` reads v1 (float lists, every household's
  offers) and v2.
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

import base64
import json
import os
import zlib
from dataclasses import replace
from datetime import datetime
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, NamedTuple

import numpy as np

from repro.errors import PersistenceError, SessionError
from repro.flexoffer.io import (
    aggregated_from_dict,
    aggregated_to_dict,
    any_schedule_from_dict,
    flexoffer_from_dict,
    flexoffer_to_dict,
    schedule_from_dict,
    schedule_result_to_dict,
    schedule_to_dict,
)
from repro.testing import faults
from repro.timeseries.axis import TimeAxis
from repro.wire import decode, encode, guard

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.scheduling.greedy import ScheduleResult
    from repro.session.state import FlexibilitySession, _HouseholdState

#: Wire-format version of the WAL header and its records.
JOURNAL_VERSION = 1

#: Format version of the snapshot files :meth:`SessionJournal.write_snapshot`
#: writes (the body's ``"version"``; see the module docstring).
SNAPSHOT_FORMAT_VERSION = 2

#: Snapshot format versions recovery reads.
SNAPSHOT_FORMAT_VERSIONS = (1, 2)

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


def _mask_runs(mask: np.ndarray) -> list[list[int]]:
    """A boolean mask as ``[first, stop)`` runs of True (compact, exact)."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return [[int(first), int(stop)] for first, stop in zip(edges[::2], edges[1::2])]


def _coverage_runs(h: "_HouseholdState") -> list[list[int]]:
    """:func:`_mask_runs` of a household's coverage.  When the covered
    prefix reaches the last covered index, as it does for in-order
    arrival, the coverage is the one run ``[0, end)`` (none while ``end``
    is 0), read off without scanning the mask."""
    if h.prefix == h.end:
        return [[0, h.end]] if h.end else []
    return _mask_runs(h.covered)


def _runs_to_mask(runs: list[list[int]], length: int, where: str) -> np.ndarray:
    """The mask :func:`_mask_runs` wrote: runs must be pairs of ints with
    ``0 <= first < stop <= length``, ascending and non-overlapping."""
    mask = np.zeros(length, dtype=bool)
    end = 0
    for run in runs:
        if not (
            isinstance(run, list) and len(run) == 2 and all(type(bound) is int for bound in run)
        ):
            raise PersistenceError(f"{where}: covered run {run!r} is not a pair of ints")
        first, stop = run
        if not 0 <= first < stop <= length:
            raise PersistenceError(
                f"{where}: covered run {run!r} is outside 0 <= first < stop <= {length}"
            )
        if first < end:
            raise PersistenceError(
                f"{where}: covered run {run!r} overlaps or precedes the run before it"
            )
        mask[first:stop] = True
        end = stop
    return mask


def _buffer_to_base64(values: np.ndarray) -> bytes:
    """A float64 buffer as base64 of its little-endian bytes (bitwise exact)."""
    return base64.b64encode(values.astype("<f8", copy=False).tobytes())


def _buffer_from_wire(stored: Any, length: int, version: int) -> np.ndarray:
    """Decode a stored buffer (v1 float list, v2 base64) of ``length`` floats.

    The result is a fresh writable array: ``ingest`` writes into it.
    """
    if version == 1:
        values = np.asarray(stored, dtype=np.float64)
        if values.shape != (length,):
            raise PersistenceError(
                f"snapshot buffer holds {values.size} value(s), its axis has {length}"
            )
        return values
    if not isinstance(stored, str):
        raise TypeError(f"buffer is {type(stored).__name__}, not base64 text")
    raw = base64.b64decode(stored, validate=True)
    if len(raw) != 8 * length:
        raise PersistenceError(
            f"snapshot buffer holds {len(raw)} byte(s), its axis needs {8 * length}"
        )
    return np.frombuffer(raw, "<f8").copy()


def _summary_to_wire(summary: dict[str, float]) -> dict[str, float]:
    return {k: float(v) for k, v in summary.items()}


def _object(fields: dict[str, bytes]) -> bytes:
    """:func:`_canonical` of an object, given its values' canonical bytes."""
    return b"{%b}" % b",".join(
        b"%b:%b" % (_canonical(key), fields[key]) for key in sorted(fields)
    )


def _array(items: Iterable[bytes]) -> bytes:
    """:func:`_canonical` of a list, given its items' canonical bytes."""
    return b"[%b]" % b",".join(items)


def _encoded(record: dict[str, Any]) -> dict[str, bytes]:
    """Each value of ``record`` in its canonical encoding."""
    return {key: _canonical(value) for key, value in record.items()}


class _Record(NamedTuple):
    """A household record's bytes, valid while its write generation holds,
    and the bytes of its fields that only a restore can change."""

    household: "_HouseholdState"
    generation: int
    series_name: str
    constant: tuple[bytes, bytes, bytes]
    data: bytes


def _record_constant(h: "_HouseholdState") -> tuple[bytes, bytes, bytes]:
    """The bytes of a household record around its varying fields."""
    return (
        b'{"axis":%b,"covered":' % _canonical(encode(h.axis)),
        b',"household_id":%b,"index":%d,' % (_canonical(h.household_id), h.index),
        b'"series_name":%b,"summary":' % _canonical(h.series_name),
    )


def _household_record(h: "_HouseholdState", constant: tuple[bytes, bytes, bytes]) -> bytes:
    """:func:`_canonical` of a household's record, given its constant bytes.

    The keys are in sorted order; the buffer is base64, whose alphabet
    needs no JSON escaping, so its text goes between quotes as it is.
    """
    head, ident, name = constant
    offers = b""
    if h.dirty:
        # Only an encode between an ingest and the next replan sees a
        # dirty household: the journal snapshots right after a replan.
        offers = b'"offers":%b,' % _canonical([flexoffer_to_dict(o) for o in h.offers])
    return b'%b%b,"dirty":%b%b%b%b%b,"values":"%b"}' % (
        head,
        _canonical(_coverage_runs(h)),
        b"true" if h.dirty else b"false",
        ident,
        offers,
        name,
        _canonical(_summary_to_wire(h.summary)),
        _buffer_to_base64(h.values),
    )


class _Fragments:
    """Canonical bytes of the objects a snapshot encodes.

    Offers, aggregates and placements are immutable, so an object encoded
    for one snapshot encodes to the same bytes in every later one.  A
    household record is reused while the household's write generation
    holds (:class:`_Record`).  Entries are keyed by identity and hold the
    object itself, so no id is recycled while its entry lives.  An encode
    starts from the session's cache and leaves behind only the entries it
    used: the cache holds the latest snapshot's objects and nothing older.
    """

    def __init__(self, previous: dict[int, Any]) -> None:
        self._previous = previous
        self.used: dict[int, Any] = {}

    def household(self, h: "_HouseholdState") -> bytes:
        """A household record, re-assembled only when the household changed."""
        entry = self._previous.get(id(h))
        if entry is None or entry.generation != h.generation:
            constant = (
                entry.constant
                if entry is not None and entry.series_name == h.series_name
                else _record_constant(h)
            )
            entry = _Record(
                h, h.generation, h.series_name, constant, _household_record(h, constant)
            )
        self.used[id(h)] = entry
        return entry.data

    def __call__(self, obj: Any, to_dict) -> bytes:
        key = id(obj)
        entry = self.used.get(key) or self._previous.get(key)
        if entry is None:
            entry = (obj, _canonical(to_dict(obj)))
        self.used[key] = entry
        return entry[1]

    def schedule(self, result: "ScheduleResult") -> bytes:
        """A schedule result: axis and target encoded afresh, its
        placements and unplaced offers from the cache."""
        # The wire encoder lays out the axis and target; the two lists it
        # would encode in full are filled in from the cache.
        fields = _encoded(schedule_result_to_dict(replace(result, schedules=[], unplaced=[])))
        fields["schedules"] = _array(self(s, schedule_to_dict) for s in result.schedules)
        fields["unplaced"] = _array(self(o, flexoffer_to_dict) for o in result.unplaced)
        return _object(fields)


def encode_state(session: "FlexibilitySession") -> bytes:
    """The session's durable state in snapshot format v2, canonically encoded.

    Everything recovery must restore except what re-extraction derives:
    clean households carry no offers (see the module docstring).  The
    bytes are :func:`_canonical` of the state object, assembled from the
    canonical bytes of its parts: the target is encoded afresh; household
    records, aggregates, placements and unplaced offers come from the
    session's fragment cache (see :class:`_Fragments`), which starts
    empty in every new or restored session and is never persisted.
    """
    state = session.state
    fragments = _Fragments(session._snapshot_fragments)
    households = [fragments.household(h) for h in state.households]
    fields = _encoded(
        {
            "state_version": state.version,
            "commit_boundary": (
                None
                if state.commit_boundary is None
                else state.commit_boundary.isoformat()
            ),
            "committed_members": sorted(state.committed_members),
            # The target is constructor configuration *except* after a
            # retarget; storing it keeps compaction safe when the retarget
            # record has been pruned from the WAL.
            "target": (
                None
                if session.target is None
                else {
                    "name": session.target.name,
                    "values": _buffer_to_base64(session.target.values).decode("ascii"),
                }
            ),
        }
    )
    fields["households"] = _array(households)
    fields["aggregates"] = _array(
        fragments(a, aggregated_to_dict) for a in state.aggregates
    )
    fields["open_schedules"] = _array(
        fragments(s, schedule_to_dict) for s in state.open_schedules
    )
    fields["schedule"] = (
        b"null" if state.schedule is None else fragments.schedule(state.schedule)
    )
    fields["committed"] = _array(fragments(s, schedule_to_dict) for s in state.committed)
    session._snapshot_fragments = fragments.used
    return _object(fields)


def decode_state(
    session: "FlexibilitySession",
    payload: dict[str, Any],
    version: int = SNAPSHOT_FORMAT_VERSION,
) -> None:
    """Restore a durable state payload into a freshly constructed session.

    ``version`` is the snapshot format the payload was written in.  The
    session must have been built with the same constructor inputs as the
    journaled one (same fleet axes, extractor, seed, target…) — the
    payload carries state, not configuration.  ``committed_demand`` is not
    stored: it is rebuilt by re-accumulating the committed placements in
    commit order, which reproduces the original float sums bitwise.  A v2
    payload's clean households are re-extracted (see the module
    docstring).  Malformed payloads raise :class:`PersistenceError`.
    """
    if version not in SNAPSHOT_FORMAT_VERSIONS:
        raise PersistenceError(f"unsupported snapshot format version {version}")
    state = session.state
    with guard(PersistenceError, "snapshot state", keep=PersistenceError):
        if not isinstance(payload, dict):
            raise TypeError(f"state is {type(payload).__name__}, not a JSON object")
        households = payload["households"]
        if not isinstance(households, list):
            raise TypeError(f"'households' is {type(households).__name__}, not a list")
    if len(households) != len(state.households):
        raise PersistenceError(
            f"snapshot has {len(households)} household(s), session has "
            f"{len(state.households)}; resume with the session the journal "
            "was recorded from"
        )
    rederive = []
    for position, (live, stored) in enumerate(zip(state.households, households)):
        where = f"snapshot household {position}"
        with guard(PersistenceError, where, keep=PersistenceError):
            axis = decode(TimeAxis, stored["axis"])
            if (
                live.index != stored["index"]
                or live.household_id != stored["household_id"]
                or live.axis != axis
            ):
                raise PersistenceError(
                    f"household {stored['index']} ({stored['household_id']!r}) "
                    "does not match the session being restored; resume with the "
                    "session the journal was recorded from"
                )
            dirty = bool(stored["dirty"])
            live.restore(
                stored["series_name"],
                _buffer_from_wire(stored["values"], axis.length, version),
                _runs_to_mask(stored["covered"], axis.length, where),
                dirty,
                dict(stored["summary"]),
                (
                    tuple(flexoffer_from_dict(o) for o in stored["offers"])
                    if version == 1 or dirty
                    else ()
                ),
            )
            if version == 2 and not dirty and live.summary:
                rederive.append(live)
    for live, output in zip(rederive, session._extract(rederive)):
        if _canonical(_summary_to_wire(output.summary)) != _canonical(live.summary):
            raise PersistenceError(
                f"household {live.index} ({live.household_id!r}): re-extracting "
                "its buffer does not reproduce the stored summary; the snapshot "
                "was written by a different extractor or seed"
            )
        live.adopt(output)
    with guard(PersistenceError, "snapshot state", keep=PersistenceError):
        state.version = int(payload["state_version"])
        state.aggregates = tuple(
            aggregated_from_dict(a) for a in payload["aggregates"]
        )
        state.open_schedules = [
            schedule_from_dict(s) for s in payload["open_schedules"]
        ]
        state.schedule = (
            None
            if payload["schedule"] is None
            else any_schedule_from_dict(payload["schedule"])
        )
        state.committed = [schedule_from_dict(s) for s in payload["committed"]]
        members = payload["committed_members"]
        if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
            raise TypeError("'committed_members' is not a list of offer ids")
        state.committed_members = set(members)
        state.commit_boundary = (
            None
            if payload["commit_boundary"] is None
            else datetime.fromisoformat(payload["commit_boundary"])
        )
        stored_target = payload.get("target")
        if stored_target is not None and session.target is not None:
            # A pre-snapshot retarget replaced the constructor target;
            # restore the replacement (axis is fixed, only values/name can
            # change).
            from repro.timeseries.series import TimeSeries

            axis = session.target.axis
            session.target = TimeSeries(
                axis,
                _buffer_from_wire(stored_target["values"], axis.length, version),
                stored_target["name"],
            )
    if session.target is not None:
        axis = session.target.axis
        demand = np.zeros(axis.length)
        for placement in state.committed:
            energies = placement.interval_energies()
            first = int((placement.start - axis.start) // axis.resolution)
            if first < 0 or first + energies.size > axis.length:
                raise PersistenceError(
                    f"a committed placement at {placement.start} spanning "
                    f"{energies.size} interval(s) does not fit the session's "
                    "target axis"
                )
            demand[first : first + energies.size] += energies
        state.committed_demand = demand


# ---------------------------------------------------------------------- #
# The journal
# ---------------------------------------------------------------------- #


def _fsync_directory(directory: Path) -> None:
    """Make the entries created or renamed in ``directory`` durable.

    A file's own fsync does not persist its directory entry; without this
    a power loss could keep a later change (the WAL reset) and lose an
    earlier rename (the snapshot).  POSIX only: elsewhere directories
    cannot be opened for fsync.
    """
    if os.name != "posix":
        return
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


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
        _fsync_directory(directory)
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

    def write_snapshot(self, state: bytes) -> Path:
        """Persist the state as of :attr:`last_seq`, then compact.

        ``state`` is the state's canonical encoding, as
        :func:`encode_state` returns it.  The snapshot is checksummed and
        written via temp-file + rename, and the directory is fsynced
        before compaction, so a crash leaves either no snapshot or an
        ignorable torn one — never a plausible-looking wrong one, and
        never a reset WAL without the snapshot that covers it.
        Compaction then prunes older snapshots and drops the WAL records
        the snapshot covers.

        The body is the canonical encoding of ``{"crc", "seq", "state",
        "version"}`` built around the state text, and the CRC frames the
        same text.  The ``snapshot-write`` fault point simulates dying
        mid-write: a prefix of the temp file is persisted, then
        :class:`~repro.testing.faults.InjectedCrash` flies before the
        rename.
        """
        seq = self._last_seq
        crc = _framed_crc(seq, "snapshot", state)
        body = b'{"crc":%d,"seq":%d,"state":%b,"version":%d}' % (
            crc,
            seq,
            state,
            SNAPSHOT_FORMAT_VERSION,
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
        _fsync_directory(self.directory)
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
        an object, a non-integer ``seq``, a state that is not an object,
        an unknown format version) are skipped: an older one, or a
        full-log replay, still recovers the session.
        """
        newest = self._newest_snapshot()
        return None if newest is None else (newest[0], newest[2])

    def _newest_snapshot(self) -> tuple[int, int, dict[str, Any]] | None:
        """:meth:`latest_snapshot` plus its format: ``(seq, version, state)``."""
        for path in sorted(self.directory.glob("snapshot-*.json"), reverse=True):
            try:
                body = json.loads(path.read_text())
                if not isinstance(body, dict):
                    continue
                if body["crc"] != _checksum(body["seq"], "snapshot", body["state"]):
                    continue
            except (ValueError, KeyError, OSError):
                continue
            seq, state, version = body["seq"], body["state"], body.get("version")
            if (
                type(version) is int
                and version in SNAPSHOT_FORMAT_VERSIONS
                and type(seq) is int
                and isinstance(state, dict)
            ):
                return seq, version, state
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
    snapshot = journal._newest_snapshot()
    session._replaying = True
    try:
        if snapshot is not None:
            seq, version, payload = snapshot
            decode_state(session, payload, version)
            after = seq
        for record in journal.tail(after):
            kind = record["type"]
            # A record the session cannot apply (a field of the wrong type
            # or value, an event the session does not support) names its
            # seq and type.
            what = f"WAL record seq {record['seq']} ({kind})"
            applying = guard(
                PersistenceError,
                what,
                keep=PersistenceError,
                malformed=f"{what} cannot be applied",
            )
            if kind == "ingest":
                household, first, values = _fields(
                    record, "household", "first", "values"
                )
                with applying:
                    session.ingest(household, first, values)
            elif kind == "replan":
                session.replan()
            elif kind == "retarget":
                from repro.timeseries.series import TimeSeries

                name, values = _fields(record, "name", "values")
                with applying:
                    if session.target is None:
                        raise SessionError("the session was built without a target")
                    session.retarget(
                        TimeSeries(
                            session.target.axis,
                            np.asarray(values, dtype=np.float64),
                            name,
                        )
                    )
            elif kind == "commit":
                (through,) = _fields(record, "through")
                with applying:
                    session.commit(datetime.fromisoformat(through))
            else:  # pragma: no cover - _scan admits only encodable records
                raise PersistenceError(f"unknown journal record type {kind!r}")
    finally:
        session._replaying = False
    session.attach_journal(journal, _resuming=True)
    return session
