"""Replay a recorded event stream through a flexibility session.

The session's correctness story needs a deterministic driver: a JSON file
pins a run spec plus an ordered event list (`ingest` / `replan` /
`commit`), and :func:`replay_session` feeds them to a fresh
:class:`~repro.session.state.FlexibilitySession` over the spec's simulated
fleet.  The same file therefore reproduces the same snapshots anywhere —
CI replays ``examples/specs/session_events.json`` as a smoke test and
archives the report.

Event file format (``version`` 1)::

    {
      "version": 1,
      "spec": { ...a RunSpec dict with pipeline.schedule/.session... },
      "events": [
        {"type": "ingest", "household": 0, "first": 0, "count": 96},
        {"type": "replan"},
        {"type": "commit", "through": "2012-03-06T00:00:00"}
      ]
    }

``ingest`` events carry *positions*, not values: the replayed values are
sliced from the household's batch input series
(:func:`~repro.evaluation.comparison.input_series_for`), so a replay that
ingests every interval reconstructs bitwise the series a one-shot run
reads — which is what makes the final-state-vs-one-shot equivalence
oracle meaningful.
"""

from __future__ import annotations

import json
from datetime import datetime
from numbers import Integral
from pathlib import Path
from typing import Any

from repro.api.service import build_schedule_target
from repro.api.spec import RunSpec
from repro.errors import SessionError, SessionReplayError
from repro.evaluation.comparison import input_series_for
from repro.flexoffer.io import report_delta
from repro.session.state import FlexibilitySession, SessionSnapshot
from repro.testing import faults

#: Wire-format version of session event files and replay reports.
SESSION_EVENTS_VERSION = 1

_EVENT_TYPES = ("ingest", "replan", "commit")


def load_session_events(path: str | Path) -> tuple[RunSpec, list[dict[str, Any]]]:
    """Read and validate a session event file: ``(spec, events)``."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SessionError(f"cannot read session events {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SessionError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SessionError(f"{path}: expected a JSON object")
    version = data.get("version", SESSION_EVENTS_VERSION)
    if version != SESSION_EVENTS_VERSION:
        raise SessionError(f"unsupported session-events version {version}")
    if "spec" not in data or "events" not in data:
        raise SessionError(f"{path}: needs 'spec' and 'events' keys")
    spec = RunSpec.from_dict(data["spec"])
    events = data["events"]
    if not isinstance(events, list):
        raise SessionError(f"{path}: 'events' must be a list")
    for position, event in enumerate(events):
        if not isinstance(event, dict) or event.get("type") not in _EVENT_TYPES:
            raise SessionError(
                f"events[{position}]: expected a dict with type in "
                f"{'/'.join(_EVENT_TYPES)}"
            )
    return spec, events


def session_for_spec(spec: RunSpec, fleet=None) -> FlexibilitySession:
    """Build the session a spec describes (fleet simulated unless given)."""
    if fleet is None:
        from repro.simulation.dataset import generate_fleet

        scenario = spec.scenario
        fleet = generate_fleet(
            scenario.households, scenario.start, scenario.days, seed=scenario.seed
        )
    schedule_spec = spec.pipeline.schedule
    if schedule_spec is not None and schedule_spec.zones:
        raise SessionError(
            "session replay supports plain targets only; zoned markets "
            "keep the one-shot pipeline"
        )
    session_spec = spec.pipeline.session
    return FlexibilitySession.for_fleet(
        fleet,
        extractor=spec.extractors[0].create(),
        grouping=spec.pipeline.grouping_params(),
        seed=spec.scenario.seed,
        target=build_schedule_target(spec),
        schedule=None if schedule_spec is None else schedule_spec.config(),
        commit_horizon=(
            None if session_spec is None else session_spec.commit_horizon()
        ),
    )


def _replan_row(snapshot: SessionSnapshot) -> dict[str, Any]:
    offers = sum(len(h.offers) for h in snapshot.households)
    row: dict[str, Any] = {
        "state_version": snapshot.version,
        "watermark": snapshot.watermark.isoformat(),
        "offers": offers,
        "aggregates": len(snapshot.aggregates),
        "committed": len(snapshot.committed),
    }
    if snapshot.schedule is not None:
        row["placed"] = len(snapshot.schedule.schedules)
        row["unplaced"] = len(snapshot.schedule.unplaced)
        row["cost"] = snapshot.schedule.cost
    return row


def _committed_stable(snapshots: list[SessionSnapshot]) -> bool:
    """True when every committed placement reappears bitwise in every later
    snapshot — the replay-level form of ``committed-placement-stability``."""
    for earlier, later in zip(snapshots, snapshots[1:]):
        later_by_id = {s.offer.offer_id: s for s in later.committed}
        for placement in earlier.committed:
            if later_by_id.get(placement.offer.offer_id) != placement:
                return False
        if later.schedule is not None:
            planned = {s.offer.offer_id: s for s in later.schedule.schedules}
            for placement in later.committed:
                if planned.get(placement.offer.offer_id) != placement:
                    return False
    return True


def _apply_event(session, inputs, position, event) -> SessionSnapshot | None:
    """Apply one replay event; returns the snapshot for replan events."""
    kind = event["type"]
    if kind == "ingest":
        for name in ("household", "first", "count"):
            if name not in event:
                raise SessionError(
                    f"events[{position}]: ingest needs household/first/count "
                    f"(missing {name!r})"
                )
            if not isinstance(event[name], Integral) or isinstance(event[name], bool):
                raise SessionError(
                    f"events[{position}]: ingest {name} must be an integer, "
                    f"got {type(event[name]).__name__}"
                )
        household, first, count = event["household"], event["first"], event["count"]
        if not 0 <= household < len(inputs):
            raise SessionError(
                f"events[{position}]: household {household} out of range"
            )
        values = inputs[household].values[first : first + count]
        if values.size != count:
            raise SessionError(
                f"events[{position}]: ingest [{first}, {first + count}) "
                f"overruns the input series"
            )
        session.ingest(household, first, values)
        return None
    if kind == "replan":
        return session.replan()
    if "through" not in event:
        raise SessionError(f"events[{position}]: commit needs 'through'")
    if not isinstance(event["through"], str):
        raise SessionError(
            f"events[{position}]: commit through must be an ISO date string, "
            f"got {type(event['through']).__name__}"
        )
    try:
        through = datetime.fromisoformat(event["through"])
    except ValueError as exc:
        raise SessionError(f"events[{position}]: {exc}") from exc
    session.commit(through)
    return None


def _build_report(
    spec: RunSpec,
    events: list[dict[str, Any]],
    snapshots: list[SessionSnapshot],
    failed_event: dict[str, Any] | None = None,
) -> dict[str, Any]:
    dicts = [snapshot.to_dict() for snapshot in snapshots]
    report = {
        "version": SESSION_EVENTS_VERSION,
        "spec_name": spec.name,
        "events": len(events),
        "replans": [_replan_row(snapshot) for snapshot in snapshots],
        "committed": len(snapshots[-1].committed) if snapshots else 0,
        "committed_stable": _committed_stable(snapshots),
        "deltas": [report_delta(old, new) for old, new in zip(dicts, dicts[1:])],
        "final": dicts[-1] if dicts else None,
    }
    if failed_event is not None:
        report["failed_event"] = failed_event
    return report


def replay_session(
    path: str | Path,
    journal_dir: str | Path | None = None,
    resume: bool = False,
) -> dict[str, Any]:
    """Drive a session through a recorded event file; return the report.

    The report carries one row per replan, the
    :func:`~repro.flexoffer.io.report_delta` between successive snapshots,
    the final snapshot's full encoding, and ``committed_stable`` — whether
    every committed placement survived every later snapshot bitwise.

    With ``journal_dir`` the session journals every event into a durable
    WAL there (``repro session --journal DIR``); ``resume=True`` recovers
    the session from that journal first and replays only the events the
    crashed run never applied (``--resume``) — the recovered final state
    is bitwise the uninterrupted run's.

    A mid-stream failure does not discard the partial progress: the report
    built so far — tagged with a ``failed_event`` marker — rides on the
    raised :class:`~repro.errors.SessionReplayError`.
    """
    spec, events = load_session_events(path)
    from repro.simulation.dataset import generate_fleet

    scenario = spec.scenario
    fleet = generate_fleet(
        scenario.households, scenario.start, scenario.days, seed=scenario.seed
    )
    session = session_for_spec(spec, fleet=fleet)
    inputs = [input_series_for(session.extractor, trace) for trace in fleet]

    applied = 0
    snapshots: list[SessionSnapshot] = []
    if journal_dir is not None:
        from repro.session.persistence import SessionJournal, restore_session

        if resume:
            journal = SessionJournal.open(journal_dir)
            if journal.spec is not None and journal.spec != spec.to_dict():
                raise SessionError(
                    f"journal at {journal_dir} was recorded under a different "
                    f"run spec than {path}; refusing to resume"
                )
            restore_session(session, journal)
            # WAL seq N is events[N-1]: skip what recovery already applied.
            applied = journal.last_seq
            if session.state.version > 0:
                # Seed the delta chain with the recovered state so the
                # remaining replans diff against it, and so a tail with no
                # replan still reports the recovered final snapshot.
                snapshots.append(session.snapshot())
        else:
            session_spec = spec.pipeline.session
            journal = SessionJournal.create(
                journal_dir,
                spec=spec.to_dict(),
                snapshot_every=(
                    None
                    if session_spec is None
                    else session_spec.journal_snapshot_every
                ),
            )
            session.attach_journal(journal)

    for position, event in enumerate(events):
        if position < applied:
            continue
        try:
            faults.fire("session-event", position)
            snapshot = _apply_event(session, inputs, position, event)
        except Exception as exc:
            report = _build_report(
                spec,
                events,
                snapshots,
                failed_event={
                    "position": position,
                    "type": event.get("type"),
                    "error": str(exc),
                },
            )
            raise SessionReplayError(
                f"events[{position}] ({event.get('type')}) failed: {exc}",
                report=report,
            ) from exc
        if snapshot is not None:
            snapshots.append(snapshot)

    if not snapshots:
        raise SessionError("event stream never replanned; nothing to report")
    if session.state.version > snapshots[-1].version:
        # A trailing commit published a newer state than the last replan.
        snapshots.append(session.snapshot())
    return _build_report(spec, events, snapshots)
