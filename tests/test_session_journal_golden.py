"""A journaled session's snapshot files and published states, pinned.

``tests/data/golden/session_journal_digests.json`` records the SHA-256 of
every snapshot file a journaled ``peak-based`` session writes (read back
right after the replan that wrote it) and of every published
:meth:`~repro.session.SessionSnapshot.to_dict`, plus the final WAL.  The
session is the benchmark's journaled workload in miniature: 12 households
× 3 days fed 6 hours of readings for a fifth of the fleet per round, a
snapshot after every replan, groups of at most two offers (so a
replan folds many aggregates), a 6-hour commit horizon, an explicit commit
at every simulated midnight and a retarget at the start of day two.

Unlike the v1/v2 compat goldens, which pin one snapshot written by a
fresh session, this stream runs long enough for any state a session
carries from one replan or snapshot to the next to be in play.  The
golden is the contract, not a snapshot of the current code: never
regenerate it to make a change pass.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.api.spec import (
    ExtractorSpec,
    PipelineSpec,
    RunSpec,
    ScenarioSpec,
    ScheduleSpec,
    SessionSpec,
)
from repro.evaluation.comparison import input_series_for
from repro.session import SessionJournal, session_for_spec
from repro.simulation.dataset import generate_fleet
from repro.timeseries.axis import FIFTEEN_MINUTES
from repro.timeseries.series import TimeSeries
from repro.workloads.scenarios import SCENARIO_START

GOLDEN = Path(__file__).parent / "data" / "golden" / "session_journal_digests.json"

HOUSEHOLDS = 12
DAYS = 3
#: Households written per round: a fifth of the fleet.
PER_ROUND = 2
#: Readings per household per round: 6 hours.
STEP = 24
PER_DAY = 96


def _sha(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _spec() -> RunSpec:
    return RunSpec(
        name="session-journal-golden",
        scenario=ScenarioSpec(
            households=HOUSEHOLDS, days=DAYS, seed=17, start=SCENARIO_START
        ),
        extractors=(ExtractorSpec("peak-based", {"flexible_share": 0.05}),),
        pipeline=PipelineSpec(
            max_group_size=2,
            schedule=ScheduleSpec(target="wind", target_seed=2, improve_iterations=50),
            session=SessionSpec(commit_horizon_minutes=360, journal_snapshot_every=1),
        ),
    )


def journal_digests(journal_dir: Path) -> tuple[dict, object]:
    """Run the pinned event stream into ``journal_dir``: its digests and the
    final session."""
    spec = _spec()
    fleet = generate_fleet(HOUSEHOLDS, SCENARIO_START, DAYS, seed=spec.scenario.seed)
    session = session_for_spec(spec, fleet=fleet)
    session.attach_journal(
        SessionJournal.create(journal_dir, spec=spec.to_dict(), snapshot_every=1)
    )
    readings = [input_series_for(session.extractor, trace).values for trace in fleet]
    snapshots: list[str] = []
    published: list[str] = []

    def publish(snapshot) -> None:
        published.append(_sha(json.dumps(snapshot.to_dict(), sort_keys=True).encode()))

    for first in range(0, DAYS * PER_DAY, STEP):
        if first == PER_DAY:
            target = session.target
            session.retarget(
                TimeSeries(target.axis, np.roll(target.values, 7) * 0.8, "retarget")
            )
        for group in range(0, HOUSEHOLDS, PER_ROUND):
            for household in range(group, group + PER_ROUND):
                session.ingest(household, first, readings[household][first : first + STEP])
            publish(session.replan())
            (newest,) = sorted(journal_dir.glob("snapshot-*.json"))
            snapshots.append(_sha(newest.read_bytes()))
        if (first + STEP) % PER_DAY == 0:
            session.commit(SCENARIO_START + FIFTEEN_MINUTES * (first + STEP))
            publish(session.snapshot())
    session.journal.close()
    digests = {
        "snapshots": snapshots,
        "published": published,
        "wal": _sha((journal_dir / "wal.jsonl").read_bytes()),
    }
    return digests, session


def test_journaled_session_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    digests, session = journal_digests(tmp_path / "journal")
    # The golden only pins what it should if the stream reaches the
    # commit and retarget paths.
    assert session.state.committed and session.target.name == "retarget"
    assert len(digests["snapshots"]) == len(golden["snapshots"])
    for index, (got, want) in enumerate(zip(digests["snapshots"], golden["snapshots"])):
        assert got == want, f"snapshot file {index} differs from the golden"
    assert len(digests["published"]) == len(golden["published"])
    for index, (got, want) in enumerate(zip(digests["published"], golden["published"])):
        assert got == want, f"published state {index} differs from the golden"
    assert digests["wal"] == golden["wal"]
