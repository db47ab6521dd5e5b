"""Replans and snapshots at the cost of the new readings.

A session's replan detects and formulates a day-local extractor's days
only up to each dirty household's stop day, the day after its last
covered interval: the later days are zeros nothing wrote, which have no
peak, make no draw and emit no offer.  The trail it keeps then ends
early, and a checkpoint past its marks resumes from its end mark.  A
snapshot reuses each household record's bytes while the household's
write generation holds.

The oracles: a replan equals extracting the whole buffer with no stop day
(offers, summaries, the checkpoint at every day), and ``encode_state``
with the session's fragment cache equals an encode from an empty cache
after every event, restores included.
"""

from __future__ import annotations

import json
import tempfile
from datetime import timedelta

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import create_extractor, input_series_for
from repro.pipeline.fleet import extract_households, fleet_schedule_target
from repro.session import FlexibilitySession, SessionJournal, restore_session
from repro.session.persistence import decode_state, encode_state
from repro.timeseries.series import TimeSeries
from repro.workloads.scenarios import small_fleet

FLEET = small_fleet(n=3, days=3, seed=8)
TARGET = fleet_schedule_target(FLEET, seed=3)


def new_session(horizon: timedelta | None = None) -> FlexibilitySession:
    return FlexibilitySession.for_fleet(
        FLEET,
        extractor=create_extractor("peak-based"),
        target=TARGET,
        commit_horizon=horizon,
    )


def buffers(session: FlexibilitySession) -> list:
    return [
        (h.index, h.household_id, TimeSeries(h.axis, h.values.copy(), h.series_name))
        for h in session.state.households
    ]


@st.composite
def ingest_streams(draw, households: int = 3):
    """Chunks of every household's readings, in order or shuffled, some
    dropped (gaps): ``(household, lo, hi)`` triples."""
    inputs = [input_series_for(create_extractor("peak-based"), t) for t in FLEET]
    length = inputs[0].axis.length
    chunks = []
    for index in range(households):
        cuts = draw(
            st.lists(st.integers(1, length - 1), max_size=5, unique=True),
            label=f"cutpoints-{index}",
        )
        bounds = [0, *sorted(cuts), length]
        chunks += [(index, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if draw(st.booleans(), label="in order"):
        chunks.sort(key=lambda chunk: (chunk[1], chunk[0]))
    else:
        chunks = list(draw(st.permutations(chunks), label="arrival order"))
    dropped = draw(st.sets(st.integers(0, len(chunks) - 1)), label="gaps")
    return inputs, [chunk for position, chunk in enumerate(chunks) if position not in dropped]


def checkpoint_parts(trail, day, offers, per_day):
    checkpoint = trail.checkpoint(day, day * per_day, offers)
    return checkpoint.marks, checkpoint.offers, checkpoint.modified.tobytes()


class TestStopDay:
    @settings(max_examples=40, deadline=None)
    @given(stream=ingest_streams(), data=st.data())
    def test_replans_equal_whole_buffer_extraction(self, stream, data):
        inputs, chunks = stream
        session = new_session()
        replan_after = data.draw(
            st.sets(st.integers(0, max(len(chunks) - 1, 0))), label="replan points"
        )
        days = len(inputs[0].axis.day_slices())
        per_day = inputs[0].axis.intervals_per_day

        def replan():
            snapshot = session.replan()
            jobs = buffers(session)
            cold = extract_households(session.extractor, session.seed, jobs, [None] * len(jobs))[0]
            for household, warm, expected in zip(
                session.state.households, snapshot.households, cold
            ):
                if not household.covered.any():
                    continue  # never ingested, never extracted
                assert warm.offers == expected.offers
                assert warm.summary == expected.summary
                trail = household.trail
                assert len(trail.marks) == household.stop_day <= len(expected.trail.marks)
                for day in range(days + 1):
                    assert checkpoint_parts(trail, day, warm.offers, per_day) == (
                        checkpoint_parts(expected.trail, day, expected.offers, per_day)
                    )
                if len(trail.marks) < days:
                    # Resuming past the last mark reproduces the cold run.
                    day = data.draw(st.integers(len(trail.marks), days - 1), label="resume day")
                    checkpoint = trail.checkpoint(day, day * per_day, warm.offers)
                    (resumed,), _ = extract_households(
                        session.extractor, session.seed, [jobs[household.index]], [checkpoint]
                    )
                    assert resumed.offers == expected.offers
                    assert resumed.summary == expected.summary

        for position, (index, lo, hi) in enumerate(chunks):
            session.ingest(index, lo, inputs[index].values[lo:hi])
            if position in replan_after:
                replan()
        replan()

    def test_a_restore_stops_after_the_last_covered_interval(self, tmp_path):
        # One reading into day 1: its day holds a peak, so re-extracting the
        # restored buffer must formulate it to reproduce the stored summary.
        inputs = [input_series_for(create_extractor("peak-based"), t) for t in FLEET]
        stop = inputs[0].axis.intervals_per_day + 1
        session = new_session()
        session.attach_journal(SessionJournal.create(tmp_path, snapshot_every=1))
        session.ingest(0, 0, inputs[0].values[:stop])
        session.replan()
        session.journal.close()
        restored = restore_session(new_session(), tmp_path)
        assert restored.state.households[0].stop_day == 2
        assert restored.snapshot().to_dict() == session.snapshot().to_dict()
        restored.journal.close()

    def test_stop_days_leave_one_shot_runs_alone(self):
        # Without stop days every day is formulated and reported.
        extractor = create_extractor("peak-based")
        jobs = buffers(new_session())
        series = input_series_for(extractor, FLEET.traces[0])
        result = extractor.extract(series, np.random.default_rng(0))
        assert len(result.extras["days"]) == len(series.axis.day_slices())
        assert len(result.extras["trail"].marks) == len(series.axis.day_slices())
        # An empty buffer stopped at day 0 detects nothing and emits nothing.
        (output,), _ = extract_households(extractor, 0, jobs[:1], [None], [0])
        assert output.offers == () and output.trail.marks == ()

    def test_extractors_that_are_not_day_local_ignore_stop_days(self):
        extractor = create_extractor("basic")
        jobs = [
            (index, trace.config.household_id, input_series_for(extractor, trace))
            for index, trace in enumerate(FLEET)
        ]
        whole, _ = extract_households(extractor, 0, jobs)
        stopped, _ = extract_households(extractor, 0, jobs, stop_days=[0] * len(jobs))
        assert [h.offers for h in stopped] == [h.offers for h in whole]
        assert [h.offers for h in whole] != [(), (), ()]


def cold_encode(session: FlexibilitySession) -> bytes:
    """``encode_state`` from an empty fragment cache, leaving the cache as
    it was."""
    cache = session._snapshot_fragments
    session._snapshot_fragments = {}
    try:
        return encode_state(session)
    finally:
        session._snapshot_fragments = cache


class TestRecordCache:
    @settings(max_examples=30, deadline=None)
    @given(stream=ingest_streams(), data=st.data())
    def test_every_encode_equals_a_cold_encode(self, stream, data):
        inputs, chunks = stream
        horizon = data.draw(st.sampled_from([None, timedelta(hours=6)]), label="horizon")
        every = data.draw(st.integers(1, 3), label="snapshot every")
        events = [("ingest", *chunk) for chunk in chunks]
        for kind, count in (("replan", 6), ("commit", 2), ("restore", 1)):
            for _ in range(data.draw(st.integers(0, count), label=f"{kind} events")):
                events.insert(data.draw(st.integers(0, len(events))), (kind,))
        events.append(("replan",))
        length = inputs[0].axis.length
        with tempfile.TemporaryDirectory() as journal_dir:
            session = new_session(horizon)
            session.attach_journal(SessionJournal.create(journal_dir, snapshot_every=every))
            for event in events:
                if event[0] == "ingest":
                    _, index, lo, hi = event
                    session.ingest(index, lo, inputs[index].values[lo:hi])
                elif event[0] == "replan":
                    session.replan()
                elif event[0] == "commit":
                    through = data.draw(st.integers(1, length), label="commit through")
                    session.commit(TARGET.axis.start + TARGET.axis.resolution * through)
                else:
                    session.journal.close()
                    session = restore_session(new_session(horizon), journal_dir)
                warm = encode_state(session)
                assert warm == cold_encode(session)
            session.journal.close()

    def test_every_mutation_path_invalidates_the_record(self):
        inputs = [input_series_for(create_extractor("peak-based"), t) for t in FLEET]
        session = new_session()
        households = session.state.households

        def check(changed: set[int]) -> None:
            before = {h.index: session._snapshot_fragments.get(id(h)) for h in households}
            warm = encode_state(session)
            assert warm == cold_encode(session)
            for h in households:
                after = session._snapshot_fragments[id(h)]
                if before[h.index] is not None:
                    assert (after.data is before[h.index].data) == (h.index not in changed)

        check(set())
        for index in range(3):  # write
            session.ingest(index, 0, inputs[index].values[:40])
        check({0, 1, 2})
        session.ingest(1, 40, inputs[1].values[40:80])
        check({1})
        session.replan()  # adopt: the dirty records lose their offers
        check({0, 1, 2})
        assert not [h for h in json.loads(encode_state(session))["households"] if "offers" in h]
        session.ingest(2, 80, inputs[2].values[80:100])
        check({2})
        check(set())

        # restore: a session that encoded its pristine records takes a
        # payload; re-extraction of the clean households adopts too.
        payload = json.loads(encode_state(session))
        other = new_session()
        pristine = encode_state(other)
        decode_state(other, payload)
        restored = encode_state(other)
        assert restored != pristine
        assert restored == cold_encode(other) == encode_state(session)
        # A restore may rename the buffer's series: the record follows.
        payload["households"][0]["series_name"] = "renamed"
        decode_state(other, payload)
        assert json.loads(encode_state(other))["households"][0]["series_name"] == "renamed"
        assert encode_state(other) == cold_encode(other)

    def test_generation_counts_each_mutation(self):
        session = new_session()
        household = session.state.households[0]
        assert household.generation == 0
        session.ingest(0, 0, [1.0, 2.0])
        session.ingest(0, 2, [3.0])
        assert household.generation == 2
        session.replan()
        assert household.generation == 3
        session.replan()  # clean: nothing changes
        assert household.generation == 3
