"""Rolling-horizon session: the chunked-arrival equivalence oracle.

The tentpole contract of :mod:`repro.session`: a
:class:`~repro.session.FlexibilitySession` fed the same meter readings in
*any* chunked arrival order finishes in exactly the state of a one-shot
batch run — placements, costs and wire encoding included — as long as no
commitments were taken; and once a placement IS committed, no later
replan may move it.  Plus the wire layers the session leans on: the
versioned :func:`~repro.flexoffer.io.report_delta`, the
:class:`~repro.api.SessionSpec` key, and the replay driver behind
``repro session --replay``.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SessionSpec, create_extractor, input_series_for
from repro.api.spec import PipelineSpec
from repro.errors import DataError, SessionError, SpecError
from repro.flexoffer.io import (
    any_schedule_to_dict,
    apply_report_delta,
    report_delta,
)
from repro.flexoffer.schedule import schedules_to_series
from repro.pipeline.fleet import (
    fleet_schedule_target,
    results_identical,
    run_sequential,
)
from repro.session import COMMIT_ID_PREFIX, FlexibilitySession
from repro.timeseries.axis import TimeAxis
from repro.timeseries.series import TimeSeries
from repro.workloads.scenarios import small_fleet


@pytest.fixture(scope="module")
def session_fleet():
    """Three households, two days — small enough for many session runs."""
    return small_fleet(n=3, days=2, seed=5)


@pytest.fixture(scope="module")
def target(session_fleet):
    return fleet_schedule_target(session_fleet, seed=3)


@pytest.fixture(scope="module")
def oneshot(session_fleet, target):
    """The batch run every chunked arrival order must reproduce."""
    return run_sequential(session_fleet, target=target)


def fresh_session(fleet, target, **kwargs) -> FlexibilitySession:
    return FlexibilitySession.for_fleet(fleet, target=target, **kwargs)


def household_inputs(session: FlexibilitySession, fleet):
    return [input_series_for(session.extractor, trace) for trace in fleet]


class TestChunkedArrivalOracle:
    """Any arrival order, same final state as the one-shot batch run."""

    def finish(self, session, fleet):
        snapshot = session.replan()
        assert snapshot.watermark == session.state.households[0].axis.end
        return snapshot

    def test_household_major_single_replan(self, session_fleet, target, oneshot):
        session = fresh_session(session_fleet, target)
        for index, series in enumerate(household_inputs(session, session_fleet)):
            session.ingest(index, 0, series.values)
        snapshot = self.finish(session, session_fleet)
        assert results_identical(snapshot.fleet_result(), oneshot)

    def test_halves_with_intermediate_replan(self, session_fleet, target, oneshot):
        session = fresh_session(session_fleet, target)
        inputs = household_inputs(session, session_fleet)
        half = inputs[0].axis.length // 2
        for index, series in enumerate(inputs):
            session.ingest(index, 0, series.values[:half])
        session.replan()  # intermediate state is allowed to differ ...
        for index, series in enumerate(inputs):
            session.ingest(index, half, series.values[half:])
        snapshot = self.finish(session, session_fleet)
        # ... but the final one must be the batch run, bitwise.
        assert results_identical(snapshot.fleet_result(), oneshot)

    def test_reverse_order_uneven_chunks(self, session_fleet, target, oneshot):
        session = fresh_session(session_fleet, target)
        inputs = household_inputs(session, session_fleet)
        length = inputs[0].axis.length
        cuts = [0, length // 3, length // 2, length]
        for lo, hi in zip(cuts, cuts[1:]):
            for index in reversed(range(len(inputs))):
                session.ingest(index, lo, inputs[index].values[lo:hi])
            session.replan()
        snapshot = session.snapshot()
        assert results_identical(snapshot.fleet_result(), oneshot)

    def test_wire_encoding_matches_across_orders(self, session_fleet, target):
        # Two different arrival orders: identical snapshot *encodings*,
        # schedule wire dict included — not merely equal Python objects.
        first = fresh_session(session_fleet, target)
        inputs = household_inputs(first, session_fleet)
        for index, series in enumerate(inputs):
            first.ingest(index, 0, series.values)
        dict_a = first.replan().to_dict()

        second = fresh_session(session_fleet, target)
        half = inputs[0].axis.length // 2
        for index in reversed(range(len(inputs))):
            second.ingest(index, half, inputs[index].values[half:])
        for index, series in enumerate(inputs):
            second.ingest(index, 0, series.values[:half])
        second.replan()
        dict_b = second.snapshot().to_dict()
        # Versions may differ (replan counts); everything else is bitwise.
        dict_a.pop("state_version")
        dict_b.pop("state_version")
        assert dict_a == dict_b

    def test_oneshot_schedule_encoding(self, session_fleet, target, oneshot):
        session = fresh_session(session_fleet, target)
        for index, series in enumerate(household_inputs(session, session_fleet)):
            session.ingest(index, 0, series.values)
        snapshot = session.replan()
        assert any_schedule_to_dict(snapshot.schedule) == any_schedule_to_dict(
            oneshot.schedule
        )
        assert snapshot.schedule.cost == oneshot.schedule.cost


class TestIncrementalReextraction:
    def test_clean_households_are_not_reextracted(self, session_fleet, target):
        session = fresh_session(session_fleet, target)
        inputs = household_inputs(session, session_fleet)
        for index, series in enumerate(inputs):
            session.ingest(index, 0, series.values)
        session.replan()
        before = [h.offers for h in session.state.households]
        # Dirty only household 0 (rewrite the same values); the others'
        # offer tuples must be reused object-identically.
        session.ingest(0, 0, inputs[0].values)
        session.replan()
        after = [h.offers for h in session.state.households]
        assert after[0] == before[0]  # same data, same offers
        for index in range(1, len(inputs)):
            assert after[index] is before[index]


class TestWatermarkCache:
    """The cached covered prefix equals its argmin definition."""

    @staticmethod
    def argmin_coverage_end(household):
        covered = household.covered
        prefix = covered.size if covered.all() else int(np.argmin(covered))
        return household.axis.start + household.axis.resolution * prefix

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_cached_coverage_end_matches_argmin_under_any_ingest_order(self, data):
        axis = TimeAxis(datetime(2012, 3, 5), timedelta(minutes=15), 24)
        # Each household's axis cut into chunks, plus a few overlapping
        # rewrites, delivered in any order.
        chunks = []
        for household in range(2):
            cuts = data.draw(st.sets(st.integers(1, axis.length - 1), max_size=6))
            bounds = [0, *sorted(cuts), axis.length]
            chunks += [(household, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        rewrites = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, 1),
                    st.integers(0, axis.length - 1),
                    st.integers(1, 8),
                ),
                max_size=4,
            )
        )
        chunks += [(h, lo, min(lo + n, axis.length)) for h, lo, n in rewrites]
        session = FlexibilitySession(
            [("a", axis, "a"), ("b", axis, "b")],
            extractor=create_extractor("basic"),
        )
        for household, lo, hi in data.draw(st.permutations(chunks)):
            session.ingest(household, lo, np.ones(hi - lo))
            for live in session.state.households:
                assert live.coverage_end == self.argmin_coverage_end(live)
            assert session.state.watermark == min(
                self.argmin_coverage_end(live) for live in session.state.households
            )
        assert session.state.watermark == axis.end


class TestCommitHorizon:
    def test_committed_placements_never_move(self, session_fleet, target):
        session = fresh_session(
            session_fleet, target, commit_horizon=timedelta(hours=6)
        )
        inputs = household_inputs(session, session_fleet)
        length = inputs[0].axis.length
        cuts = [0, length // 3, 2 * length // 3, length]
        snapshots = []
        for lo, hi in zip(cuts, cuts[1:]):
            for index, series in enumerate(inputs):
                session.ingest(index, lo, series.values[lo:hi])
            snapshots.append(session.replan())
        assert snapshots[-1].committed, "workload must actually commit"
        for earlier, later in zip(snapshots, snapshots[1:]):
            later_by_id = {s.offer.offer_id: s for s in later.committed}
            for placement in earlier.committed:
                assert later_by_id[placement.offer.offer_id] == placement
        final = snapshots[-1]
        planned = {s.offer.offer_id: s for s in final.schedule.schedules}
        for placement in final.committed:
            assert placement.offer.offer_id.startswith(f"{COMMIT_ID_PREFIX}-")
            assert planned[placement.offer.offer_id] == placement

    def test_commit_members_leave_the_open_plan(self, session_fleet, target):
        session = fresh_session(
            session_fleet, target, commit_horizon=timedelta(hours=6)
        )
        inputs = household_inputs(session, session_fleet)
        for index, series in enumerate(inputs):
            session.ingest(index, 0, series.values)
        snapshot = session.replan()
        committed_members = session.state.committed_members
        assert snapshot.committed and committed_members
        open_ids = {
            offer.offer_id for offer in session.state.planned_offers()
        }
        assert not open_ids & committed_members

    def test_explicit_commit_bumps_version(self, session_fleet, target):
        session = fresh_session(session_fleet, target)
        inputs = household_inputs(session, session_fleet)
        for index, series in enumerate(inputs):
            session.ingest(index, 0, series.values)
        snapshot = session.replan()
        axis = inputs[0].axis
        newly = session.commit(axis.end)
        assert newly == len(snapshot.schedule.schedules)
        assert session.state.version == snapshot.version + 1
        assert len(session.snapshot().committed) == newly

    def test_commit_without_target_raises(self, session_fleet):
        session = fresh_session(session_fleet, target=None)
        with pytest.raises(SessionError, match="target"):
            session.commit(session.state.households[0].axis.end)


EXPIRING_EVENTS = (
    Path(__file__).parent.parent / "examples" / "specs" / "session_events_expiring.json"
)


class TestCommittedDemand:
    """The plan's demand series starts from the committed sum.

    Replans and commits seed the demand from ``committed_demand`` instead
    of re-summing every committed placement; the result must still be
    bitwise the sum of the published plan, after every event and after a
    resume from a snapshot (which rebuilds ``committed_demand``).
    """

    @staticmethod
    def _assert_demand_is_the_plan_sum(session):
        schedule = session.state.schedule
        if schedule is None:
            return
        expected = schedules_to_series(schedule.schedules, session.target.axis)
        assert schedule.demand.name == expected.name
        assert schedule.demand.values.tobytes() == expected.values.tobytes()

    def _drive(self, session, inputs, events):
        for event in events:
            kind = event["type"]
            if kind == "ingest":
                first, count = event["first"], event["count"]
                values = inputs[event["household"]].values[first : first + count]
                session.ingest(event["household"], first, values)
            elif kind == "replan":
                session.replan()
            elif kind == "commit":
                session.commit(datetime.fromisoformat(event["through"]))
            else:  # retarget
                session.retarget(session.target * 0.8)
            self._assert_demand_is_the_plan_sum(session)

    def test_demand_is_bitwise_the_plan_sum(self, tmp_path):
        from repro.session import SessionJournal, load_session_events, session_for_spec
        from repro.simulation.dataset import generate_fleet

        spec, events = load_session_events(EXPIRING_EVENTS)
        scenario = spec.scenario
        fleet = generate_fleet(
            scenario.households, scenario.start, scenario.days, seed=scenario.seed
        )
        session = session_for_spec(spec, fleet=fleet)
        session.attach_journal(
            SessionJournal.create(tmp_path, spec=spec.to_dict(), snapshot_every=4)
        )
        inputs = household_inputs(session, fleet)
        # Stop after the second midnight's commit, with a retarget just
        # before it, and resume the rest of the stream from the journal.
        cut = [
            position for position, e in enumerate(events) if e["type"] == "commit"
        ][1] + 1
        head = events[: cut - 1] + [{"type": "retarget"}] + events[cut - 1 : cut]
        self._drive(session, inputs, head)
        assert session.state.committed, "the stream must commit placements"
        session.journal.close()
        assert list(tmp_path.glob("snapshot-*.json")), "no snapshot to resume from"

        recovered = FlexibilitySession.resume(tmp_path, fleet=fleet)
        assert recovered.snapshot().to_dict() == session.snapshot().to_dict()
        self._assert_demand_is_the_plan_sum(recovered)
        self._drive(recovered, inputs, events[cut:])
        assert len(recovered.state.committed) > len(session.state.committed)
        recovered.journal.close()


class TestSnapshotIsolation:
    """A published snapshot is the caller's: mutating it leaves the session,
    its later snapshots and its journal exactly as an untouched run's."""

    def test_mutating_a_published_summary_changes_nothing(
        self, session_fleet, target, tmp_path
    ):
        from repro.session import SessionJournal

        def run(directory: Path, tamper: bool):
            session = fresh_session(session_fleet, target)
            session.attach_journal(SessionJournal.create(directory, snapshot_every=1))
            inputs = household_inputs(session, session_fleet)
            half = inputs[0].axis.length // 2
            for index, series in enumerate(inputs):
                session.ingest(index, 0, series.values[:half])
            published = session.replan()
            if tamper:
                published.households[0].summary["offers"] = 99.0
                published.households[1].summary.clear()
            seen = {
                "state": [dict(h.summary) for h in session.state.households],
                "next": session.snapshot().to_dict(),
            }
            # Only household 2 changes, so the others' records are reused.
            session.ingest(2, half, inputs[2].values[half:])
            seen["replan"] = session.replan().to_dict()
            session.journal.close()
            seen["files"] = [
                (path.name, path.read_bytes()) for path in sorted(directory.iterdir())
            ]
            return seen

        untouched = run(tmp_path / "untouched", tamper=False)
        tampered = run(tmp_path / "tampered", tamper=True)
        assert untouched["state"][0]["offers"] != 99.0
        assert any(name == "wal.jsonl" for name, _ in untouched["files"])
        assert any(name.startswith("snapshot-") for name, _ in untouched["files"])
        for key in ("state", "next", "replan", "files"):
            assert tampered[key] == untouched[key], key


class TestSessionErrors:
    def test_empty_fleet_raises(self):
        with pytest.raises(SessionError, match="at least one household"):
            FlexibilitySession([])

    def test_ingest_out_of_range_household(self, session_fleet, target):
        session = fresh_session(session_fleet, target)
        with pytest.raises(SessionError, match="out of range"):
            session.ingest(99, 0, [0.1])

    def test_ingest_overrunning_chunk(self, session_fleet, target):
        session = fresh_session(session_fleet, target)
        length = session.state.households[0].axis.length
        with pytest.raises(SessionError, match="overrun"):
            session.ingest(0, length - 1, [0.1, 0.2, 0.3])

    @pytest.mark.parametrize(
        "through, message",
        [
            ("2012-03-06", "must be a datetime, got str"),
            (5, "must be a datetime, got int"),
            (None, "must be a datetime, got NoneType"),
            (datetime(2012, 3, 6, tzinfo=timezone.utc), "must be naive like the target axis"),
        ],
        ids=["iso-string", "int", "none", "aware-datetime"],
    )
    def test_commit_checks_through_before_journaling(
        self, session_fleet, target, tmp_path, through, message
    ):
        # A commit record that cannot be applied would fail again on every
        # replay, so nothing reaches the WAL or the state.
        from repro.session import SessionJournal

        session = fresh_session(session_fleet, target)
        session.attach_journal(SessionJournal.create(tmp_path))
        for index, series in enumerate(household_inputs(session, session_fleet)):
            session.ingest(index, 0, series.values)
        session.replan()
        assert session.state.open_schedules
        seq, version = session.journal.last_seq, session.state.version
        wal = (tmp_path / "wal.jsonl").read_bytes()
        with pytest.raises(SessionError, match=f"commit through .*{message}"):
            session.commit(through)
        assert (session.journal.last_seq, session.state.version) == (seq, version)
        assert (tmp_path / "wal.jsonl").read_bytes() == wal
        session.journal.close()

    @pytest.mark.parametrize(
        "event",
        ["ingest-nan", "ingest-inf", "retarget-inf", "retarget-one-inf"],
    )
    def test_non_finite_events_never_reach_the_journal(
        self, session_fleet, target, tmp_path, event
    ):
        # A journaled NaN reading or infinite target would fail the next
        # replan and every restore of the journal, so nothing reaches the
        # WAL or the state.
        from repro.session import SessionJournal

        session = fresh_session(session_fleet, target)
        session.attach_journal(SessionJournal.create(tmp_path))
        for index, series in enumerate(household_inputs(session, session_fleet)):
            session.ingest(index, 0, series.values)
        session.replan()
        seq, version = session.journal.last_seq, session.state.version
        wal = (tmp_path / "wal.jsonl").read_bytes()
        with pytest.raises(SessionError, match="finite"):
            if event == "ingest-nan":
                session.ingest(0, 0, [0.1, float("nan"), 0.2])
            elif event == "ingest-inf":
                session.ingest(1, 4, [float("-inf")])
            elif event == "retarget-inf":
                session.retarget(TimeSeries.full(target.axis, float("inf")))
            else:
                values = target.values.copy()
                values[7] = float("inf")
                session.retarget(TimeSeries(target.axis, values))
        assert (session.journal.last_seq, session.state.version) == (seq, version)
        assert (tmp_path / "wal.jsonl").read_bytes() == wal
        assert np.array_equal(session.target.values, target.values)
        session.journal.close()


class TestReportDelta:
    def snapshots(self, session_fleet, target):
        session = fresh_session(session_fleet, target)
        inputs = household_inputs(session, session_fleet)
        half = inputs[0].axis.length // 2
        for index, series in enumerate(inputs):
            session.ingest(index, 0, series.values[:half])
        a = session.replan().to_dict()
        for index, series in enumerate(inputs):
            session.ingest(index, half, series.values[half:])
        b = session.replan().to_dict()
        return a, b

    def test_delta_roundtrip_on_real_snapshots(self, session_fleet, target):
        a, b = self.snapshots(session_fleet, target)
        delta = report_delta(a, b)
        assert apply_report_delta(delta, a) == b

    def test_identity_delta_is_empty(self, session_fleet, target):
        a, _ = self.snapshots(session_fleet, target)
        delta = report_delta(a, a)
        assert delta["households"]["upserted"] == []
        assert delta["households"]["removed"] == []
        assert apply_report_delta(delta, a) == a

    def test_base_version_mismatch_raises(self, session_fleet, target):
        a, b = self.snapshots(session_fleet, target)
        delta = report_delta(a, b)
        with pytest.raises(DataError, match="base"):
            apply_report_delta(delta, b)

    def test_apply_to_empty_dicts_names_the_missing_field(self):
        with pytest.raises(DataError, match="^report delta missing field 'base_state_version'$"):
            apply_report_delta({}, {})

    @pytest.mark.parametrize(
        "field",
        ["base_state_version", "state_version", "watermark", "households",
         "aggregates", "committed", "schedule"],
    )
    def test_delta_missing_a_top_level_field_raises(self, session_fleet, target, field):
        a, b = self.snapshots(session_fleet, target)
        delta = report_delta(a, b)
        del delta[field]
        with pytest.raises(DataError, match=f"^report delta missing field '{field}'$"):
            apply_report_delta(delta, a)

    @pytest.mark.parametrize(
        "field", ["version", "state_version", "households", "aggregates", "committed"]
    )
    def test_base_missing_a_top_level_field_raises(self, session_fleet, target, field):
        a, b = self.snapshots(session_fleet, target)
        delta = report_delta(a, b)
        del a[field]
        with pytest.raises(DataError, match=f"^base snapshot missing field '{field}'$"):
            apply_report_delta(delta, a)

    @pytest.mark.parametrize(
        "field", ["state_version", "watermark", "households", "aggregates", "committed"]
    )
    def test_diffing_a_snapshot_missing_a_field_raises(self, session_fleet, target, field):
        a, b = self.snapshots(session_fleet, target)
        del b[field]
        with pytest.raises(DataError, match=f"^new snapshot missing field '{field}'$"):
            report_delta(a, b)
        if field != "watermark":
            with pytest.raises(DataError, match=f"^old snapshot missing field '{field}'$"):
                report_delta(b, a)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: d["aggregates"].pop("removed"),
            lambda d: d["households"].update(upserted=[{}]),
            lambda d: d.update(households=[1]),
            lambda d: d.update(schedule=5),
            lambda d: d.update(
                schedule={"unplaced": {"upserted": [], "removed": [], "order": []}}
            ),
        ],
        ids=[
            "keyed-section-without-removed",
            "household-without-id",
            "households-not-an-object",
            "schedule-not-an-object",
            "incremental-schedule-without-schedules",
        ],
    )
    def test_malformed_nested_fields_raise_data_error(self, session_fleet, target, corrupt):
        a, b = self.snapshots(session_fleet, target)
        delta = report_delta(a, b)
        corrupt(delta)
        with pytest.raises(DataError):
            apply_report_delta(delta, a)

    def test_unsupported_version_is_reported_before_missing_fields(self):
        with pytest.raises(DataError, match="^unsupported report-delta version 2$"):
            apply_report_delta({"version": 2}, {})

    def test_non_object_payloads_raise(self):
        with pytest.raises(DataError, match="^report delta must be a JSON object, got list$"):
            apply_report_delta([], {})
        with pytest.raises(DataError, match="^old snapshot must be a JSON object, got NoneType$"):
            report_delta(None, {})

    def test_unsupported_delta_version_raises(self, session_fleet, target):
        a, b = self.snapshots(session_fleet, target)
        delta = report_delta(a, b)
        delta["version"] = 99
        with pytest.raises(DataError, match="version"):
            apply_report_delta(delta, a)


class TestSessionSpec:
    def test_roundtrip(self):
        spec = SessionSpec(commit_horizon_minutes=360)
        assert SessionSpec.from_dict(spec.to_dict()) == spec
        assert spec.commit_horizon() == timedelta(hours=6)

    def test_null_horizon(self):
        spec = SessionSpec()
        assert spec.commit_horizon() is None
        assert SessionSpec.from_dict(spec.to_dict()) == spec

    def test_negative_horizon_rejected(self):
        with pytest.raises(SpecError, match="commit_horizon_minutes"):
            SessionSpec(commit_horizon_minutes=-1)

    def test_pipeline_key_omitted_when_absent(self):
        assert "session" not in PipelineSpec().to_dict()
        pipeline = PipelineSpec(session=SessionSpec(commit_horizon_minutes=30))
        encoded = pipeline.to_dict()
        assert encoded["session"] == {"commit_horizon_minutes": 30}
        assert PipelineSpec.from_dict(encoded) == pipeline

    def test_unknown_session_key_rejected(self):
        with pytest.raises(SpecError, match="pipeline.session"):
            PipelineSpec.from_dict({"session": {"commit_horizon": 3}})


class TestReplayDriver:
    def test_example_event_file_replays(self):
        from repro.session import replay_session

        report = replay_session("examples/specs/session_events.json")
        assert report["version"] == 1
        assert report["committed_stable"] is True
        assert len(report["replans"]) >= 2
        assert len(report["deltas"]) == len(report["replans"]) - 1
        assert report["final"]["state_version"] == (
            report["replans"][-1]["state_version"]
        )

    def test_bad_version_raises(self, tmp_path):
        from repro.session import load_session_events

        path = tmp_path / "events.json"
        path.write_text('{"version": 99, "spec": {}, "events": []}')
        with pytest.raises(SessionError, match="version"):
            load_session_events(path)

    def test_unknown_event_type_raises(self, tmp_path):
        from repro.session import load_session_events

        path = tmp_path / "events.json"
        path.write_text(
            '{"version": 1, "spec": {"kind": "fleet"}, '
            '"events": [{"type": "explode"}]}'
        )
        with pytest.raises(SessionError, match="events\\[0\\]"):
            load_session_events(path)


class TestRandomChunkingProperty:
    """Hypothesis: any chunking/permutation ends in the one-shot state."""

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_random_arrival_order_matches_oneshot(self, data):
        fleet = small_fleet(n=2, days=1, seed=5)
        from repro.api import create_extractor

        extractor = create_extractor("basic")
        oneshot = run_sequential(
            fleet, extractor=extractor, target=fleet_schedule_target(fleet, seed=3)
        )
        session = FlexibilitySession.for_fleet(
            fleet,
            extractor=create_extractor("basic"),
            target=fleet_schedule_target(fleet, seed=3),
        )
        inputs = household_inputs(session, fleet)
        length = inputs[0].axis.length
        chunks = []
        for index in range(len(inputs)):
            n_cuts = data.draw(st.integers(0, 3), label=f"cuts-{index}")
            cuts = sorted(
                data.draw(
                    st.lists(
                        st.integers(1, length - 1),
                        min_size=n_cuts,
                        max_size=n_cuts,
                        unique=True,
                    ),
                    label=f"cutpoints-{index}",
                )
            )
            bounds = [0, *cuts, length]
            chunks.extend(
                (index, lo, hi) for lo, hi in zip(bounds, bounds[1:])
            )
        order = data.draw(st.permutations(chunks), label="arrival order")
        replan_after = data.draw(
            st.sets(st.integers(0, len(order) - 1)), label="replan points"
        )
        for position, (index, lo, hi) in enumerate(order):
            session.ingest(index, lo, inputs[index].values[lo:hi])
            if position in replan_after:
                session.replan()
        final = session.replan()
        assert results_identical(final.fleet_result(), oneshot)


class TestResumedJobSeeding:
    def test_resumed_jobs_are_not_seeded(self, monkeypatch):
        # A resumed job's generator state comes from its checkpoint, so
        # only the cold job is seeded from its index; the resumed ones share
        # one generator and still reproduce the cold offers.
        from repro.evaluation.comparison import SEED_STRIDE
        from repro.pipeline.fleet import extract_households

        fleet = small_fleet(n=3, days=3, seed=8)
        extractor = create_extractor("peak-based")
        jobs = [
            (index, trace.config.household_id, input_series_for(extractor, trace))
            for index, trace in enumerate(fleet)
        ]
        cold, _ = extract_households(extractor, 5, jobs, [None] * len(jobs))
        per_day = jobs[0][2].axis.intervals_per_day
        checkpoints = [
            None,
            cold[1].trail.checkpoint(1, per_day, cold[1].offers),
            cold[2].trail.checkpoint(2, 2 * per_day, cold[2].offers),
        ]
        seeds = []
        real = np.random.default_rng

        def default_rng(*args):
            seeds.append(args)
            return real(*args)

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        warm, _ = extract_households(extractor, 5, jobs, checkpoints)
        assert [h.offers for h in warm] == [h.offers for h in cold]
        assert [h.summary for h in warm[:1]] == [h.summary for h in cold[:1]]
        assert len(seeds) == 2
        assert (5 + SEED_STRIDE,) not in seeds
        assert (5 + 2 * SEED_STRIDE,) not in seeds


class TestDayCheckpointProperty:
    """Hypothesis: day-checkpointed replans equal cold re-extraction.

    A ``peak-based`` session over 2 households × 3 days receives randomly
    chunked, permuted readings, with replans in between.  Already covered
    ranges are rewritten, first with perturbed values and later with the
    true ones, so a household's resume day also moves backwards.  After
    every replan each household's offers and summary must equal a cold
    :func:`~repro.pipeline.fleet.extract_households` of the same buffers,
    and the final replan must equal :func:`run_sequential`.  A mutant that
    skips restoring the generator state at the checkpoint fails it: its
    later days draw from the freshly seeded generator.
    """

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_warm_replans_equal_cold_extraction(self, data):
        from repro.api import create_extractor
        from repro.pipeline.fleet import extract_households
        from repro.timeseries.series import TimeSeries

        fleet = small_fleet(n=2, days=3, seed=8)
        target = fleet_schedule_target(fleet, seed=3)
        oneshot = run_sequential(
            fleet, extractor=create_extractor("peak-based"), target=target
        )
        session = FlexibilitySession.for_fleet(
            fleet, extractor=create_extractor("peak-based"), target=target
        )
        inputs = household_inputs(session, fleet)
        length = inputs[0].axis.length
        events = []
        for index in range(len(inputs)):
            cuts = data.draw(
                st.lists(st.integers(1, length - 1), max_size=4, unique=True),
                label=f"cutpoints-{index}",
            )
            bounds = [0, *sorted(cuts), length]
            events.extend((index, lo, hi, 1.0) for lo, hi in zip(bounds, bounds[1:]))
        events = list(data.draw(st.permutations(events), label="arrival order"))
        for _ in range(data.draw(st.integers(0, 3), label="rewrites")):
            index = data.draw(st.integers(0, len(inputs) - 1))
            lo = data.draw(st.integers(0, length - 1))
            hi = data.draw(st.integers(lo + 1, length))
            wrong = data.draw(st.integers(0, len(events)))
            right = data.draw(st.integers(wrong + 1, len(events) + 1))
            events.insert(wrong, (index, lo, hi, 1.7))
            events.insert(right, (index, lo, hi, 1.0))
        replan_after = data.draw(
            st.sets(st.integers(0, len(events) - 1)), label="replan points"
        )

        def replan():
            snapshot = session.replan()
            jobs = [
                (h.index, h.household_id, TimeSeries(h.axis, h.values.copy(), h.series_name))
                for h in session.state.households
            ]
            cold = extract_households(session.extractor, session.seed, jobs)[0]
            for household, warm, expected in zip(
                session.state.households, snapshot.households, cold
            ):
                if not household.covered.any():
                    continue  # never ingested, never extracted
                assert warm.offers == expected.offers
                assert warm.summary == expected.summary
            return snapshot

        for position, (index, lo, hi, scale) in enumerate(events):
            session.ingest(index, lo, inputs[index].values[lo:hi] * scale)
            if position in replan_after:
                replan()
        assert results_identical(replan().fleet_result(), oneshot)


class TestReplanReuseProperty:
    """Hypothesis: reused aggregates and cached snapshot fragments are exact.

    A ``peak-based`` session over 3 households × 3 days, grouped in pairs
    so that groups split, merge and move between replans, receives
    randomly chunked, permuted readings (some first rewritten with
    perturbed values), with replans, explicit commits and one retarget in
    between.  At every replan the session's aggregates must be bitwise a
    fresh ``aggregate_all(group_offers(...))`` of its planned offers under
    ``offer_id_scope("fleet")``, ids included, and ``encode_state`` with
    the fragment cache the previous replan left must return the bytes of
    an encode from an empty cache.  Dropping either the member-identity
    check or the id-position check of the reuse rule fails it.
    """

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_reuse_matches_a_fresh_fold_and_a_cold_encode(self, data):
        from repro.aggregation.aggregate import aggregate_all
        from repro.aggregation.grouping import GroupingParams, group_offers
        from repro.flexoffer.io import aggregated_to_dict
        from repro.flexoffer.model import offer_id_scope
        from repro.session.persistence import _canonical, encode_state
        from repro.timeseries.series import TimeSeries

        fleet = small_fleet(n=3, days=3, seed=8)
        target = fleet_schedule_target(fleet, seed=3)
        horizon = data.draw(st.sampled_from([None, timedelta(hours=6)]), label="horizon")
        session = FlexibilitySession.for_fleet(
            fleet,
            extractor=create_extractor("peak-based"),
            grouping=GroupingParams(max_group_size=2),
            target=target,
            commit_horizon=horizon,
        )
        inputs = household_inputs(session, fleet)
        length = inputs[0].axis.length
        events = []
        for index in range(len(inputs)):
            cuts = data.draw(
                st.lists(st.integers(1, length - 1), max_size=5, unique=True),
                label=f"cutpoints-{index}",
            )
            bounds = [0, *sorted(cuts), length]
            events += [("ingest", index, lo, hi, 1.0) for lo, hi in zip(bounds, bounds[1:])]
        events = list(data.draw(st.permutations(events), label="arrival order"))
        for _ in range(data.draw(st.integers(0, 2), label="rewrites")):
            index = data.draw(st.integers(0, len(inputs) - 1))
            lo = data.draw(st.integers(0, length - 1))
            hi = data.draw(st.integers(lo + 1, length))
            events.insert(data.draw(st.integers(0, len(events))), ("ingest", index, lo, hi, 1.3))
        for _ in range(data.draw(st.integers(0, 3), label="commits")):
            through = data.draw(st.integers(1, length))
            events.insert(data.draw(st.integers(0, len(events))), ("commit", through))
        events.insert(data.draw(st.integers(0, len(events))), ("retarget",))
        replan_after = data.draw(
            st.sets(st.integers(0, len(events) - 1)), label="replan points"
        )

        def replan():
            # What the replan aggregated: its auto-commit may freeze more.
            committed = set(session.state.committed_members)
            snapshot = session.replan()
            planned = [
                offer
                for household in session.state.households
                for offer in household.offers
                if offer.offer_id not in committed
            ]
            expected = []
            if planned:
                epoch = min(offer.earliest_start for offer in planned)
                with offer_id_scope("fleet"):
                    expected = aggregate_all(
                        group_offers(planned, session.grouping, epoch=epoch)
                    )
            assert _canonical([aggregated_to_dict(a) for a in snapshot.aggregates]) == (
                _canonical([aggregated_to_dict(a) for a in expected])
            )
            warm = encode_state(session)
            session._snapshot_fragments = {}
            assert warm == encode_state(session)

        for position, event in enumerate(events):
            if event[0] == "ingest":
                _, index, lo, hi, scale = event
                session.ingest(index, lo, inputs[index].values[lo:hi] * scale)
            elif event[0] == "commit":
                session.commit(target.axis.start + target.axis.resolution * event[1])
            else:
                session.retarget(TimeSeries(target.axis, target.values * 0.7, "retarget"))
            if position in replan_after:
                replan()
        replan()
