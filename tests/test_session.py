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

from datetime import datetime, timedelta

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
from repro.pipeline.fleet import (
    fleet_schedule_target,
    results_identical,
    run_sequential,
)
from repro.session import COMMIT_ID_PREFIX, FlexibilitySession
from repro.timeseries.axis import TimeAxis
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
