"""SharedFleetBuffer lifecycle and the shared-memory worker fan-out.

The scale-out contract (docs/ARCHITECTURE.md): exactly one owner per
segment, attachers are read-only and never unlink, close/unlink are
idempotent, and no ``/dev/shm`` segment survives a pipeline run — crash
paths included.  The fan-out itself must stay bitwise identical to the
sequential oracle, mixed-axis fleets included.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.errors import SharedMemorySegmentError, ValidationError
from repro.pipeline.fleet import (
    FleetPipeline,
    _pack_jobs,
    results_identical,
    run_sequential,
)
from repro.pipeline.sharedmem import (
    SEGMENT_PREFIX,
    SharedArraySpec,
    SharedFleetBuffer,
    leaked_segments,
)
from repro.timeseries.axis import ONE_MINUTE, TimeAxis, axis_for_days
from repro.timeseries.series import TimeSeries
from repro.workloads.scenarios import SCENARIO_START


@pytest.fixture()
def matrix() -> np.ndarray:
    return np.arange(12.0).reshape(3, 4)


class TestLifecycle:
    def test_create_copies_and_round_trips_bitwise(self, matrix):
        with SharedFleetBuffer.create(matrix) as buffer:
            assert buffer.owner
            assert buffer.spec.shape == (3, 4)
            assert buffer.spec.name.startswith(SEGMENT_PREFIX)
            np.testing.assert_array_equal(buffer.array, matrix)
            # The segment holds a copy: mutating the source is invisible.
            matrix[0, 0] = 99.0
            assert buffer.array[0, 0] == 0.0

    def test_attach_sees_owner_writes_and_is_read_only(self, matrix):
        with SharedFleetBuffer.create(matrix) as owner:
            attached = SharedFleetBuffer.attach(owner.spec)
            try:
                assert not attached.owner
                np.testing.assert_array_equal(attached.array, owner.array)
                owner.array[1, 1] = -5.0
                assert attached.array[1, 1] == -5.0
                with pytest.raises(ValueError, match="read-only"):
                    attached.array[0, 0] = 1.0
            finally:
                attached.close()

    def test_double_close_and_double_unlink_are_safe(self, matrix):
        buffer = SharedFleetBuffer.create(matrix)
        buffer.close()
        buffer.close()
        assert buffer.closed
        buffer.unlink()
        buffer.unlink()
        assert leaked_segments() == []

    def test_array_after_close_raises(self, matrix):
        buffer = SharedFleetBuffer.create(matrix)
        buffer.close()
        with pytest.raises(ValidationError, match="is closed"):
            buffer.array
        buffer.unlink()

    def test_attached_side_must_not_unlink(self, matrix):
        with SharedFleetBuffer.create(matrix) as owner:
            attached = SharedFleetBuffer.attach(owner.spec)
            try:
                with pytest.raises(ValidationError, match="only the owner"):
                    attached.unlink()
            finally:
                attached.close()

    def test_unlink_after_segment_vanished_externally(self, matrix):
        # Crash-recovery sweeps may remove the file behind the owner's back
        # (``rm /dev/shm/repro-fleet-*``); owner teardown must still succeed.
        buffer = SharedFleetBuffer.create(matrix)
        Path("/dev/shm", buffer.spec.name).unlink()
        buffer.close()
        buffer.unlink()
        assert leaked_segments() == []

    def test_context_exit_unlinks_segment(self, matrix):
        with SharedFleetBuffer.create(matrix) as buffer:
            spec = buffer.spec
            assert spec.name in leaked_segments()
        assert spec.name not in leaked_segments()
        # A late attach must not leak the raw FileNotFoundError: it comes
        # back as the pinned ReproError subclass naming the segment and
        # the likely owner-unlinked-early cause.
        with pytest.raises(SharedMemorySegmentError, match=spec.name) as excinfo:
            SharedFleetBuffer.attach(spec)
        assert "unlinked it before this attach" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, FileNotFoundError)

    def test_attach_context_never_unlinks(self, matrix):
        with SharedFleetBuffer.create(matrix) as owner:
            with SharedFleetBuffer.attach(owner.spec) as attached:
                assert attached.array.shape == (3, 4)
            # The attacher closed; the segment must still be reachable.
            with SharedFleetBuffer.attach(owner.spec) as again:
                np.testing.assert_array_equal(again.array, owner.array)

    def test_rejects_empty_arrays_and_foreign_names(self):
        with pytest.raises(ValidationError, match="empty array"):
            SharedFleetBuffer.create(np.empty((0, 4)))
        with pytest.raises(ValidationError, match="must start with"):
            SharedFleetBuffer.create(np.ones(3), name="unmarked-segment")

    def test_attach_rejects_spec_larger_than_segment(self, matrix):
        with SharedFleetBuffer.create(matrix) as owner:
            lying = SharedArraySpec(
                name=owner.spec.name, shape=(3000, 4000), dtype=owner.spec.dtype
            )
            with pytest.raises(ValidationError, match="spec describes"):
                SharedFleetBuffer.attach(lying)

    def test_spec_describes_payload(self, matrix):
        with SharedFleetBuffer.create(matrix) as buffer:
            assert buffer.spec.nbytes == matrix.nbytes
            assert np.dtype(buffer.spec.dtype) == matrix.dtype


class TestCloseWithLiveViews:
    """Closing under live views must defer the unmap, never corrupt them.

    ``SharedMemory.close()`` unmaps the segment even while numpy views
    built on ``shm.buf`` still point into it (they hold no buffer export),
    so an eager close used to turn every outstanding view into a dangling
    pointer.  The buffer now tracks its views and defers the real close
    until the last one is garbage-collected.
    """

    def test_close_with_live_view_keeps_view_readable(self, matrix):
        buffer = SharedFleetBuffer.create(matrix)
        view = buffer.array
        buffer.close()  # must not raise BufferError, must not unmap
        assert buffer.closed
        np.testing.assert_array_equal(view, np.arange(12.0).reshape(3, 4))
        del view
        buffer.unlink()
        assert leaked_segments() == []

    def test_owner_exit_with_live_view(self, matrix):
        # Failure injection: a consumer keeps the array past the owner's
        # ``with`` block — the exact shape of a worker outliving a chunk.
        with SharedFleetBuffer.create(matrix) as buffer:
            view = buffer.array
        assert buffer.closed
        assert float(view[2, 3]) == 11.0
        del view
        assert leaked_segments() == []

    def test_multiple_views_all_must_die_before_unmap(self, matrix):
        buffer = SharedFleetBuffer.create(matrix)
        first = buffer.array
        second = buffer.array
        buffer.close()
        del first
        # One view is still alive: the segment must still be mapped.
        assert float(second[0, 1]) == 1.0
        del second
        buffer.unlink()
        assert leaked_segments() == []

    def test_attacher_close_with_live_view(self, matrix):
        with SharedFleetBuffer.create(matrix) as owner:
            attached = SharedFleetBuffer.attach(owner.spec)
            view = attached.array
            attached.close()
            np.testing.assert_array_equal(view, owner.array)
            del view

    def test_views_before_close_do_not_leak_segments(self, matrix):
        # The deferred-close path must still release the segment: after
        # the views die and unlink runs, /dev/shm holds nothing of ours.
        buffer = SharedFleetBuffer.create(matrix)
        views = [buffer.array for _ in range(5)]
        buffer.close()
        views.clear()
        buffer.unlink()
        assert leaked_segments() == []


class TestFanOutEquivalence:
    def test_shared_memory_fanout_bitwise_identical(self, fleet):
        sequential = run_sequential(fleet, seed=0)
        shared = FleetPipeline(workers=2, chunk_size=2, seed=0).run(fleet)
        assert results_identical(shared, sequential)
        assert leaked_segments() == []

    def test_pack_jobs_row_layout(self, fleet):
        pipeline = FleetPipeline()
        jobs = pipeline._prepare(list(fleet))
        flat, rows = _pack_jobs(jobs)
        assert flat.dtype == np.float64
        assert flat.size == sum(series.axis.length for _, _, series in jobs)
        for (offset, axis, index, household_id, name), job in zip(rows, jobs):
            assert (index, household_id) == job[:2]
            assert (axis, name) == (job[2].axis, job[2].name)
            np.testing.assert_array_equal(
                flat[offset : offset + axis.length], job[2].values
            )

    def test_pack_jobs_mixed_axes_share_one_array(self):
        day = axis_for_days(SCENARIO_START, 1)
        minute = TimeAxis(SCENARIO_START, ONE_MINUTE, 24 * 60)
        jobs = [
            (0, "hh-0000", TimeSeries.full(day, 0.2)),
            (1, "hh-0001", TimeSeries.full(minute, 0.3)),
        ]
        flat, rows = _pack_jobs(jobs)
        assert [row[:2] for row in rows] == [(0, day), (day.length, minute)]
        assert flat.size == day.length + minute.length
        assert (flat[: day.length] == 0.2).all() and (flat[day.length :] == 0.3).all()

    def test_mixed_axis_fleet_fans_out_through_one_segment(self, monkeypatch):
        from repro.api.registry import create_extractor
        from repro.evaluation.comparison import input_series_for
        from repro.workloads.scenarios import small_fleet

        extractor = create_extractor("peak-based", flexible_share=0.05)
        # Two horizons, so the households' input series sit on two axes.
        fleet = [*small_fleet(n=3, days=2, seed=5), *small_fleet(n=3, days=3, seed=6)]
        assert len({input_series_for(extractor, t).axis for t in fleet}) == 2
        created = []
        original = SharedFleetBuffer.create.__func__

        def spy(cls, array, name=None):
            created.append(array.shape)
            return original(cls, array, name)

        monkeypatch.setattr(SharedFleetBuffer, "create", classmethod(spy))
        sequential = run_sequential(fleet, extractor, seed=0)
        shared = FleetPipeline(extractor, workers=2, chunk_size=2, seed=0).run(fleet)
        assert results_identical(shared, sequential)
        assert len(created) == 1 and len(created[0]) == 1
        assert leaked_segments() == []
