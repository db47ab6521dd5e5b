"""Fault-tolerant chunk dispatch: the fixed retry and degradation rule.

These tests drive :func:`repro.pipeline.dispatch.dispatch_chunks` through
scripted fake executors, so every failure path — broken pool, retry
exhaustion, pool construction failure — runs deterministically and fast
on every tier-1 pass.  The real-process-pool paths (workers actually
killed mid-chunk) live in ``test_failure_injection.py``.
"""

from __future__ import annotations

import warnings
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import DegradedExecutionWarning, ValidationError
from repro.pipeline.dispatch import MAX_ATTEMPTS, check_count, dispatch_chunks


class _ScriptedFuture:
    def __init__(self, outcome):
        self._outcome = outcome

    def result(self):
        if isinstance(self._outcome, BaseException):
            raise self._outcome
        return self._outcome


class _ScriptedPool:
    """One pool generation: maps chunk args to scripted outcomes."""

    def __init__(self, outcomes):
        self._outcomes = outcomes
        self.submitted: list[tuple] = []
        self.shut_down = False
        self.cancelled_on_shutdown = False

    def submit(self, fn, *args):
        self.submitted.append(args)
        return _ScriptedFuture(self._outcomes[args[0]])

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True
        self.cancelled_on_shutdown = cancel_futures


class _PoolFactory:
    """Yields one scripted pool per call; records every generation."""

    def __init__(self, *generations):
        self._generations = list(generations)
        self.pools: list[_ScriptedPool] = []

    def __call__(self):
        outcome = self._generations.pop(0)
        if isinstance(outcome, OSError):
            raise outcome
        pool = _ScriptedPool(outcome)
        self.pools.append(pool)
        return pool


def _noop_worker(index):  # pragma: no cover - never runs in-process
    raise AssertionError("scripted pools never call the worker function")


def _unexpected_local(index):  # pragma: no cover - must not degrade
    raise AssertionError(f"chunk {index} must not run in-process")


class TestCheckCount:
    @pytest.mark.parametrize(
        "value,optional",
        [(1, False), (7, False), (np.int64(3), False), (None, True)],
        ids=["one", "seven", "numpy-int", "optional-none"],
    )
    def test_accepts_counts(self, value, optional):
        check_count("workers", value, optional=optional)

    @pytest.mark.parametrize(
        "value,optional",
        [
            (0, False),
            (-2, False),
            (True, False),
            (False, False),
            (2.0, False),
            (2.5, False),
            ("3", False),
            (None, False),
            (np.float64(3.0), False),
            (float("nan"), False),
            (0, True),
            (True, True),
        ],
        ids=[
            "zero",
            "negative",
            "true",
            "false",
            "integral-float",
            "float",
            "str",
            "required-none",
            "numpy-float",
            "nan",
            "optional-zero",
            "optional-true",
        ],
    )
    def test_rejects_non_counts(self, value, optional):
        suffix = r" \(or None\)" if optional else ""
        message = rf"^chunk_size must be an integer >= 1{suffix}, got "
        with pytest.raises(ValidationError, match=message):
            check_count("chunk_size", value, optional=optional)


class TestDispatch:
    def test_happy_path_returns_in_task_order(self):
        factory = _PoolFactory({0: "a", 1: "b", 2: "c"})
        results = dispatch_chunks(
            [(0,), (1,), (2,)], _noop_worker, factory, lambda i: None
        )
        assert results == ["a", "b", "c"]
        assert factory.pools[0].shut_down

    def test_broken_pool_rebuilds_and_redispatches_only_outstanding(self):
        # Chunks 0 and 2 die in the first pool while chunk 1 completes; the
        # second pool finishes 2 and loses 0 again; the third finishes 0.
        # Each rebuilt pool sees exactly the chunks the previous one lost.
        factory = _PoolFactory(
            {0: BrokenExecutor("worker died"), 1: "b", 2: BrokenExecutor()},
            {0: BrokenExecutor(), 2: "c"},
            {0: "a"},
        )
        results = dispatch_chunks(
            [(0,), (1,), (2,)], _noop_worker, factory, lambda i: None
        )
        assert results == ["a", "b", "c"]
        assert [pool.submitted for pool in factory.pools] == [
            [(0,), (1,), (2,)],
            [(0,), (2,)],
            [(0,)],
        ]
        assert all(pool.shut_down for pool in factory.pools)

    def test_exhaustion_degrades_to_local_runner(self):
        # Chunk 0's worker dies in every pool: exactly MAX_ATTEMPTS pools
        # are built, then only chunk 0 runs in-process.
        factory = _PoolFactory(
            {0: BrokenExecutor(), 1: "b"},
            *[{0: BrokenExecutor()}] * (MAX_ATTEMPTS - 1),
        )
        local_calls: list[int] = []

        def local_runner(index):
            local_calls.append(index)
            return f"local-{index}"

        with pytest.warns(DegradedExecutionWarning, match="in-process"):
            results = dispatch_chunks(
                [(0,), (1,)],
                _noop_worker,
                factory,
                local_runner,
                label="unit chunks",
            )
        assert results == ["local-0", "b"]
        assert len(factory.pools) == MAX_ATTEMPTS == 3
        assert local_calls == [0]

    def test_pool_construction_failure_runs_everything_local(self):
        factory = _PoolFactory(OSError("fork bomb protection"))
        with pytest.warns(DegradedExecutionWarning, match="pool unavailable"):
            results = dispatch_chunks(
                [(0,), (1,)], _noop_worker, factory, lambda i: i * 10
            )
        assert results == [0, 10]

    def test_rebuild_failure_finishes_lost_chunks_locally(self):
        factory = _PoolFactory({0: "a", 1: BrokenExecutor()}, OSError("no processes"))
        with pytest.warns(DegradedExecutionWarning, match="pool unavailable"):
            results = dispatch_chunks(
                [(0,), (1,)], _noop_worker, factory, lambda i: f"local-{i}"
            )
        assert results == ["a", "local-1"]

    def test_chunk_exception_propagates_without_retry(self):
        # Deterministic chunk failures are the chunk's own: retrying would
        # fail identically, so the error surfaces on the first attempt.
        factory = _PoolFactory({0: RuntimeError("bad chunk"), 1: "fine"})
        with pytest.raises(RuntimeError, match="bad chunk"):
            dispatch_chunks(
                [(0,), (1,)], _noop_worker, factory, lambda i: None
            )
        assert len(factory.pools) == 1
        assert factory.pools[0].shut_down

    def test_zero_chunks_never_builds_a_pool(self):
        factory = _PoolFactory()
        assert dispatch_chunks([], _noop_worker, factory, lambda i: None) == []
        assert factory.pools == []

    @pytest.mark.parametrize("deaths", range(1, MAX_ATTEMPTS))
    def test_deaths_short_of_max_attempts_recover_in_a_pool(self, deaths):
        # A chunk whose worker dies in fewer than MAX_ATTEMPTS pools still
        # finishes in a pool: no warning, and the local runner never runs.
        factory = _PoolFactory(
            *[{0: BrokenExecutor()}] * deaths,
            {0: "a"},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedExecutionWarning)
            results = dispatch_chunks([(0,)], _noop_worker, factory, _unexpected_local)
        assert results == ["a"]
        assert len(factory.pools) == deaths + 1

    def test_last_rebuild_failure_finishes_lost_chunks_locally(self):
        # The pool cannot be rebuilt for the final attempt: chunks finished
        # by earlier pools keep their results, only the lost one runs here.
        factory = _PoolFactory(
            {0: "a", 1: BrokenExecutor(), 2: BrokenExecutor()},
            {1: "b", 2: BrokenExecutor()},
            OSError("no processes"),
        )
        local_calls: list[int] = []

        def local_runner(index):
            local_calls.append(index)
            return f"local-{index}"

        with pytest.warns(DegradedExecutionWarning, match="pool unavailable"):
            results = dispatch_chunks(
                [(0,), (1,), (2,)], _noop_worker, factory, local_runner
            )
        assert results == ["a", "b", "local-2"]
        assert local_calls == [2]

    def test_chunk_exception_cancels_unstarted_chunks(self):
        factory = _PoolFactory({0: ValueError("bad chunk"), 1: "b", 2: "c"})
        with pytest.raises(ValueError, match="bad chunk"):
            dispatch_chunks([(0,), (1,), (2,)], _noop_worker, factory, _unexpected_local)
        assert factory.pools[0].cancelled_on_shutdown

    def test_chunk_exception_in_rebuilt_pool_propagates(self):
        # A worker death does not turn a later chunk error into a retry:
        # the rebuilt pool's exception surfaces and no third pool is built.
        factory = _PoolFactory(
            {0: BrokenExecutor(), 1: "b"},
            {0: RuntimeError("bad chunk")},
            {0: "never reached"},
        )
        with pytest.raises(RuntimeError, match="bad chunk"):
            dispatch_chunks([(0,), (1,)], _noop_worker, factory, _unexpected_local)
        assert len(factory.pools) == 2
        assert all(pool.shut_down for pool in factory.pools)

    def test_exhaustion_warning_names_label_and_counts(self):
        factory = _PoolFactory(
            *[{0: BrokenExecutor(), 1: BrokenExecutor()}] * MAX_ATTEMPTS
        )
        with pytest.warns(DegradedExecutionWarning) as record:
            dispatch_chunks(
                [(0,), (1,)], _noop_worker, factory, lambda i: i, label="unit chunks"
            )
        (warning,) = record
        assert str(warning.message) == (
            f"unit chunks: 2 chunk(s) exhausted {MAX_ATTEMPTS} worker attempt(s); "
            "finishing them in-process"
        )

    def test_real_executor_splats_task_args_in_order(self):
        # Any Executor works: a thread pool runs worker_fn(*task_args[i]).
        results = dispatch_chunks(
            [(1, 2), (3, 4), (5, 6)],
            pow,
            lambda: ThreadPoolExecutor(max_workers=2),
            _unexpected_local,
        )
        assert results == [1, 81, 15625]
