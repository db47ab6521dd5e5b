"""Fault-tolerant chunk dispatch: retry, backoff, degradation contracts.

These tests drive :func:`repro.pipeline.dispatch.dispatch_chunks` through
scripted fake executors, so every failure path — broken pool, wedged
worker, retry exhaustion, pool construction failure — runs deterministically
and fast on every tier-1 pass.  The real-process-pool paths (workers
actually SIGKILLed mid-chunk) live in ``test_failure_injection.py``.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FuturesTimeout

import pytest

from repro.errors import DegradedExecutionWarning, ValidationError
from repro.pipeline.dispatch import (
    DEFAULT_RETRY_POLICY,
    JITTER_FRACTION,
    RetryPolicy,
    backoff_seconds,
    dispatch_chunks,
)

#: Backoff-free policy so failure-path tests never actually sleep.
FAST = RetryPolicy(backoff_base_seconds=0.0, backoff_max_seconds=0.0)


class _ScriptedFuture:
    def __init__(self, outcome):
        self._outcome = outcome
        self.timeouts: list[float | None] = []

    def result(self, timeout=None):
        self.timeouts.append(timeout)
        if isinstance(self._outcome, BaseException):
            raise self._outcome
        return self._outcome


class _ScriptedPool:
    """One pool generation: maps chunk args to scripted outcomes."""

    def __init__(self, outcomes):
        self._outcomes = outcomes
        self.submitted: list[tuple] = []
        self.futures: dict[int, _ScriptedFuture] = {}
        self.shut_down = False

    def submit(self, fn, *args):
        self.submitted.append(args)
        index = args[0]
        future = _ScriptedFuture(self._outcomes[index])
        self.futures[index] = future
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True


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


class TestRetryPolicy:
    def test_defaults_are_sane(self):
        assert DEFAULT_RETRY_POLICY.max_attempts == 3
        assert DEFAULT_RETRY_POLICY.timeout_seconds is None

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"max_attempts": 0}, "max_attempts"),
            ({"timeout_seconds": 0}, "timeout_seconds"),
            ({"timeout_seconds": -1.0}, "timeout_seconds"),
            ({"backoff_base_seconds": -0.1}, "backoff_base_seconds"),
            ({"backoff_max_seconds": -1.0}, "backoff_max_seconds"),
            ({"max_attempts": "3"}, "max_attempts"),
            ({"max_attempts": 2.5}, "max_attempts"),
            ({"max_attempts": True}, "max_attempts"),
            ({"timeout_seconds": float("nan")}, "timeout_seconds"),
            ({"timeout_seconds": float("inf")}, "timeout_seconds"),
            ({"timeout_seconds": "1"}, "timeout_seconds"),
            ({"backoff_base_seconds": float("inf")}, "backoff_base_seconds"),
            ({"backoff_base_seconds": False}, "backoff_base_seconds"),
            ({"backoff_max_seconds": float("inf")}, "backoff_max_seconds"),
            ({"backoff_max_seconds": float("nan")}, "backoff_max_seconds"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValidationError, match=match):
            RetryPolicy(**kwargs)

    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(backoff_base_seconds=0.1, backoff_max_seconds=0.3)
        assert backoff_seconds(policy, 3, 1) == backoff_seconds(policy, 3, 1)
        # Jitter is keyed on (chunk, attempt): different coordinates differ.
        assert backoff_seconds(policy, 3, 1) != backoff_seconds(policy, 4, 1)
        # Exponential growth saturates at the cap (plus at most the jitter).
        assert backoff_seconds(policy, 0, 9) <= 0.3 * (1 + JITTER_FRACTION)
        # And never undershoots the uncapped base.
        assert backoff_seconds(policy, 0, 1) >= 0.1


class TestDispatch:
    def test_happy_path_returns_in_task_order(self):
        factory = _PoolFactory({0: "a", 1: "b", 2: "c"})
        results = dispatch_chunks(
            [(0,), (1,), (2,)], _noop_worker, factory, lambda i: None, policy=FAST
        )
        assert results == ["a", "b", "c"]
        assert factory.pools[0].shut_down

    def test_broken_pool_rebuilds_and_redispatches_only_outstanding(self):
        # Chunk 1's worker dies; chunks 0 and 2 completed.  The rebuilt
        # pool must only ever see chunk 1 again.
        factory = _PoolFactory(
            {0: "a", 1: BrokenExecutor("worker died"), 2: "c"},
            {1: "b"},
        )
        results = dispatch_chunks(
            [(0,), (1,), (2,)], _noop_worker, factory, lambda i: None, policy=FAST
        )
        assert results == ["a", "b", "c"]
        assert len(factory.pools) == 2
        assert factory.pools[1].submitted == [(1,)]
        # After the loss was detected, the remaining future was drained
        # without blocking (timeout 0.0), not waited on.
        assert factory.pools[0].futures[2].timeouts == [0.0]

    def test_wedged_worker_times_out_and_retries(self):
        policy = RetryPolicy(
            timeout_seconds=0.5, backoff_base_seconds=0.0, backoff_max_seconds=0.0
        )
        factory = _PoolFactory({0: FuturesTimeout()}, {0: "recovered"})
        results = dispatch_chunks(
            [(0,)], _noop_worker, factory, lambda i: None, policy=policy
        )
        assert results == ["recovered"]
        assert factory.pools[0].futures[0].timeouts == [0.5]

    def test_exhaustion_degrades_to_local_runner(self):
        policy = RetryPolicy(
            max_attempts=2, backoff_base_seconds=0.0, backoff_max_seconds=0.0
        )
        factory = _PoolFactory(
            {0: BrokenExecutor()}, {0: BrokenExecutor()}
        )
        with pytest.warns(DegradedExecutionWarning, match="in-process"):
            results = dispatch_chunks(
                [(0,)],
                _noop_worker,
                factory,
                lambda i: f"local-{i}",
                policy=policy,
                label="unit chunks",
            )
        assert results == ["local-0"]
        assert len(factory.pools) == 2  # one pool per attempt, then local

    def test_pool_construction_failure_runs_everything_local(self):
        factory = _PoolFactory(OSError("fork bomb protection"))
        with pytest.warns(DegradedExecutionWarning, match="pool unavailable"):
            results = dispatch_chunks(
                [(0,), (1,)], _noop_worker, factory, lambda i: i * 10, policy=FAST
            )
        assert results == [0, 10]

    def test_chunk_exception_propagates_without_retry(self):
        # Deterministic chunk failures are the chunk's own: retrying would
        # fail identically, so the error surfaces on the first attempt.
        factory = _PoolFactory({0: RuntimeError("bad chunk"), 1: "fine"})
        with pytest.raises(RuntimeError, match="bad chunk"):
            dispatch_chunks(
                [(0,), (1,)], _noop_worker, factory, lambda i: None, policy=FAST
            )
        assert len(factory.pools) == 1
        assert factory.pools[0].shut_down

    def test_zero_chunks_never_builds_a_pool(self):
        factory = _PoolFactory()
        assert dispatch_chunks([], _noop_worker, factory, lambda i: None) == []
        assert factory.pools == []
