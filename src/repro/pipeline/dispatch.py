"""Fault-tolerant chunk dispatch over a process pool.

The worker fan-outs in this package (fleet extraction chunks and
conformance cells) used to die wholesale when one worker died:
``BrokenProcessPool`` poisons every outstanding future of a
``ProcessPoolExecutor``, so a single OOM-killed process aborted work that
was deterministic and perfectly re-runnable.  This module is the shared
fix — submit chunks through :func:`dispatch_chunks` and worker loss
becomes a retriable event:

* a broken pool (worker SIGKILLed, segfaulted, OOMed) is torn down and
  **rebuilt**, and only the chunks still outstanding are re-dispatched —
  completed results are never recomputed;
* a chunk that exceeds :attr:`RetryPolicy.timeout_seconds` abandons the
  (possibly wedged) pool the same way;
* each round of failures backs off exponentially with **deterministic
  jitter** (keyed on the chunk index and attempt number, not a clock or
  RNG, so reruns sleep identically);
* a chunk that exhausts :attr:`RetryPolicy.max_attempts` degrades
  gracefully: it runs in-process via the caller's ``local_runner`` under a
  :class:`~repro.errors.DegradedExecutionWarning`.

Results are bitwise identical on every path because every chunk function
in this package is deterministic — the same property that already made
worker counts invisible in results makes retries and fallbacks invisible
too.  Ordinary exceptions raised *by* chunk code (as opposed to the worker
dying) are not retried: a deterministic failure would fail again, so it
propagates immediately, exactly as the pre-retry fan-outs behaved.
"""

from __future__ import annotations

import math
import time
import warnings
import zlib
from concurrent.futures import BrokenExecutor, Executor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Any, Callable, Sequence

from repro.errors import DegradedExecutionWarning, ValidationError

__all__ = [
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "backoff_seconds",
    "check_count",
    "dispatch_chunks",
]

#: Growth of the backoff per failed attempt.
BACKOFF_FACTOR = 2.0

#: Largest deterministic stretch of one backoff, as a fraction of it.
JITTER_FRACTION = 0.25


def check_count(name: str, value: Any, optional: bool = False) -> None:
    """Reject ``value`` unless it is an integer >= 1 that is not a ``bool``
    (or ``None`` when ``optional``), naming ``name`` in the error."""
    if optional and value is None:
        return
    if not isinstance(value, Integral) or isinstance(value, bool) or value < 1:
        allowed = " (or None)" if optional else ""
        raise ValidationError(f"{name} must be an integer >= 1{allowed}, got {value!r}")


def _check_seconds(name: str, value: Any, positive: bool = False) -> None:
    """Reject ``value`` unless it is a finite number of seconds, > 0 when
    ``positive`` and >= 0 otherwise, naming ``name`` in the error."""
    if (
        not isinstance(value, Real)
        or isinstance(value, bool)
        or not math.isfinite(value)
        or value < 0
        or (positive and value == 0)
    ):
        bound = "> 0" if positive else ">= 0"
        raise ValidationError(
            f"{name} must be a finite number of seconds {bound}, got {value!r}"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """How hard :func:`dispatch_chunks` fights for each chunk.

    ``max_attempts`` counts pool deliveries per chunk; after the last one
    fails the chunk runs in-process.  ``timeout_seconds`` bounds one
    chunk's wall-clock in the pool (``None`` waits forever).  Backoff
    between failure rounds grows as ``base * BACKOFF_FACTOR**(attempt-1)``
    capped at ``backoff_max_seconds``, stretched by up to
    :data:`JITTER_FRACTION` using a hash of the chunk index and attempt —
    deterministic, so test runs and re-runs sleep the same.
    """

    max_attempts: int = 3
    timeout_seconds: float | None = None
    backoff_base_seconds: float = 0.05
    backoff_max_seconds: float = 2.0

    def __post_init__(self) -> None:
        check_count("retry max_attempts", self.max_attempts)
        if self.timeout_seconds is not None:
            _check_seconds("retry timeout_seconds", self.timeout_seconds, positive=True)
        _check_seconds("retry backoff_base_seconds", self.backoff_base_seconds)
        _check_seconds("retry backoff_max_seconds", self.backoff_max_seconds)


DEFAULT_RETRY_POLICY = RetryPolicy()


def backoff_seconds(policy: RetryPolicy, chunk: int, attempt: int) -> float:
    """The deterministic delay before re-dispatching ``chunk``'s ``attempt``."""
    base = min(
        policy.backoff_max_seconds,
        policy.backoff_base_seconds * BACKOFF_FACTOR ** max(0, attempt - 1),
    )
    frac = zlib.crc32(f"{chunk}:{attempt}".encode()) % 10_000 / 10_000
    return base * (1.0 + JITTER_FRACTION * frac)


def _abandon_pool(pool: Executor) -> None:
    """Tear down a broken or wedged pool without waiting on it.

    ``shutdown(wait=False)`` alone would leave a hung worker running
    forever, so any surviving worker processes are terminated first (via
    the executor's process table; guarded, since that attribute is an
    implementation detail of ``ProcessPoolExecutor``).
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-reaped process
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def dispatch_chunks(
    task_args: Sequence[tuple],
    worker_fn: Callable[..., Any],
    pool_factory: Callable[[], Executor],
    local_runner: Callable[[int], Any],
    policy: RetryPolicy | None = None,
    label: str = "chunks",
) -> list[Any]:
    """Run every task over a (rebuildable) pool; results in task order.

    ``task_args[i]`` is splatted into ``worker_fn`` inside a pool worker;
    ``local_runner(i)`` must produce the bitwise-identical result
    in-process (the degradation path).  ``pool_factory`` builds a fresh
    executor — called once up front and again after every pool loss.
    """
    policy = policy if policy is not None else DEFAULT_RETRY_POLICY
    total = len(task_args)
    results: list[Any] = [None] * total
    attempts = [0] * total
    pending = list(range(total))
    pool: Executor | None = None
    try:
        while pending:
            exhausted = [i for i in pending if attempts[i] >= policy.max_attempts]
            if exhausted:
                warnings.warn(
                    DegradedExecutionWarning(
                        f"{label}: {len(exhausted)} chunk(s) exhausted "
                        f"{policy.max_attempts} worker attempt(s); finishing "
                        "them in-process"
                    ),
                    stacklevel=2,
                )
                for index in exhausted:
                    results[index] = local_runner(index)
                pending = [i for i in pending if i not in set(exhausted)]
                continue
            if pool is None:
                try:
                    pool = pool_factory()
                except OSError as exc:
                    warnings.warn(
                        DegradedExecutionWarning(
                            f"{label}: worker pool unavailable ({exc}); "
                            "running in-process"
                        ),
                        stacklevel=2,
                    )
                    for index in pending:
                        results[index] = local_runner(index)
                    pending = []
                    continue
            futures = {i: pool.submit(worker_fn, *task_args[i]) for i in pending}
            failed: list[int] = []
            broken = False
            for index in pending:
                # Once the pool is known-lost, drain without blocking:
                # finished futures still yield results, the rest re-queue.
                timeout = 0.0 if broken else policy.timeout_seconds
                try:
                    results[index] = futures[index].result(timeout=timeout)
                except (BrokenExecutor, FuturesTimeout, TimeoutError):
                    attempts[index] += 1
                    failed.append(index)
                    broken = True
                except BaseException:
                    # Chunk code itself raised: deterministic, so a retry
                    # would fail the same way — surface it (the pre-retry
                    # contract of every fan-out using this module).
                    pool.shutdown(wait=True, cancel_futures=True)
                    pool = None
                    raise
            if broken:
                _abandon_pool(pool)
                pool = None
                first = failed[0]
                time.sleep(backoff_seconds(policy, first, attempts[first]))
            pending = failed
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    return results
