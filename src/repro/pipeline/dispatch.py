"""Fault-tolerant chunk dispatch over a process pool.

Both worker fan-outs (fleet extraction chunks and conformance cells)
submit through :func:`dispatch_chunks`, which makes a worker death a
retriable event under one fixed rule:

* a broken pool (worker SIGKILLed, segfaulted, OOMed) is replaced by a
  fresh one, and only the chunks it lost are re-dispatched — completed
  results are never recomputed;
* a chunk whose worker died in :data:`MAX_ATTEMPTS` pools runs in-process
  via the caller's ``local_runner`` under a
  :class:`~repro.errors.DegradedExecutionWarning`, as does every chunk
  when no pool can be built at all (``OSError``).

Every chunk function in this package is deterministic, so results are
bitwise identical on every path.  For the same reason an ordinary
exception raised *by* chunk code is not retried — it would fail again —
and propagates from the first pool.
"""

from __future__ import annotations

import warnings
from concurrent.futures import BrokenExecutor, Executor
from numbers import Integral
from typing import Any, Callable, Sequence

from repro.errors import DegradedExecutionWarning, ValidationError

__all__ = ["MAX_ATTEMPTS", "check_count", "dispatch_chunks"]

#: Pools a chunk is delivered to before it finishes in-process.
MAX_ATTEMPTS = 3


def check_count(name: str, value: Any, optional: bool = False) -> None:
    """Reject ``value`` unless it is an integer >= 1 that is not a ``bool``
    (or ``None`` when ``optional``), naming ``name`` in the error."""
    if optional and value is None:
        return
    if not isinstance(value, Integral) or isinstance(value, bool) or value < 1:
        allowed = " (or None)" if optional else ""
        raise ValidationError(f"{name} must be an integer >= 1{allowed}, got {value!r}")


def _finish_locally(
    pending: list[int], local_runner: Callable[[int], Any], results: list[Any], message: str
) -> None:
    warnings.warn(DegradedExecutionWarning(message), stacklevel=3)
    for index in pending:
        results[index] = local_runner(index)


def dispatch_chunks(
    task_args: Sequence[tuple],
    worker_fn: Callable[..., Any],
    pool_factory: Callable[[], Executor],
    local_runner: Callable[[int], Any],
    label: str = "chunks",
) -> list[Any]:
    """Run every task over a (rebuildable) pool; results in task order.

    ``task_args[i]`` is splatted into ``worker_fn`` inside a pool worker;
    ``local_runner(i)`` must produce the bitwise-identical result
    in-process (the degradation path).  ``pool_factory`` builds a fresh
    executor — called once up front and again after every pool loss, at
    most :data:`MAX_ATTEMPTS` times.
    """
    results: list[Any] = [None] * len(task_args)
    pending = list(range(len(task_args)))
    for _ in range(MAX_ATTEMPTS):
        if not pending:
            break
        try:
            pool = pool_factory()
        except OSError as exc:
            message = f"{label}: worker pool unavailable ({exc}); running in-process"
            _finish_locally(pending, local_runner, results, message)
            return results
        futures = [(index, pool.submit(worker_fn, *task_args[index])) for index in pending]
        lost: list[int] = []
        try:
            for index, future in futures:
                # A broken pool fails every future it has not finished, so
                # blocking here always returns; finished results are kept.
                try:
                    results[index] = future.result()
                except BrokenExecutor:
                    lost.append(index)
        finally:
            # When chunk code itself raised, this cancels the chunks not yet
            # started and the error surfaces: the failure is deterministic,
            # so a retry would fail the same way.
            pool.shutdown(wait=True, cancel_futures=True)
        pending = lost
    if pending:
        message = (
            f"{label}: {len(pending)} chunk(s) exhausted {MAX_ATTEMPTS} worker "
            "attempt(s); finishing them in-process"
        )
        _finish_locally(pending, local_runner, results, message)
    return results
