"""Deterministic fault injection for crash-recovery and retry tests.

Fault-tolerance code is only trustworthy if its failure paths run on every
CI pass, so production code carries cheap, env-gated probes at the places
that can die in the wild::

    point               fired from                          typical mode
    ------------------- ----------------------------------- -------------
    fleet-chunk         extraction worker, per chunk         crash
    zone-worker         zone-scheduling worker, per zone     crash
    conformance-cell    conformance worker, per cell         crash
    shm-create          SharedFleetBuffer.create (owner)     oserror
    wal-append          SessionJournal record append         torn
    snapshot-write      SessionJournal snapshot temp file    torn
    session-event       replay_session, per event            crash / kill

A probe is a no-op unless :data:`FAULTS_ENV_VAR` holds an encoded
:class:`FaultPlan` — the environment variable is the transport, so plans
armed in the coordinator reach forked pool workers and spawned CLI
subprocesses alike.  Every trigger is deterministic: a fault fires at an
exact ``(point, index)`` coordinate, and ``once=True`` faults fire exactly
one time across *all* processes via an ``O_CREAT | O_EXCL`` latch file —
which is what lets a retry re-dispatch the very chunk whose first worker
was killed and see it succeed.

Modes:

* ``crash`` — ``os._exit(CRASH_EXIT_CODE)``: a hard worker death (the
  executor sees :class:`~concurrent.futures.process.BrokenProcessPool`).
* ``kill`` — SIGKILL to the current process: the CI crash-recovery smoke
  uses this to murder ``repro session`` mid-stream.
* ``oserror`` — raises ``OSError(ENOSPC)``: a full ``/dev/shm``.
* ``error`` — raises :class:`InjectedFault`, an ordinary exception.
* ``hang`` — sleeps ``seconds``: a wedged worker, for timeout tests.
* ``torn`` — cooperative: :func:`torn_cut` tells a journal writer (WAL
  append or snapshot temp file) to stop mid-write and raise
  :class:`InjectedCrash` (a ``BaseException``, so a stray
  ``except Exception`` cannot swallow the simulated death).
"""

from __future__ import annotations

import errno
import json
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

#: Environment variable carrying the encoded :class:`FaultPlan`.
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Exit status of ``crash``-mode faults (distinctive, assertable).
CRASH_EXIT_CODE = 23

_MODES = ("crash", "kill", "oserror", "error", "hang", "torn")


class InjectedFault(RuntimeError):
    """An ordinary injected exception (``error`` mode)."""


class InjectedCrash(BaseException):
    """A simulated process death for in-process tests (``torn`` mode).

    Derives from ``BaseException`` so code under test that catches
    ``Exception`` cannot accidentally survive its own simulated crash.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: fire ``mode`` when ``point`` reaches ``index``."""

    point: str
    mode: str = "crash"
    index: int | None = None
    once: bool = True
    seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown fault mode {self.mode!r} (use {'/'.join(_MODES)})")

    def matches(self, point: str, index: int | None) -> bool:
        return self.point == point and (self.index is None or self.index == index)

    def to_dict(self) -> dict[str, Any]:
        return {
            "point": self.point,
            "mode": self.mode,
            "index": self.index,
            "once": self.once,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultSpec":
        return cls(
            point=data["point"],
            mode=data.get("mode", "crash"),
            index=data.get("index"),
            once=bool(data.get("once", True)),
            seconds=float(data.get("seconds", 3600.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A set of armed faults plus the latch directory for ``once`` faults."""

    specs: tuple[FaultSpec, ...]
    latch_dir: str | None = None

    def encode(self) -> str:
        return json.dumps(
            {"latch_dir": self.latch_dir, "specs": [s.to_dict() for s in self.specs]}
        )

    @classmethod
    def decode(cls, encoded: str) -> "FaultPlan":
        data = json.loads(encoded)
        return cls(
            specs=tuple(FaultSpec.from_dict(s) for s in data.get("specs", ())),
            latch_dir=data.get("latch_dir"),
        )


def _acquire(plan: FaultPlan, spec: FaultSpec) -> bool:
    """Claim a once-fault's latch; False when it already fired somewhere."""
    if not spec.once:
        return True
    if plan.latch_dir is None:
        # No latch directory: 'once' cannot be coordinated across
        # processes, so the fault fires every time it is reached.
        return True
    latch = os.path.join(
        plan.latch_dir, f"fired-{spec.point}-{spec.index}-{spec.mode}"
    )
    try:
        os.close(os.open(latch, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def _armed(point: str, index: int | None) -> tuple[FaultPlan, FaultSpec] | None:
    encoded = os.environ.get(FAULTS_ENV_VAR)
    if not encoded:
        return None
    try:
        plan = FaultPlan.decode(encoded)
    except (ValueError, KeyError):  # pragma: no cover - malformed env
        return None
    for spec in plan.specs:
        if spec.matches(point, index):
            return plan, spec
    return None


def fire(point: str, index: int | None = None) -> None:
    """Probe: trigger any fault armed at ``(point, index)``.  Cheap no-op
    (one env lookup) when nothing is armed; ``torn`` faults are ignored —
    they only act through :func:`torn_cut`."""
    armed = _armed(point, index)
    if armed is None:
        return
    plan, spec = armed
    if spec.mode == "torn" or not _acquire(plan, spec):
        return
    if spec.mode == "crash":
        os._exit(CRASH_EXIT_CODE)
    if spec.mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if spec.mode == "oserror":
        raise OSError(
            errno.ENOSPC, f"injected fault at {point}[{index}]: no space left on device"
        )
    if spec.mode == "error":
        raise InjectedFault(f"injected fault at {point}[{index}]")
    if spec.mode == "hang":
        time.sleep(spec.seconds)


def torn_cut(point: str, index: int | None, size: int) -> int | None:
    """Cooperative torn-write probe for journal writes.

    When a ``torn`` fault is armed at ``(point, index)``, returns how many
    of the write's ``size`` bytes the writer should persist before
    simulating death (half, but at least one and never all); otherwise
    ``None``.  The writer persists the prefix and raises
    :class:`InjectedCrash`.
    """
    armed = _armed(point, index)
    if armed is None:
        return None
    plan, spec = armed
    if spec.mode != "torn" or not _acquire(plan, spec):
        return None
    return max(1, min(size - 1, size // 2))


@contextmanager
def inject_faults(
    *specs: FaultSpec, latch_dir: str | None = None
) -> Iterator[FaultPlan]:
    """Arm ``specs`` for the duration of the block (environment-scoped).

    The plan rides :data:`FAULTS_ENV_VAR`, so worker processes forked (or
    spawned) inside the block inherit it.  Pass ``latch_dir`` whenever a
    ``once=True`` fault must fire exactly once across processes.
    """
    plan = FaultPlan(specs=tuple(specs), latch_dir=latch_dir)
    previous = os.environ.get(FAULTS_ENV_VAR)
    os.environ[FAULTS_ENV_VAR] = plan.encode()
    try:
        yield plan
    finally:
        if previous is None:
            os.environ.pop(FAULTS_ENV_VAR, None)
        else:
            os.environ[FAULTS_ENV_VAR] = previous
