"""Deterministic fault injection for crash-recovery and retry tests.

Fault-tolerance code is only trustworthy if its failure paths run on every
CI pass, so production code carries cheap, env-gated probes at the places
that can die in the wild::

    point               fired from                          typical mode
    ------------------- ----------------------------------- -------------
    fleet-chunk         extraction worker, per chunk         crash
    conformance-cell    conformance worker, per cell         crash
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
* ``error`` — raises :class:`InjectedFault`, an ordinary exception.
* ``torn`` — cooperative: :func:`torn_cut` tells a journal writer (WAL
  append or snapshot temp file) to stop mid-write and raise
  :class:`InjectedCrash` (a ``BaseException``, so a stray
  ``except Exception`` cannot swallow the simulated death).
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.wire import Encodable, wire_format

#: Environment variable carrying the encoded :class:`FaultPlan`.
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Exit status of ``crash``-mode faults (distinctive, assertable).
CRASH_EXIT_CODE = 23

_MODES = ("crash", "kill", "error", "torn")

#: Points production code fires (:func:`fire`) or cuts (:func:`torn_cut`);
#: a spec naming any other point could never trigger.
_POINTS = (
    "fleet-chunk",
    "conformance-cell",
    "session-event",
    "wal-append",
    "snapshot-write",
)


class InjectedFault(RuntimeError):
    """An ordinary injected exception (``error`` mode)."""


class InjectedCrash(BaseException):
    """A simulated process death for in-process tests (``torn`` mode).

    Derives from ``BaseException`` so code under test that catches
    ``Exception`` cannot accidentally survive its own simulated crash.
    """


@wire_format("fault spec", widen=True)
@dataclass(frozen=True)
class FaultSpec(Encodable):
    """One armed fault: fire ``mode`` when ``point`` reaches ``index``."""

    point: str
    mode: str = "crash"
    index: int | None = None
    once: bool = True

    def __post_init__(self) -> None:
        if self.point not in _POINTS:
            raise ValueError(f"unknown fault point {self.point!r} (use {'/'.join(_POINTS)})")
        if self.mode not in _MODES:
            raise ValueError(f"unknown fault mode {self.mode!r} (use {'/'.join(_MODES)})")

    def matches(self, point: str, index: int | None) -> bool:
        return self.point == point and (self.index is None or self.index == index)


@wire_format("fault plan", order=("latch_dir", "specs"))
@dataclass(frozen=True)
class FaultPlan(Encodable):
    """A set of armed faults plus the latch directory for ``once`` faults."""

    specs: tuple[FaultSpec, ...] = ()
    latch_dir: str | None = None

    def encode(self) -> str:
        return self.to_json(indent=None)

    @classmethod
    def decode(cls, encoded: str) -> "FaultPlan":
        return cls.from_json(encoded)


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
    # A malformed plan (say, a mistyped point) raises DataError here, at the
    # first probe it reaches, rather than passing for a fault never fired.
    plan = FaultPlan.decode(encoded)
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
    if spec.mode == "error":
        raise InjectedFault(f"injected fault at {point}[{index}]")


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
