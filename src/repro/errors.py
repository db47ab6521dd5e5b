"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause
while still being able to discriminate finer-grained failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class AxisMismatchError(ReproError):
    """Two time series were combined but their time axes are incompatible."""


class ResolutionError(ReproError):
    """A resampling operation was requested between incompatible resolutions."""


class ValidationError(ReproError):
    """A domain object (flex-offer, appliance spec, ...) violates an invariant."""


class ExtractionError(ReproError):
    """A flexibility-extraction algorithm could not produce a valid result."""


class SchedulingError(ReproError):
    """The scheduler could not produce a feasible assignment."""


class AggregationError(ReproError):
    """Flex-offer aggregation or disaggregation failed."""


class MarketError(ReproError):
    """Merit-order market clearing was misconfigured or failed
    (see :mod:`repro.market`)."""


class SessionError(ReproError):
    """A rolling-horizon flexibility session was driven out of contract
    (bad ingest bounds, unsupported target kind, malformed replay events;
    see :mod:`repro.session`)."""


class SessionReplayError(SessionError):
    """A recorded event stream failed mid-replay.

    Carries the partial replay report (with its ``failed_event`` marker)
    in :attr:`report` so the CLI can still write the diagnostic artifact
    before exiting non-zero.
    """

    def __init__(self, message: str, report: dict | None = None) -> None:
        super().__init__(message)
        self.report = report


class PersistenceError(ReproError):
    """A session journal (write-ahead log or snapshot) is unreadable,
    corrupt beyond the torn-tail tolerance, or was driven out of contract
    (see :mod:`repro.session.persistence`)."""


class DataError(ReproError):
    """Input data is malformed (wrong shape, NaNs, negative energy, ...)."""


class RegistryError(ReproError):
    """An extractor was requested from the registry with an unknown name or
    unknown/missing parameters (see :mod:`repro.api.registry`)."""


class SpecError(ReproError):
    """A declarative run spec is malformed: unknown keys, wrong types, or an
    unsupported version (see :mod:`repro.api.spec`)."""


class DegradedExecutionWarning(RuntimeWarning):
    """Execution completed, but on a degraded path: the worker pool could
    not be created, or a chunk's worker died in every one of the
    dispatcher's ``MAX_ATTEMPTS`` pools, so the work finished in-process.
    Results are bitwise identical on the degraded path; the warning exists
    so operators notice the slowdown."""
