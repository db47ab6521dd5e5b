"""Declarative, versioned run specs: describe a whole run as data.

MIRABEL's vision (paper §6) is a *system* that continuously turns metered
series into flex-offers; operating such a system means a run must be
describable, storable and replayable without code.  A :class:`RunSpec` is
that description: which fleet to simulate (:class:`ScenarioSpec`), which
registered approaches to run with which parameters
(:class:`ExtractorSpec`), and how to batch/group the fleet execution
(:class:`PipelineSpec`).

All spec classes are frozen dataclasses on the package's one wire codec
(:mod:`repro.wire`): ``to_dict`` and ``from_dict`` are its :func:`encode`
and :func:`decode`, driven by the dataclass fields and their annotations.
The wire quirks are field or class data, not code: :class:`RunSpec`'s key
order, keys omitted while a field holds its default (``OMIT``), the ISO
``start``, ints widened to float on decode only (a spec built in code keeps
encoding what it was given), lists read as tuples, and nested specs.

Validation has one path: every check, type and range, runs in
``__post_init__``, so a spec built in code and a decoded one meet the same
rules and raise :class:`~repro.errors.SpecError` naming the offending
field.  The stage specs state no rule of the layer they configure:
:class:`MarketSpec`, :class:`RobustSpec` and the placement fields of
:class:`ScheduleSpec` are checked by building the config they mirror, and
its error is re-raised as a ``SpecError`` naming the path.  Unknown keys
and unsupported versions raise too, and ``RunSpec.from_dict(spec.to_dict())
== spec`` holds for every valid spec (property-tested).

Example spec file (``examples/specs/smoke.json``)::

    {
      "version": 1,
      "kind": "fleet",
      "scenario": {"households": 2, "days": 1, "seed": 7},
      "extractors": [
        {"name": "peak-based", "params": {"flexible_share": 0.05}},
        {"name": "frequency-based"}
      ],
      "pipeline": {"chunk_size": 4}
    }
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timedelta
from numbers import Integral, Real
from pathlib import Path
from types import MappingProxyType, NoneType, UnionType
from typing import Any, get_args, get_origin

from repro.errors import ReproError, SpecError
from repro.wire import OMIT, Encodable, format_of, hints, wire_format

#: Wire-format version of the spec layer; bump on incompatible change.
SPEC_VERSION = 1

#: Run kinds the service knows how to route (see repro.api.service).
RUN_KINDS: tuple[str, ...] = ("fleet", "compare")

#: Default scenario anchor — Monday 2012-03-05, the paper-week start shared
#: with repro.workloads.scenarios.SCENARIO_START (duplicated here so the
#: spec layer stays import-light).
DEFAULT_START = datetime(2012, 3, 5)

#: Target-series kinds the schedule stage can synthesise declaratively.
SCHEDULE_TARGETS: tuple[str, ...] = ("wind", "flat")

#: Field metadata: a seed, an integer >= 0 (numpy rejects the rest only
#: once the run has started).
_SEED = {"seed": True}
#: Field metadata: checked by the config of the stage the spec mirrors.
_STAGE = {"stage": True}

#: Accepted types of the scalar annotations: ``bool`` is neither.
_SCALARS: dict[Any, tuple[type, str]] = {int: (Integral, "int"), float: (Real, "int/float")}


def _spec(path: str, **quirks: Any):
    """Register a spec class's wire format; ``path`` is where the class sits
    in a run-spec document, for error messages."""
    return wire_format(path, error=SpecError, widen=True, validated=True, **quirks)


class _Spec(Encodable):
    """What every spec class shares: the codec and the error path."""

    __slots__ = ()

    @property
    def _path(self) -> str:
        return format_of(type(self)).what


def _inner(args: tuple[Any, ...]) -> Any:
    """``X`` of the annotation ``X | None``."""
    return next(arg for arg in args if arg is not NoneType)


def _check_fields(spec: _Spec) -> None:
    """Check every field of ``spec`` against its annotation (first, so the
    range rules compare values of the right type)."""
    field_hints = hints(type(spec))
    for f in fields(spec):
        value = getattr(spec, f.name)
        where = f"{spec._path}.{f.name}"
        if f.metadata.get("seed"):
            if not isinstance(value, Integral) or isinstance(value, bool) or value < 0:
                raise SpecError(f"{where} must be an integer >= 0, got {value!r}")
            continue
        if f.metadata.get("stage"):
            # The stage config checks the value; only the shape is fixed here.
            checked = tuple(value) if isinstance(value, list) else value
        else:
            checked = _check(field_hints[f.name], value, where)
        if checked is not value:
            object.__setattr__(spec, f.name, checked)


def _check(hint: Any, value: Any, where: str) -> Any:
    """``value`` as the type ``hint`` declares (lists as tuples, mappings
    frozen), or a :class:`SpecError` naming ``where``."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        return None if value is None else _check(_inner(args), value, where)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise _wrong_type(where, "list", value)
        return tuple(_check(args[0], item, f"{where}[]") for item in value)
    if origin is Mapping:
        if not isinstance(value, Mapping):
            raise _wrong_type(where, "mapping", value)
        for key in value:
            _check(args[0], key, f"{where} key")
        # MappingProxyType compares by its underlying dict, so dataclass
        # equality (and the round-trip property) still holds.
        return MappingProxyType(dict(value))
    expected, label = _SCALARS.get(hint, (hint, hint.__name__))
    if isinstance(value, bool) or not isinstance(value, expected):
        raise _wrong_type(where, label, value)
    if hint is float and not -math.inf < value < math.inf:
        raise SpecError(f"{where} must be finite, got {value!r}")
    return value


def _wrong_type(where: str, label: str, value: Any) -> SpecError:
    return SpecError(f"{where}: expected {label}, got {type(value).__name__}")


def _check_stage(spec: Any) -> None:
    """Check a stage spec by building the config it mirrors."""
    try:
        spec.config()
    except ReproError as exc:
        raise SpecError(f"{spec._path}.{exc}") from exc


@_spec("scenario")
@dataclass(frozen=True, slots=True)
class ScenarioSpec(_Spec):
    """Which simulated fleet a run operates on.

    The simulation is fully deterministic in (households, days, seed,
    start), so a scenario spec *is* the dataset identity.
    """

    households: int = 4
    days: int = 7
    seed: int = field(default=0, metadata=_SEED)
    start: datetime = DEFAULT_START


    def __post_init__(self) -> None:
        _check_fields(self)
        if self.households < 1:
            raise SpecError("scenario.households must be >= 1")
        if self.days < 1:
            raise SpecError("scenario.days must be >= 1")


@_spec("extractor")
@dataclass(frozen=True, slots=True)
class ExtractorSpec(_Spec):
    """One registered approach plus its flat parameter overrides.

    ``params`` values must be JSON scalars (or lists thereof); they are
    routed through :func:`repro.api.registry.create_extractor`, which
    owns the name→class mapping and parameter validation.  The mapping is
    frozen, so the spec is immutable end to end.
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)


    def __post_init__(self) -> None:
        _check_fields(self)
        if not self.name:
            raise SpecError("extractor.name must be a non-empty string")

    def create(self):
        """Instantiate via the registry (the only construction path)."""
        from repro.api.registry import create_extractor

        return create_extractor(self.name, **dict(self.params))


@_spec("pipeline.schedule.market")
@dataclass(frozen=True, slots=True)
class MarketSpec(_Spec):
    """The declarative merit-order clearing stage of a zoned schedule.

    Mirrors :class:`repro.market.model.MarketConfig`, which checks every
    field: the target axis is divided into ``slices`` uniform market
    periods (one uniform clearing price each), ``coupling_kwh`` bounds the
    cross-zone spill pass (0 disables it) and ``engine`` picks the
    execution plan.  Requires zones with real price bands
    (``price_floor < price_cap``) — the scheduler rejects clearing on
    unpriced zones.
    """

    slices: int = field(default=8, metadata=_STAGE)
    coupling_kwh: float = field(default=0.0, metadata=_STAGE)
    engine: str = field(default="vectorized", metadata=_STAGE)


    def __post_init__(self) -> None:
        _check_fields(self)
        _check_stage(self)

    def config(self):
        """The stage configuration as the market layer's own dataclass."""
        from repro.market.model import MarketConfig

        return MarketConfig(
            slices=self.slices,
            coupling_kwh=self.coupling_kwh,
            engine=self.engine,
        )


@_spec("pipeline.schedule.robust")
@dataclass(frozen=True, slots=True)
class RobustSpec(_Spec):
    """The declarative uncertainty-aware mode of the schedule stage.

    Mirrors :class:`repro.scheduling.robust.RobustConfig`, which checks
    every field: placements are scored against a quantile scenario fan
    instead of the point target alone.  ``quantiles`` are the fan's levels
    (strictly increasing, in ``(0, 1)``), ``risk`` aggregates the
    per-scenario gains (``"expected"`` weights them by level mass,
    ``"cvar"`` plans for the worst ``alpha`` tail), and ``sigma`` (finite,
    >= 0) is the relative spread of the fan synthesised around the target
    (:func:`repro.scheduling.robust.synthetic_fan`), the one fan a spec
    run scores.  Plain (non-zoned) targets only.
    """

    quantiles: tuple[float, ...] = field(default=(0.1, 0.5, 0.9), metadata=_STAGE)
    risk: str = field(default="expected", metadata=_STAGE)
    alpha: float = field(default=0.3, metadata=_STAGE)
    sigma: float = field(default=0.25, metadata=_STAGE)


    def __post_init__(self) -> None:
        _check_fields(self)
        _check_stage(self)

    def config(self):
        """The mode configuration as the scheduling layer's own dataclass."""
        from repro.scheduling.robust import RobustConfig

        return RobustConfig(
            quantiles=self.quantiles,
            risk=self.risk,
            alpha=self.alpha,
            sigma=self.sigma,
        )


@_spec("pipeline.schedule.zone")
@dataclass(frozen=True, slots=True)
class ZoneSpec(_Spec):
    """One declarative market zone of a zoned schedule stage.

    The zone's demand profile is synthesised from the enclosing
    :class:`ScheduleSpec`'s ``target`` kind and this zone's own
    ``target_seed``; ``target_kwh`` (when given) rescales the zone's total
    energy.  ``price_floor``/``price_cap`` bound the zone's clearing price
    (EUR/kWh): with a :class:`MarketSpec` they define the zone's supply
    ramp and bid band, otherwise they are reporting metadata.
    ``households`` lists the consumer ids
    routed to this zone by the explicit assignment policy; households not
    listed under any zone fall back to the deterministic hash shard (see
    :func:`repro.scheduling.zones.assign_zone`).
    """

    name: str
    target_seed: int = field(default=0, metadata=_SEED)
    target_kwh: float | None = None
    price_floor: float = 0.0
    price_cap: float = 0.0
    households: tuple[str, ...] = ()


    def __post_init__(self) -> None:
        _check_fields(self)
        if not self.name:
            raise SpecError("pipeline.schedule.zone.name must be a non-empty string")
        if self.target_kwh is not None and self.target_kwh <= 0:
            raise SpecError(f"zone {self.name!r}: target_kwh must be > 0 (or null)")
        if self.price_floor < 0 or self.price_cap < 0:
            raise SpecError(f"zone {self.name!r}: prices must be >= 0")
        if self.price_cap < self.price_floor:
            raise SpecError(f"zone {self.name!r}: price_cap below price_floor")
        if len(set(self.households)) != len(self.households):
            raise SpecError(
                f"zone {self.name!r}: duplicate household(s) in households"
            )


@_spec("pipeline.schedule")
@dataclass(frozen=True, slots=True)
class ScheduleSpec(_Spec):
    """The declarative schedule stage: place fleet aggregates on a target.

    The target series is synthesised deterministically from the spec —
    ``"wind"`` simulates RES production on the scenario's metering axis
    from ``target_seed``, ``"flat"`` is a constant series — and
    ``target_kwh`` (when given) rescales its total energy.  A non-empty
    ``zones`` tuple turns the stage into a zone-sharded multi-market run
    (one synthesised target per :class:`ZoneSpec`; ``target_seed`` and
    ``target_kwh`` then apply per zone and the top-level ones are unused);
    the wire format omits the key when absent, so pre-zone spec files and
    goldens keep loading unchanged.  A non-null ``market`` additionally
    runs merit-order clearing before placement (zoned runs only; the key
    is likewise omitted when absent).  A non-null ``robust``
    (:class:`RobustSpec`) scores placements against a quantile scenario
    fan synthesised around the target (plain targets only; the key is
    omitted when absent).  The remaining fields mirror
    :class:`repro.scheduling.greedy.ScheduleConfig`, which checks them.  The legacy engine names ``"incremental"`` and
    ``"auto"`` stay on the wire as given; only the config resolves them.
    """

    target: str = "wind"
    target_seed: int = field(default=2, metadata=_SEED)
    target_kwh: float | None = None
    order: str = field(default="least-flexible-first", metadata=_STAGE)
    engine: str = field(default="vectorized", metadata=_STAGE)
    improve_iterations: int = field(default=0, metadata=_STAGE)
    improve_seed: int = field(default=0, metadata=_STAGE)
    zones: tuple[ZoneSpec, ...] = field(default=(), metadata=OMIT)
    market: MarketSpec | None = field(default=None, metadata=OMIT)
    robust: RobustSpec | None = field(default=None, metadata=OMIT)


    def __post_init__(self) -> None:
        _check_fields(self)
        names = [zone.name for zone in self.zones]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate zone names: {', '.join(names)}")
        routed: set[str] = set()
        for zone in self.zones:
            doubled = routed & set(zone.households)
            if doubled:
                raise SpecError(
                    f"household(s) {', '.join(sorted(doubled))} assigned to "
                    f"more than one zone"
                )
            routed |= set(zone.households)
        if self.target not in SCHEDULE_TARGETS:
            raise SpecError(
                "pipeline.schedule.target must be one of "
                f"{', '.join(SCHEDULE_TARGETS)}, got {self.target!r}"
            )
        if self.target_kwh is not None and self.target_kwh <= 0:
            raise SpecError("pipeline.schedule.target_kwh must be > 0 (or null)")
        if self.market is not None and not self.zones:
            raise SpecError(
                "schedule.market requires schedule.zones: merit-order "
                "clearing runs on zoned targets only"
            )
        if self.robust is not None and self.zones:
            raise SpecError(
                "schedule.robust applies to plain targets only; zoned "
                "markets keep point scheduling"
            )
        _check_stage(self)

    def config(self):
        """The stage configuration as the scheduling layer's own dataclass."""
        from repro.scheduling.greedy import ScheduleConfig

        return ScheduleConfig(
            order=self.order,
            engine=self.engine,
            improve_iterations=self.improve_iterations,
            improve_seed=self.improve_seed,
            market=None if self.market is None else self.market.config(),
            robust=None if self.robust is None else self.robust.config(),
        )


@_spec("pipeline.session")
@dataclass(frozen=True, slots=True)
class SessionSpec(_Spec):
    """The declarative rolling-horizon session stage.

    Configures :class:`repro.session.FlexibilitySession` for replay-driven
    runs (``repro session --replay``): ``commit_horizon_minutes`` is the
    window ahead of the data watermark inside which every replan freezes
    its placements (``null`` never auto-commits — the setting under which
    a fully ingested session bit-reproduces the one-shot pipeline).  Like
    :class:`MarketSpec`, the wire format omits the whole key when the
    stage is absent, so pre-session spec files keep loading unchanged.

    ``journal_snapshot_every`` tunes the durable journal (``repro session
    --journal DIR``): how many replans pass between WAL snapshot
    compactions.  ``null`` takes the journal layer's default; the wire
    format omits the key when unset, so existing spec files and goldens
    keep loading (and re-encoding) unchanged.
    """

    commit_horizon_minutes: int | None = None
    journal_snapshot_every: int | None = field(default=None, metadata=OMIT)


    def __post_init__(self) -> None:
        _check_fields(self)
        if self.commit_horizon_minutes is not None and self.commit_horizon_minutes < 0:
            raise SpecError(
                "pipeline.session.commit_horizon_minutes must be >= 0 (or null), "
                f"got {self.commit_horizon_minutes}"
            )
        if self.journal_snapshot_every is not None and self.journal_snapshot_every < 1:
            raise SpecError(
                "pipeline.session.journal_snapshot_every must be >= 1 (or null), "
                f"got {self.journal_snapshot_every}"
            )

    def commit_horizon(self) -> timedelta | None:
        """The horizon as the session layer's own unit."""
        if self.commit_horizon_minutes is None:
            return None
        return timedelta(minutes=self.commit_horizon_minutes)


@_spec("pipeline")
@dataclass(frozen=True, slots=True)
class PipelineSpec(_Spec):
    """How the fleet execution is batched, fanned out, grouped — and,
    optionally, scheduled.

    Mirrors :class:`repro.pipeline.FleetPipeline` plus the
    :class:`repro.aggregation.grouping.GroupingParams` grid, in
    JSON-scalar units (minutes for the grouping tolerances).  A non-null
    ``schedule`` enables the market-facing schedule stage; a non-null
    ``session`` configures the rolling-horizon replay session.  Either key
    is omitted from the wire format when absent so pre-schedule (and
    pre-session) spec files and goldens keep loading unchanged.
    """

    chunk_size: int = 8
    workers: int | None = None
    start_tolerance_minutes: int = 120
    flexibility_tolerance_minutes: int = 240
    max_group_size: int = 64
    schedule: ScheduleSpec | None = field(default=None, metadata=OMIT)
    session: SessionSpec | None = field(default=None, metadata=OMIT)


    def __post_init__(self) -> None:
        _check_fields(self)
        if self.chunk_size < 1:
            raise SpecError("pipeline.chunk_size must be >= 1")
        if self.workers is not None and self.workers < 1:
            raise SpecError("pipeline.workers must be >= 1 (or null)")
        if self.start_tolerance_minutes < 1:
            raise SpecError("pipeline.start_tolerance_minutes must be >= 1")
        if self.flexibility_tolerance_minutes < 1:
            raise SpecError("pipeline.flexibility_tolerance_minutes must be >= 1")
        if self.max_group_size < 1:
            raise SpecError("pipeline.max_group_size must be >= 1")

    def grouping_params(self):
        """The grouping grid as the aggregation layer's own dataclass."""
        from repro.aggregation.grouping import GroupingParams

        return GroupingParams(
            start_tolerance=timedelta(minutes=self.start_tolerance_minutes),
            flexibility_tolerance=timedelta(minutes=self.flexibility_tolerance_minutes),
            max_group_size=self.max_group_size,
        )


@_spec(
    "run spec",
    order=("version", "kind", "name", "scenario", "extractors", "pipeline"),
)
@dataclass(frozen=True, slots=True)
class RunSpec(_Spec):
    """A complete, replayable simulate→extract→group→aggregate run."""

    kind: str = "fleet"
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    extractors: tuple[ExtractorSpec, ...] = (ExtractorSpec("frequency-based"),)
    pipeline: PipelineSpec = field(default_factory=PipelineSpec)
    name: str = ""
    version: int = SPEC_VERSION


    def __post_init__(self) -> None:
        _check_fields(self)
        if self.version != SPEC_VERSION:
            raise SpecError(
                f"unsupported run-spec version {self.version!r} "
                f"(this build reads version {SPEC_VERSION})"
            )
        if self.kind not in RUN_KINDS:
            hint = "; run `repro bench --suite fleet` instead" if self.kind == "bench" else ""
            raise SpecError(
                f"kind must be one of {', '.join(RUN_KINDS)}, got {self.kind!r}{hint}"
            )
        if not self.extractors:
            raise SpecError("a run spec needs at least one extractor")

    def with_overrides(self, **changes: Any) -> "RunSpec":
        """A copy with top-level fields replaced (CLI flag overrides)."""
        return replace(self, **changes)


def load_run_spec(path: str | Path) -> RunSpec:
    """Read a :class:`RunSpec` from a JSON file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecError(f"cannot read run spec {path}: {exc}") from exc
    return RunSpec.from_json(text)


def save_run_spec(spec: RunSpec, path: str | Path) -> None:
    """Write a :class:`RunSpec` to a JSON file."""
    spec.save(path)
