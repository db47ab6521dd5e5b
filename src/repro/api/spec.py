"""Declarative, versioned run specs: describe a whole run as data.

MIRABEL's vision (paper §6) is a *system* that continuously turns metered
series into flex-offers; operating such a system means a run must be
describable, storable and replayable without code.  A :class:`RunSpec` is
that description: which fleet to simulate (:class:`ScenarioSpec`), which
registered approaches to run with which parameters
(:class:`ExtractorSpec`), and how to batch/group the fleet execution
(:class:`PipelineSpec`).

All spec classes are frozen dataclasses with strict ``to_dict`` /
``from_dict`` / JSON round-trips: unknown keys, wrong types and
unsupported versions raise :class:`~repro.errors.SpecError` naming the
offending path, and ``RunSpec.from_dict(spec.to_dict()) == spec`` holds
for every valid spec (property-tested).

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

import json
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timedelta
from numbers import Integral
from pathlib import Path
from types import MappingProxyType
from typing import Any

from repro.errors import SpecError

#: Wire-format version of the spec layer; bump on incompatible change.
SPEC_VERSION = 1

#: Run kinds the service knows how to route (see repro.api.service).
RUN_KINDS: tuple[str, ...] = ("fleet", "compare", "bench")

#: Default scenario anchor — Monday 2012-03-05, the paper-week start shared
#: with repro.workloads.scenarios.SCENARIO_START (duplicated here so the
#: spec layer stays import-light).
DEFAULT_START = datetime(2012, 3, 5)


def _require_keys(data: Mapping[str, Any], allowed: tuple[str, ...], where: str) -> None:
    if not isinstance(data, Mapping):
        raise SpecError(f"{where}: expected a mapping, got {type(data).__name__}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise SpecError(
            f"{where}: unknown key(s) {', '.join(repr(k) for k in unknown)}; "
            f"allowed: {', '.join(allowed)}"
        )


def _require_type(value: Any, types: tuple[type, ...], where: str) -> Any:
    if isinstance(value, bool) and bool not in types:
        raise SpecError(f"{where}: expected {_type_names(types)}, got bool")
    if not isinstance(value, types):
        raise SpecError(
            f"{where}: expected {_type_names(types)}, got {type(value).__name__}"
        )
    return value


def _type_names(types: tuple[type, ...]) -> str:
    return "/".join(t.__name__ for t in types)


def _check_count(value: Any, where: str) -> None:
    """Seeds and iteration budgets are non-negative integers; numpy and the
    improver reject the rest only once the run has started."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < 0:
        raise SpecError(f"{where} must be an integer >= 0, got {value!r}")


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """Which simulated fleet a run operates on.

    The simulation is fully deterministic in (households, days, seed,
    start), so a scenario spec *is* the dataset identity.
    """

    households: int = 4
    days: int = 7
    seed: int = 0
    start: datetime = DEFAULT_START

    def __post_init__(self) -> None:
        if self.households < 1:
            raise SpecError("scenario.households must be >= 1")
        if self.days < 1:
            raise SpecError("scenario.days must be >= 1")
        _check_count(self.seed, "scenario.seed")

    def to_dict(self) -> dict[str, Any]:
        return {
            "households": self.households,
            "days": self.days,
            "seed": self.seed,
            "start": self.start.isoformat(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        _require_keys(data, ("households", "days", "seed", "start"), "scenario")
        kwargs: dict[str, Any] = {}
        for key in ("households", "days", "seed"):
            if key in data:
                kwargs[key] = _require_type(data[key], (int,), f"scenario.{key}")
        if "start" in data:
            raw = _require_type(data["start"], (str,), "scenario.start")
            try:
                kwargs["start"] = datetime.fromisoformat(raw)
            except ValueError as exc:
                raise SpecError(f"scenario.start: {exc}") from exc
        return cls(**kwargs)


@dataclass(frozen=True, slots=True)
class ExtractorSpec:
    """One registered approach plus its flat parameter overrides.

    ``params`` values must be JSON scalars (or lists thereof); they are
    routed through :func:`repro.api.registry.create_extractor`, which
    owns the name→class mapping and parameter validation.
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SpecError("extractor.name must be a non-empty string")
        if not isinstance(self.params, Mapping):
            raise SpecError("extractor.params must be a mapping")
        # Freeze the parameter mapping so the spec is immutable end to end.
        # (MappingProxyType compares by underlying dict, so dataclass
        # equality — and the round-trip property — still hold.)
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    def create(self):
        """Instantiate via the registry (the only construction path)."""
        from repro.api.registry import create_extractor

        return create_extractor(self.name, **dict(self.params))

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExtractorSpec":
        _require_keys(data, ("name", "params"), "extractor")
        if "name" not in data:
            raise SpecError("extractor: missing required key 'name'")
        name = _require_type(data["name"], (str,), "extractor.name")
        params = data.get("params", {})
        _require_type(params, (Mapping,), "extractor.params")
        return cls(name=name, params=dict(params))


#: Target-series kinds the schedule stage can synthesise declaratively.
SCHEDULE_TARGETS: tuple[str, ...] = ("wind", "flat")

#: Placement orders / engines — mirror ``repro.scheduling.greedy`` (kept in
#: sync by a test; duplicated here so the spec layer stays import-light).
#: ``"incremental"`` and ``"auto"`` are legacy aliases of ``"vectorized"``:
#: a spec keeps (and re-encodes) the name it was given, and only
#: :meth:`ScheduleSpec.config` resolves it.
SCHEDULE_ORDERS: tuple[str, ...] = ("least-flexible-first", "largest-first", "as-given")
SCHEDULE_ENGINES: tuple[str, ...] = ("vectorized", "incremental", "reference", "auto")

#: Market-clearing engines — mirror ``repro.market.model.MARKET_ENGINES``
#: (kept in sync by a test; duplicated so the spec layer stays import-light).
MARKET_ENGINES: tuple[str, ...] = ("reference", "vectorized")

#: Risk measures — mirror ``repro.scheduling.robust.RISK_MEASURES`` (kept
#: in sync by a test; duplicated so the spec layer stays import-light).
ROBUST_RISKS: tuple[str, ...] = ("expected", "cvar")


@dataclass(frozen=True, slots=True)
class MarketSpec:
    """The declarative merit-order clearing stage of a zoned schedule.

    Mirrors :class:`repro.market.model.MarketConfig`: the target axis is
    divided into ``slices`` uniform market periods (one uniform clearing
    price each), ``coupling_kwh`` bounds the cross-zone spill pass (0
    disables it) and ``engine`` picks the execution plan.  Requires zones
    with real price bands (``price_floor < price_cap``) — the scheduler
    rejects clearing on unpriced zones.
    """

    slices: int = 8
    coupling_kwh: float = 0.0
    engine: str = "vectorized"

    def __post_init__(self) -> None:
        if self.slices < 1:
            raise SpecError(
                f"schedule.market.slices must be >= 1, got {self.slices}"
            )
        if self.coupling_kwh < 0:
            raise SpecError(
                f"schedule.market.coupling_kwh must be >= 0, "
                f"got {self.coupling_kwh}"
            )
        if self.engine not in MARKET_ENGINES:
            raise SpecError(
                f"schedule.market.engine must be one of "
                f"{', '.join(MARKET_ENGINES)}, got {self.engine!r}"
            )

    def config(self):
        """The stage configuration as the market layer's own dataclass."""
        from repro.market.model import MarketConfig

        return MarketConfig(
            slices=self.slices,
            coupling_kwh=self.coupling_kwh,
            engine=self.engine,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "slices": self.slices,
            "coupling_kwh": self.coupling_kwh,
            "engine": self.engine,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MarketSpec":
        allowed = tuple(f.name for f in fields(cls))
        _require_keys(data, allowed, "pipeline.schedule.market")
        kwargs: dict[str, Any] = {}
        if "slices" in data:
            kwargs["slices"] = _require_type(
                data["slices"], (int,), "pipeline.schedule.market.slices"
            )
        if "coupling_kwh" in data:
            kwargs["coupling_kwh"] = float(
                _require_type(
                    data["coupling_kwh"],
                    (int, float),
                    "pipeline.schedule.market.coupling_kwh",
                )
            )
        if "engine" in data:
            kwargs["engine"] = _require_type(
                data["engine"], (str,), "pipeline.schedule.market.engine"
            )
        return cls(**kwargs)


@dataclass(frozen=True, slots=True)
class RobustSpec:
    """The declarative uncertainty-aware mode of the schedule stage.

    Mirrors :class:`repro.scheduling.robust.RobustConfig`: placements are
    scored against a quantile scenario fan instead of the point target
    alone.  ``quantiles`` are the fan's levels (strictly increasing, in
    ``(0, 1)``), ``risk`` aggregates the per-scenario gains
    (``"expected"`` weights them by level mass, ``"cvar"`` plans for the
    worst ``alpha`` tail), and ``sigma`` is the relative spread of the
    fan the service synthesises around the target when no explicit
    forecast fan is supplied.  Plain (non-zoned) targets only.
    """

    quantiles: tuple[float, ...] = (0.1, 0.5, 0.9)
    risk: str = "expected"
    alpha: float = 0.3
    sigma: float = 0.25

    def __post_init__(self) -> None:
        if not isinstance(self.quantiles, tuple):
            object.__setattr__(self, "quantiles", tuple(self.quantiles))
        if not self.quantiles:
            raise SpecError("schedule.robust.quantiles must be non-empty")
        for level in self.quantiles:
            if not 0.0 < level < 1.0:
                raise SpecError(
                    f"schedule.robust.quantiles must lie in (0, 1), got {level}"
                )
        if any(b <= a for a, b in zip(self.quantiles, self.quantiles[1:])):
            raise SpecError(
                "schedule.robust.quantiles must be strictly increasing, "
                f"got {self.quantiles}"
            )
        if self.risk not in ROBUST_RISKS:
            raise SpecError(
                f"schedule.robust.risk must be one of {', '.join(ROBUST_RISKS)}, "
                f"got {self.risk!r}"
            )
        if not 0.0 < self.alpha <= 1.0:
            raise SpecError(
                f"schedule.robust.alpha must be in (0, 1], got {self.alpha}"
            )
        if self.sigma < 0:
            raise SpecError(f"schedule.robust.sigma must be >= 0, got {self.sigma}")

    def config(self):
        """The mode configuration as the scheduling layer's own dataclass."""
        from repro.scheduling.robust import RobustConfig

        return RobustConfig(
            quantiles=self.quantiles,
            risk=self.risk,
            alpha=self.alpha,
            sigma=self.sigma,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "quantiles": list(self.quantiles),
            "risk": self.risk,
            "alpha": self.alpha,
            "sigma": self.sigma,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RobustSpec":
        allowed = tuple(f.name for f in fields(cls))
        _require_keys(data, allowed, "pipeline.schedule.robust")
        kwargs: dict[str, Any] = {}
        if "quantiles" in data:
            raw = _require_type(
                data["quantiles"], (list, tuple), "pipeline.schedule.robust.quantiles"
            )
            kwargs["quantiles"] = tuple(
                float(
                    _require_type(
                        q, (int, float), "pipeline.schedule.robust.quantiles[]"
                    )
                )
                for q in raw
            )
        if "risk" in data:
            kwargs["risk"] = _require_type(
                data["risk"], (str,), "pipeline.schedule.robust.risk"
            )
        for key in ("alpha", "sigma"):
            if key in data:
                kwargs[key] = float(
                    _require_type(
                        data[key], (int, float), f"pipeline.schedule.robust.{key}"
                    )
                )
        return cls(**kwargs)


@dataclass(frozen=True, slots=True)
class ZoneSpec:
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
    target_seed: int = 0
    target_kwh: float | None = None
    price_floor: float = 0.0
    price_cap: float = 0.0
    households: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SpecError("zone.name must be a non-empty string")
        _check_count(self.target_seed, f"zone {self.name!r}: target_seed")
        if self.target_kwh is not None and self.target_kwh <= 0:
            raise SpecError(f"zone {self.name!r}: target_kwh must be > 0 (or null)")
        if self.price_floor < 0 or self.price_cap < 0:
            raise SpecError(f"zone {self.name!r}: prices must be >= 0")
        if self.price_cap < self.price_floor:
            raise SpecError(
                f"zone {self.name!r}: price_cap below price_floor"
            )
        if not isinstance(self.households, tuple):
            object.__setattr__(self, "households", tuple(self.households))
        if len(set(self.households)) != len(self.households):
            raise SpecError(
                f"zone {self.name!r}: duplicate household(s) in households"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "target_seed": self.target_seed,
            "target_kwh": self.target_kwh,
            "price_floor": self.price_floor,
            "price_cap": self.price_cap,
            "households": list(self.households),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ZoneSpec":
        allowed = tuple(f.name for f in fields(cls))
        _require_keys(data, allowed, "pipeline.schedule.zone")
        if "name" not in data:
            raise SpecError("pipeline.schedule.zone: missing required key 'name'")
        kwargs: dict[str, Any] = {
            "name": _require_type(data["name"], (str,), "pipeline.schedule.zone.name")
        }
        if "target_seed" in data:
            kwargs["target_seed"] = _require_type(
                data["target_seed"], (int,), "pipeline.schedule.zone.target_seed"
            )
        if "target_kwh" in data and data["target_kwh"] is not None:
            kwargs["target_kwh"] = float(
                _require_type(
                    data["target_kwh"],
                    (int, float),
                    "pipeline.schedule.zone.target_kwh",
                )
            )
        for key in ("price_floor", "price_cap"):
            if key in data:
                kwargs[key] = float(
                    _require_type(
                        data[key], (int, float), f"pipeline.schedule.zone.{key}"
                    )
                )
        if "households" in data:
            raw = _require_type(
                data["households"], (list, tuple), "pipeline.schedule.zone.households"
            )
            kwargs["households"] = tuple(
                _require_type(h, (str,), "pipeline.schedule.zone.households[]")
                for h in raw
            )
        return cls(**kwargs)


@dataclass(frozen=True, slots=True)
class ScheduleSpec:
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
    fan — the service synthesises the fan from a quantile forecast of the
    target (plain targets only; the key is omitted when absent).  The
    remaining fields mirror :class:`repro.scheduling.greedy.ScheduleConfig`.
    """

    target: str = "wind"
    target_seed: int = 2
    target_kwh: float | None = None
    order: str = "least-flexible-first"
    engine: str = "vectorized"
    improve_iterations: int = 0
    improve_seed: int = 0
    zones: tuple[ZoneSpec, ...] = ()
    market: MarketSpec | None = None
    robust: RobustSpec | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.zones, tuple):
            object.__setattr__(self, "zones", tuple(self.zones))
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
                f"schedule.target must be one of {', '.join(SCHEDULE_TARGETS)}, "
                f"got {self.target!r}"
            )
        if self.order not in SCHEDULE_ORDERS:
            raise SpecError(
                f"schedule.order must be one of {', '.join(SCHEDULE_ORDERS)}, "
                f"got {self.order!r}"
            )
        if self.engine not in SCHEDULE_ENGINES:
            raise SpecError(
                f"schedule.engine must be one of {', '.join(SCHEDULE_ENGINES)}, "
                f"got {self.engine!r}"
            )
        if self.target_kwh is not None and self.target_kwh <= 0:
            raise SpecError("schedule.target_kwh must be > 0 (or null)")
        for key in ("target_seed", "improve_iterations", "improve_seed"):
            _check_count(getattr(self, key), f"schedule.{key}")
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

    def to_dict(self) -> dict[str, Any]:
        encoded: dict[str, Any] = {
            "target": self.target,
            "target_seed": self.target_seed,
            "target_kwh": self.target_kwh,
            "order": self.order,
            "engine": self.engine,
            "improve_iterations": self.improve_iterations,
            "improve_seed": self.improve_seed,
        }
        if self.zones:
            encoded["zones"] = [zone.to_dict() for zone in self.zones]
        if self.market is not None:
            encoded["market"] = self.market.to_dict()
        if self.robust is not None:
            encoded["robust"] = self.robust.to_dict()
        return encoded

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScheduleSpec":
        allowed = tuple(f.name for f in fields(cls))
        _require_keys(data, allowed, "pipeline.schedule")
        kwargs: dict[str, Any] = {}
        for key in ("target", "order", "engine"):
            if key in data:
                kwargs[key] = _require_type(
                    data[key], (str,), f"pipeline.schedule.{key}"
                )
        for key in ("target_seed", "improve_iterations", "improve_seed"):
            if key in data:
                kwargs[key] = _require_type(
                    data[key], (int,), f"pipeline.schedule.{key}"
                )
        if "target_kwh" in data and data["target_kwh"] is not None:
            kwargs["target_kwh"] = float(
                _require_type(
                    data["target_kwh"], (int, float), "pipeline.schedule.target_kwh"
                )
            )
        if "zones" in data:
            raw = _require_type(
                data["zones"], (list, tuple), "pipeline.schedule.zones"
            )
            kwargs["zones"] = tuple(ZoneSpec.from_dict(z) for z in raw)
        if "market" in data and data["market"] is not None:
            market = _require_type(
                data["market"], (Mapping,), "pipeline.schedule.market"
            )
            kwargs["market"] = MarketSpec.from_dict(market)
        if "robust" in data and data["robust"] is not None:
            robust = _require_type(
                data["robust"], (Mapping,), "pipeline.schedule.robust"
            )
            kwargs["robust"] = RobustSpec.from_dict(robust)
        return cls(**kwargs)


@dataclass(frozen=True, slots=True)
class SessionSpec:
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
    journal_snapshot_every: int | None = None

    def __post_init__(self) -> None:
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

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"commit_horizon_minutes": self.commit_horizon_minutes}
        if self.journal_snapshot_every is not None:
            data["journal_snapshot_every"] = self.journal_snapshot_every
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SessionSpec":
        allowed = tuple(f.name for f in fields(cls))
        _require_keys(data, allowed, "pipeline.session")
        kwargs: dict[str, Any] = {}
        for key in ("commit_horizon_minutes", "journal_snapshot_every"):
            if key in data and data[key] is not None:
                kwargs[key] = _require_type(
                    data[key], (int,), f"pipeline.session.{key}"
                )
        return cls(**kwargs)


@dataclass(frozen=True, slots=True)
class PipelineSpec:
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
    schedule: ScheduleSpec | None = None
    session: SessionSpec | None = None

    def __post_init__(self) -> None:
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

    def to_dict(self) -> dict[str, Any]:
        encoded: dict[str, Any] = {
            "chunk_size": self.chunk_size,
            "workers": self.workers,
            "start_tolerance_minutes": self.start_tolerance_minutes,
            "flexibility_tolerance_minutes": self.flexibility_tolerance_minutes,
            "max_group_size": self.max_group_size,
        }
        if self.schedule is not None:
            encoded["schedule"] = self.schedule.to_dict()
        if self.session is not None:
            encoded["session"] = self.session.to_dict()
        return encoded

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PipelineSpec":
        allowed = tuple(f.name for f in fields(cls))
        _require_keys(data, allowed, "pipeline")
        kwargs: dict[str, Any] = {}
        for key in allowed:
            if key not in data:
                continue
            value = data[key]
            if key == "schedule":
                kwargs[key] = None if value is None else ScheduleSpec.from_dict(value)
            elif key == "session":
                kwargs[key] = None if value is None else SessionSpec.from_dict(value)
            elif key == "workers" and value is None:
                kwargs[key] = None
            else:
                kwargs[key] = _require_type(value, (int,), f"pipeline.{key}")
        return cls(**kwargs)


@dataclass(frozen=True, slots=True)
class RunSpec:
    """A complete, replayable simulate→extract→group→aggregate run."""

    kind: str = "fleet"
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    extractors: tuple[ExtractorSpec, ...] = (ExtractorSpec("frequency-based"),)
    pipeline: PipelineSpec = field(default_factory=PipelineSpec)
    name: str = ""
    version: int = SPEC_VERSION

    def __post_init__(self) -> None:
        if self.version != SPEC_VERSION:
            raise SpecError(
                f"unsupported run-spec version {self.version!r} "
                f"(this build reads version {SPEC_VERSION})"
            )
        if self.kind not in RUN_KINDS:
            raise SpecError(
                f"kind must be one of {', '.join(RUN_KINDS)}, got {self.kind!r}"
            )
        if not isinstance(self.extractors, tuple):
            object.__setattr__(self, "extractors", tuple(self.extractors))
        if not self.extractors:
            raise SpecError("a run spec needs at least one extractor")

    def with_overrides(self, **changes: Any) -> "RunSpec":
        """A copy with top-level fields replaced (CLI flag overrides)."""
        return replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "kind": self.kind,
            "name": self.name,
            "scenario": self.scenario.to_dict(),
            "extractors": [e.to_dict() for e in self.extractors],
            "pipeline": self.pipeline.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        _require_keys(
            data,
            ("version", "kind", "name", "scenario", "extractors", "pipeline"),
            "run spec",
        )
        kwargs: dict[str, Any] = {}
        if "version" in data:
            kwargs["version"] = _require_type(data["version"], (int,), "run spec.version")
        if "kind" in data:
            kwargs["kind"] = _require_type(data["kind"], (str,), "run spec.kind")
        if "name" in data:
            kwargs["name"] = _require_type(data["name"], (str,), "run spec.name")
        if "scenario" in data:
            kwargs["scenario"] = ScenarioSpec.from_dict(data["scenario"])
        if "extractors" in data:
            raw = _require_type(data["extractors"], (list, tuple), "run spec.extractors")
            kwargs["extractors"] = tuple(ExtractorSpec.from_dict(e) for e in raw)
        if "pipeline" in data:
            kwargs["pipeline"] = PipelineSpec.from_dict(data["pipeline"])
        return cls(**kwargs)

    # ------------------------------------------------------------------ #
    # JSON round-trip
    # ------------------------------------------------------------------ #

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"run spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def load_run_spec(path: str | Path) -> RunSpec:
    """Read a :class:`RunSpec` from a JSON file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecError(f"cannot read run spec {path}: {exc}") from exc
    return RunSpec.from_json(text)


def save_run_spec(spec: RunSpec, path: str | Path) -> None:
    """Write a :class:`RunSpec` to a JSON file."""
    Path(path).write_text(spec.to_json() + "\n")
