"""One façade over every entry point: ``FlexibilityService.run(spec)``.

The CLI, notebooks and future network services all drive the system the
same way: build (or load) a :class:`~repro.api.spec.RunSpec`, hand it to
:class:`FlexibilityService`, get a :class:`RunReport` back.  The service
routes by spec kind:

``fleet``
    One :class:`~repro.pipeline.FleetPipeline` run per extractor spec over
    the simulated scenario fleet — offers, fleet-wide aggregates and
    per-stage timings per approach.
``compare``
    The evaluation harness (:func:`repro.evaluation.comparison
    .compare_on_traces`): every approach on every household, scored
    against simulation ground truth.

Benchmarks are not a run kind: ``repro bench --suite fleet`` runs the
fleet benchmark.

:class:`RunReport` serialises through the extended :mod:`repro.flexoffer.io`
wire format (offers + aggregates + stage timings + summaries) and
round-trips losslessly through JSON, so a run's complete output can be
stored next to the spec that produced it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Any

from repro.aggregation.aggregate import AggregatedFlexOffer
from repro.api.registry import get_entry
from repro.api.spec import RunSpec, load_run_spec
from repro.errors import RegistryError
from repro.flexoffer.model import FlexOffer
from repro.scheduling.greedy import ScheduleResult
from repro.scheduling.zones import ZonedScheduleResult
from repro.wire import OMIT, Encodable, Version, wire_format

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.extraction.base import ExtractionResult
    from repro.scheduling.zones import ZonedTarget
    from repro.timeseries.series import TimeSeries

#: Wire-format version of run reports; bump on incompatible change.
REPORT_VERSION = 1


def _frozen(mapping: Mapping[str, Any]) -> Mapping[str, Any]:
    return MappingProxyType(dict(mapping))


@wire_format("extractor run report")
@dataclass(frozen=True)
class ExtractorRunReport(Encodable):
    """One approach's share of a run: offers, aggregates, timings, summary.

    ``schedule`` carries the schedule-stage output when the run placed the
    fleet aggregates against a target — zone-sharded runs carry a
    :class:`~repro.scheduling.zones.ZonedScheduleResult` (its wire
    encoding is discriminated by a ``"zones"`` key); the wire format omits
    the key entirely when absent, so pre-schedule reports keep loading
    unchanged.
    """

    extractor: str
    households: int
    offers: tuple[FlexOffer, ...] = ()
    aggregates: tuple[AggregatedFlexOffer, ...] = ()
    stage_seconds: Mapping[str, float] = field(default_factory=dict)
    summary: Mapping[str, Any] = field(default_factory=dict)
    schedule: ScheduleResult | ZonedScheduleResult | None = field(
        default=None, metadata=OMIT
    )

    def __post_init__(self) -> None:
        if self.households < 0:
            raise ValueError(f"'households' is negative ({self.households})")
        object.__setattr__(self, "offers", tuple(self.offers))
        object.__setattr__(self, "aggregates", tuple(self.aggregates))
        object.__setattr__(self, "stage_seconds", _frozen(self.stage_seconds))
        object.__setattr__(self, "summary", _frozen(self.summary))


@wire_format("run report", version=Version(REPORT_VERSION, "run-report format"))
@dataclass(frozen=True)
class RunReport(Encodable):
    """Everything a :class:`FlexibilityService` run produced, serialisable."""

    spec: RunSpec
    results: tuple[ExtractorRunReport, ...]
    extras: Mapping[str, Any] = field(default_factory=dict)
    version: int = REPORT_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(self, "results", tuple(self.results))
        object.__setattr__(self, "extras", _frozen(self.extras))

    def get(self, extractor: str) -> ExtractorRunReport:
        """The report of one approach, by registry name."""
        for result in self.results:
            if result.extractor == extractor:
                return result
        known = ", ".join(r.extractor for r in self.results)
        raise KeyError(f"no result for {extractor!r} (have: {known})")

    @property
    def total_offers(self) -> int:
        return sum(len(r.offers) for r in self.results)

    def table_rows(self) -> list[dict[str, Any]]:
        """One human-readable row per approach (CLI output)."""
        rows: list[dict[str, Any]] = []
        for result in self.results:
            row: dict[str, Any] = {"extractor": result.extractor}
            for key, value in result.summary.items():
                row[key] = round(value, 4) if isinstance(value, float) else value
            if result.stage_seconds:
                row["seconds"] = round(sum(result.stage_seconds.values()), 4)
            rows.append(row)
        return rows


class FlexibilityService:
    """The single programmatic entry point for spec-driven runs.

    Stateless by design (every run is fully described by its spec), so one
    service instance can serve many concurrent callers; it is also the
    natural seam for future network transports (REST/queue workers call
    ``run`` with deserialised specs).
    """

    def run(self, spec: RunSpec) -> RunReport:
        """Execute a run spec end to end and return its report."""
        if spec.kind == "fleet":
            return self._run_fleet(spec)
        return self._run_compare(spec)

    def run_file(self, path: str | Path) -> RunReport:
        """Load a spec JSON file and execute it."""
        return self.run(load_run_spec(path))

    # ------------------------------------------------------------------ #
    # Kind routers (heavy imports stay lazy so `import repro.api` is cheap
    # and the registry decorators never see a half-initialised package)
    # ------------------------------------------------------------------ #

    def _simulate(self, spec: RunSpec):
        from repro.simulation.dataset import generate_fleet

        scenario = spec.scenario
        return generate_fleet(
            scenario.households, scenario.start, scenario.days, seed=scenario.seed
        )

    @staticmethod
    def _uncertainty_summary(schedule: "ScheduleResult", robust_spec) -> dict[str, Any]:
        """Per-quantile realized costs of the robust schedule (run summary).

        Scores the placed schedule with
        :func:`repro.scheduling.robust.evaluate_realized` against every
        scenario of the fan it was placed against: the deterministic
        :func:`~repro.scheduling.robust.synthetic_fan` around its target.
        The low/median/high rows bound the schedule's imbalance across
        that band.
        """
        from repro.scheduling.robust import evaluate_realized, synthetic_fan

        scenarios = synthetic_fan(schedule.target, robust_spec.config())
        costs = [
            evaluate_realized(schedule, scenario).realized_cost
            for scenario in scenarios
        ]
        return {
            "robust_risk": robust_spec.risk,
            "robust_scenarios": float(len(scenarios)),
            "realized_cost_low_q": costs[0],
            "realized_cost_median_q": costs[len(costs) // 2],
            "realized_cost_high_q": costs[-1],
        }

    def _run_fleet(self, spec: RunSpec) -> RunReport:
        from repro.pipeline.fleet import FleetPipeline

        # The target comes first: it needs only the scenario axis and draws
        # from its own generator, so a target the schedule stage would
        # refuse fails before any household is simulated.
        schedule_spec = spec.pipeline.schedule
        target = build_schedule_target(spec)
        if target is not None:
            _check_placeable(target, schedule_spec)
        fleet = self._simulate(spec)
        results = []
        for extractor_spec in spec.extractors:
            pipeline = FleetPipeline(
                extractor=extractor_spec.create(),
                grouping=spec.pipeline.grouping_params(),
                chunk_size=spec.pipeline.chunk_size,
                workers=spec.pipeline.workers,
                seed=spec.scenario.seed,
                schedule=None if schedule_spec is None else schedule_spec.config(),
            )
            fleet_result = pipeline.run(fleet, target=target)
            summary = {
                "offers": float(len(fleet_result.offers)),
                "aggregates": float(len(fleet_result.aggregates)),
                "extracted_kwh": fleet_result.total_extracted_kwh,
            }
            if fleet_result.schedule is not None:
                summary.update(fleet_result.schedule.summary())
                if schedule_spec.robust is not None:
                    summary.update(
                        self._uncertainty_summary(
                            fleet_result.schedule, schedule_spec.robust
                        )
                    )
            results.append(
                ExtractorRunReport(
                    extractor=extractor_spec.name,
                    households=spec.scenario.households,
                    offers=tuple(fleet_result.offers),
                    aggregates=fleet_result.aggregates,
                    stage_seconds=fleet_result.timings.seconds,
                    summary=summary,
                    schedule=fleet_result.schedule,
                )
            )
        return RunReport(spec=spec, results=tuple(results))

    def _run_compare(self, spec: RunSpec) -> RunReport:
        from repro.evaluation.comparison import compare_on_traces

        fleet = self._simulate(spec)
        extractors = [e.create() for e in spec.extractors]
        comparison = compare_on_traces(
            fleet.traces, extractors, seed=spec.scenario.seed
        )
        rows = {row["extractor"]: row for row in comparison.mean_rows()}
        results = tuple(
            ExtractorRunReport(
                extractor=extractor_spec.name,
                households=spec.scenario.households,
                summary={
                    k: v for k, v in rows[extractor.name].items() if k != "extractor"
                },
            )
            for extractor_spec, extractor in zip(spec.extractors, extractors)
        )
        return RunReport(spec=spec, results=results)

    # ------------------------------------------------------------------ #
    # Single-series extraction (the `repro extract` backend)
    # ------------------------------------------------------------------ #

    def extract(
        self,
        approach: str,
        series: "TimeSeries",
        *,
        seed: int = 0,
        **params: Any,
    ) -> "ExtractionResult":
        """Run one registered approach on one series, grid-validated.

        Raises :class:`~repro.errors.RegistryError` before extraction when
        the series resolution does not meet the approach's declared input
        grid (e.g. appliance-level approaches hard-require 1-minute data).
        """
        import numpy as np

        self.validate_input_grid(approach, series)
        from repro.api.registry import create_extractor

        extractor = create_extractor(approach, **params)
        return extractor.extract(series, np.random.default_rng(seed))

    @staticmethod
    def validate_input_grid(approach: str, series: "TimeSeries") -> None:
        """Check a series' resolution against an approach's declared grid."""
        from repro.timeseries.axis import FIFTEEN_MINUTES, ONE_MINUTE

        entry = get_entry(approach)
        if not entry.strict_grid:
            return
        required = ONE_MINUTE if entry.input == "total" else FIFTEEN_MINUTES
        if series.axis.resolution != required:
            have = series.axis.resolution
            raise RegistryError(
                f"approach {approach!r} requires input on the "
                f"{int(required.total_seconds() // 60)}-minute grid, got "
                f"{have} resolution; resample the series or use "
                f"`repro simulate --grid total` for 1-minute data"
            )


def build_schedule_target(spec: RunSpec) -> "TimeSeries | ZonedTarget | None":
    """Synthesise a spec's schedule-stage target.

    A spec with zones yields a :class:`~repro.scheduling.zones.ZonedTarget`
    — one deterministic series per zone (the zone's own
    ``target_seed``/``target_kwh``) plus the explicit household→zone
    assignment; otherwise one plain target series.  Returns ``None`` when
    the spec has no schedule stage.  Service runs and the session replay
    driver (``repro session --replay``) both build their target here, so
    a replay places against the *same* target a one-shot run would, or
    its equivalence oracle would mean nothing.
    """
    schedule = spec.pipeline.schedule
    if schedule is None:
        return None
    if not schedule.zones:
        return _synthesise_series(spec, schedule.target_seed, schedule.target_kwh)
    from repro.scheduling.zones import MarketZone, ZonedTarget

    zones = tuple(
        MarketZone(
            name=zone.name,
            target=_synthesise_series(
                spec, zone.target_seed, zone.target_kwh, f"{zone.name}-target"
            ),
            price_floor=zone.price_floor,
            price_cap=zone.price_cap,
        )
        for zone in schedule.zones
    )
    assignment = {
        household: zone.name for zone in schedule.zones for household in zone.households
    }
    return ZonedTarget(zones=zones, assignment=assignment)


def _synthesise_series(
    spec: RunSpec, seed: int, target_kwh: float | None, name: str | None = None
) -> "TimeSeries":
    # ``name=None`` keeps the series' own name (the wind simulator's /
    # "flat-target"), preserving pre-zone report content byte for byte.
    import numpy as np

    from repro.simulation.res import simulate_wind_production
    from repro.timeseries.axis import axis_for_days
    from repro.timeseries.series import TimeSeries

    axis = axis_for_days(spec.scenario.start, spec.scenario.days)
    if spec.pipeline.schedule.target == "wind":
        series = simulate_wind_production(axis, np.random.default_rng(seed))
        if name is not None:
            series = series.with_name(name)
    else:
        series = TimeSeries.full(axis, 1.0, name=name or "flat-target")
    if target_kwh is not None and series.total() > 0:
        series = series * (target_kwh / series.total())
    return series


def _check_placeable(target: "TimeSeries | ZonedTarget", schedule_spec) -> None:
    """Refuse a target the schedule stage would refuse, by the scheduler's
    own rule (:func:`~repro.scheduling.greedy.placement_rows`): each
    zone's target, or the plain target with a robust stage's synthetic fan."""
    from repro.scheduling.greedy import placement_rows

    if schedule_spec.zones:
        for zone in target.zones:
            placement_rows(zone.target)
    else:
        placement_rows(target, schedule_spec.config().robust)
