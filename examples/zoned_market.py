"""Zoned multi-market scheduling: one fleet, three zone markets.

Runs the shipped ``examples/specs/zones.json`` spec end to end — simulate
a fleet, extract flex-offers, aggregate them fleet-wide, then shard the
aggregates across three zone markets (explicit household assignment for
``north``/``south``, hash-shard fallback for the rest) and schedule every
zone independently on the default (vectorized) engine.  Finishes with the
library-level ``schedule_zones`` driver on pipeline output.

Usage::

    python examples/zoned_market.py
"""

from __future__ import annotations

from pathlib import Path

from repro.api import FlexibilityService, load_run_spec
from repro.pipeline import FleetPipeline, fleet_zoned_target
from repro.scheduling import ScheduleConfig, schedule_zones
from repro.simulation import generate_fleet

SPEC_PATH = Path(__file__).resolve().parent / "specs" / "zones.json"


def main() -> None:
    # 1. The declarative route: one spec file, one service call.
    spec = load_run_spec(SPEC_PATH)
    print(
        f"spec {spec.name!r}: {spec.scenario.households} households x "
        f"{spec.scenario.days} days, "
        f"{len(spec.pipeline.schedule.zones)} market zones"
    )
    report = FlexibilityService().run(spec)
    for result in report.results:
        schedule = result.schedule
        print(
            f"\n[{result.extractor}] {len(result.offers)} offers -> "
            f"{len(result.aggregates)} aggregates -> "
            f"{int(result.summary['schedule_placed'])} placed across "
            f"{int(result.summary['schedule_zones'])} zones "
            f"(market value {result.summary['schedule_value_eur']:.2f} EUR)"
        )
        for row in schedule.zone_rows():
            print(
                f"  zone {row['zone']:>7s}: {row['placed']:>3} placed, "
                f"target {row['target_kwh']:7.2f} kWh, scheduled "
                f"{row['scheduled_kwh']:6.2f} kWh, improvement "
                f"{row['improvement']:>6s}, value {row['value_eur']:.2f} EUR"
            )

    # 2. The written report (spec + placements + zone structure) is a
    #    lossless JSON artefact — same wire format `repro run --out` writes.
    text = report.to_json()
    print(f"\nreport round-trips through JSON ({len(text)} bytes)")

    # 3. The library route: the same sharding directly on pipeline output.
    fleet = generate_fleet(5, spec.scenario.start, spec.scenario.days, seed=42)
    aggregates = FleetPipeline(chunk_size=4).run(fleet).aggregates
    zoned = fleet_zoned_target(fleet, zones=3)
    zoned_schedule = schedule_zones(aggregates, zoned, ScheduleConfig())
    print(
        f"schedule_zones over {len(aggregates)} aggregates: "
        f"{len(zoned_schedule.schedules)} placed in {len(zoned.zones)} zones, "
        f"cost {zoned_schedule.cost:.2f}"
    )

if __name__ == "__main__":
    main()
