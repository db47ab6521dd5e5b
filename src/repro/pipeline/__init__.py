"""Fleet-scale batched pipeline engine (simulate → extract → aggregate).

The MIRABEL deployment unit is a *fleet* of metered households, not a
single series.  This subsystem runs the extraction stages as chunked
batches over whole fleets, with optional multiprocessing fan-out,
per-stage wall-clock capture, an optional market-facing schedule stage
(single-target or zone-sharded via
:class:`~repro.scheduling.zones.ZonedTarget`).  The ``fleet`` preset of
:mod:`repro.bench` guards the batched-equals-sequential contract and the
speedup baseline (``BENCH_fleet.json``).

Subsystem contract:

* **Batched ≡ sequential, exactly** — chunk sizes and worker counts never
  change results, offer ids included (:func:`results_identical`); ids are
  minted in per-household :func:`~repro.flexoffer.model.offer_id_scope`
  namespaces and offers are stamped with their household's consumer id.
* **Stage accounting** — every run captures per-stage wall clock
  (:data:`STAGES`); fan-outs additionally record coordinator wall time.
* **Equivalence oracle kept** — :func:`run_sequential` is the seed-shaped
  loop the engine must reproduce, exercised by the property tests, the
  benchmark and the conformance matrix on every run.
"""

from repro.pipeline.dispatch import dispatch_chunks
from repro.pipeline.fleet import (
    SEED_STRIDE,
    STAGES,
    FleetPipeline,
    FleetResult,
    HouseholdOutput,
    StageTimings,
    canonical_offer,
    extract_households,
    fleet_schedule_target,
    fleet_zoned_target,
    offers_equivalent,
    results_identical,
    run_sequential,
    schedule_aggregates,
)

__all__ = [
    "dispatch_chunks",
    "SEED_STRIDE",
    "STAGES",
    "FleetPipeline",
    "FleetResult",
    "HouseholdOutput",
    "StageTimings",
    "canonical_offer",
    "extract_households",
    "fleet_schedule_target",
    "fleet_zoned_target",
    "offers_equivalent",
    "results_identical",
    "run_sequential",
    "schedule_aggregates",
]
