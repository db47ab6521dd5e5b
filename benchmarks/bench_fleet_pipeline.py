"""Fleet-pipeline benchmark: batched engine vs the sequential loop (§6 scale).

"Individual flex-offers have to be aggregated from thousands consumers
before the actual scheduling" — the batched :class:`FleetPipeline` is the
throughput answer.  This bench runs the canonical 20-household × 7-day
workload (the ``fleet`` preset of :mod:`repro.bench`), asserts every
equivalence check (batched identical to the per-household sequential
path, reference offers within ``FIDELITY_RTOL``), requires the preset's
wall-clock speedup gate over the seed-shaped reference loop, and
refreshes the repository's ``BENCH_fleet.json`` baseline.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench import PRESETS, equivalence_failures, run_preset

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_fleet.json"


def test_fleet_pipeline_speedup_and_equivalence(report):
    preset = PRESETS["fleet"]
    bench_report, result = run_preset("fleet", out_path=BENCH_JSON)
    report(
        "Fleet pipeline — 20 households x 7 days, per-stage wall clock",
        preset.rows(bench_report, result),
    )
    report(
        "Fleet pipeline — summary",
        [
            {
                "offers": bench_report["pipeline"]["offers"],
                "aggregates": bench_report["pipeline"]["aggregates"],
                "extracted_kwh": bench_report["pipeline"]["extracted_kwh"],
                "speedup": f"{bench_report['speedup']}x",
                "baseline_s": bench_report["baseline"]["wall_seconds"],
                "pipeline_s": bench_report["pipeline"]["wall_seconds"],
            }
        ],
    )

    # Batching must never change results (bitwise identical offers), and
    # the reference engines must agree within the fidelity tolerance.
    assert equivalence_failures(bench_report) == []
    # The batched path must beat the seed-shaped sequential loop.
    assert preset.gate_failures(bench_report) == []
    assert BENCH_JSON.exists()


def test_fleet_pipeline_worker_fanout_equivalent(report):
    # Chunking and worker fan-out are pure execution detail: a 2-worker run
    # on a small fleet must reproduce the inline result exactly.
    from datetime import datetime

    from repro.api import create_extractor
    from repro.pipeline import FleetPipeline, offers_equivalent, run_sequential
    from repro.simulation.dataset import generate_fleet

    fleet = generate_fleet(4, datetime(2012, 3, 5), 2, seed=3)
    extractor = create_extractor("peak-based", flexible_share=0.05)
    fanned = FleetPipeline(extractor, chunk_size=1, workers=2).run(fleet)
    sequential = run_sequential(fleet, extractor)
    assert offers_equivalent(fanned.offers, sequential.offers)
    # Workers mint ids in pid-disjoint namespaces: no collisions.
    ids = [offer.offer_id for offer in fanned.offers]
    assert len(set(ids)) == len(ids)
    report(
        "Fleet pipeline — worker fan-out determinism",
        [
            {
                "workers": 2,
                "chunks": 4,
                "offers": len(fanned.offers),
                "identical_to_sequential": True,
            }
        ],
    )
