"""Ablation: peak-detection threshold and peak-selection policy.

DESIGN.md §5: the paper picks the daily *mean* as the detection threshold
and *size-proportional sampling* for selection without justification.  This
bench quantifies both choices against alternatives on a simulated fleet,
scoring each variant by how much of the extracted energy lands on true
consumption peaks and how it overlaps ground-truth flexibility.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExtractionError
from repro.evaluation.groundtruth import energy_overlap
from repro.evaluation.realism import offers_to_expected_series, peak_energy_fraction
from repro.extraction.params import FlexOfferParams
from repro.extraction.peaks import detect_peaks, filter_peaks, selection_probabilities
from repro.workloads.paper_day import figure5_day

THRESHOLDS = {
    "mean (paper)": lambda v: float(v.mean()),
    "median": lambda v: float(np.median(v)),
    "mean+0.5*std": lambda v: float(v.mean() + 0.5 * v.std()),
    "75th percentile": lambda v: float(np.quantile(v, 0.75)),
}


def test_threshold_ablation_on_paper_day(benchmark, report):
    day = figure5_day()

    def detect_all():
        return {
            name: detect_peaks(day.series.values, threshold=fn(day.series.values))
            for name, fn in THRESHOLDS.items()
        }

    results = benchmark(detect_all)
    rows = []
    for name, peaks in results.items():
        survivors = filter_peaks(peaks, 1.951)
        rows.append(
            {
                "threshold": name,
                "peaks_found": len(peaks),
                "survivors": len(survivors),
                "largest_size": round(max((p.size for p in peaks), default=0.0), 2),
            }
        )
    report("Ablation — detection threshold on the Figure 5 day", rows)
    # The paper's configuration reproduces the printed 8 peaks / 2 survivors.
    assert len(results["mean (paper)"]) == 8
    assert len(filter_peaks(results["mean (paper)"], 1.951)) == 2
    # Stricter thresholds find fewer peaks.
    assert len(results["mean+0.5*std"]) <= len(results["mean (paper)"])


def test_selection_policy_ablation(benchmark, report, bench_fleet):
    """Size-sampled vs argmax vs uniform selection, scored on ground truth."""
    params = FlexOfferParams(flexible_share=0.05)
    traces = bench_fleet.traces[:8]

    def run_policy(policy: str, seed: int = 1):
        overlaps = []
        peak_fracs = []
        for trace in traces:
            series = trace.metered()
            rng = np.random.default_rng(seed)
            modified = series.values.copy()
            offers = []
            for first, length in series.axis.day_slices():
                window = modified[first : first + length]
                day_energy = float(window.sum())
                flexible = 0.05 * day_energy
                candidates = filter_peaks(detect_peaks(window), flexible)
                if not candidates:
                    continue
                if policy == "size-sampled (paper)":
                    probs = selection_probabilities(candidates)
                    chosen = candidates[int(rng.choice(len(candidates), p=probs))]
                elif policy == "argmax":
                    chosen = max(candidates, key=lambda p: p.size)
                else:  # uniform
                    chosen = candidates[int(rng.integers(0, len(candidates)))]
                n = min(params.slices_max, chosen.length)
                block = window[chosen.first : chosen.first + n]
                block_energy = float(block.sum())
                if block_energy <= 0:
                    continue
                energies = np.minimum(block / block_energy * flexible, block)
                offer = params.build_offer(
                    series.axis.time_at(first + chosen.first), energies, rng,
                    source=policy, resolution=series.axis.resolution,
                )
                offers.append(offer)
                window[chosen.first : chosen.first + n] -= energies
            expected = offers_to_expected_series(offers, series.axis)
            overlaps.append(energy_overlap(expected, trace.true_flexible()).f1)
            peak_fracs.append(peak_energy_fraction(expected, series))
        return float(np.mean(overlaps)), float(np.mean(peak_fracs))

    def run_all():
        return {
            policy: run_policy(policy)
            for policy in ("size-sampled (paper)", "argmax", "uniform")
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        {"selection": policy, "gt_overlap_f1": round(f1, 3), "peak_fraction": round(pf, 3)}
        for policy, (f1, pf) in results.items()
    ]
    report("Ablation — peak selection policy (8 households, 7 days)", rows)
    # All policies place energy overwhelmingly on peaks; the paper's
    # size-sampling is within noise of argmax and beats nothing badly.
    for _policy, (f1, peak_frac) in results.items():
        assert peak_frac > 0.8
    paper_f1 = results["size-sampled (paper)"][0]
    assert paper_f1 > 0.5 * results["argmax"][0]
