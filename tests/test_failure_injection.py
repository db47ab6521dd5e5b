"""Failure injection: extractors and substrates on degenerate inputs.

Production meter data contains dead meters (all zeros), outages, spikes and
resets; these tests pin down the library's behaviour on such inputs: no
crashes, no silent nonsense — either empty results or explicit errors.
"""

from __future__ import annotations

import json
import re
from datetime import datetime

import numpy as np
import pytest

from repro.api.registry import create_extractor
from repro.api.service import FlexibilityService
from repro.pipeline.fleet import FleetPipeline
from repro.disaggregation.baseline import remove_baseline
from repro.disaggregation.matching import match_pursuit
from repro.appliances.database import default_database
from repro.errors import DataError, RegistryError
from repro.extraction import (
    BasicExtractor,
    FlexOfferParams,
    PeakBasedExtractor,
    RandomBaselineExtractor,
)
from repro.extraction.multitariff import MultiTariffExtractor
from repro.simulation.tariff import night_tariff
from repro.timeseries.axis import ONE_MINUTE, TimeAxis, axis_for_days
from repro.timeseries.series import TimeSeries
from repro.workloads.scenarios import small_fleet

START = datetime(2012, 3, 5)
PARAMS = FlexOfferParams(flexible_share=0.05)


class TestDeadMeter:
    """All-zero consumption: extraction must return cleanly empty results."""

    @pytest.fixture()
    def dead_series(self):
        return TimeSeries.zeros(axis_for_days(START, 2))

    def test_basic_on_zeros(self, dead_series, rng):
        result = BasicExtractor(params=PARAMS).extract(dead_series, rng)
        assert result.offers == []
        assert result.modified == dead_series

    def test_peak_based_on_zeros(self, dead_series, rng):
        result = PeakBasedExtractor(params=PARAMS).extract(dead_series, rng)
        assert result.offers == []

    def test_random_baseline_on_zeros(self, dead_series, rng):
        # The random baseline is input-blind by design: it still generates.
        result = RandomBaselineExtractor().extract(dead_series, rng)
        assert result.offers

    def test_matching_on_zeros(self):
        axis = TimeAxis(START, ONE_MINUTE, 24 * 60)
        result = match_pursuit(TimeSeries.zeros(axis), default_database())
        assert result.detections == []
        assert result.residual.total() == 0.0

    def test_baseline_removal_on_zeros(self):
        axis = TimeAxis(START, ONE_MINUTE, 24 * 60)
        appliance, base = remove_baseline(TimeSeries.zeros(axis))
        assert appliance.total() == 0.0
        assert base.total() == 0.0


class TestConstantLoad:
    """A perfectly flat load has no peaks and no shape information."""

    def test_peak_based_flat(self, rng):
        series = TimeSeries.full(axis_for_days(START, 1), 0.4)
        result = PeakBasedExtractor(params=PARAMS).extract(series, rng)
        assert result.offers == []

    def test_basic_flat_still_extracts_share(self, rng):
        series = TimeSeries.full(axis_for_days(START, 1), 0.4)
        result = BasicExtractor(params=PARAMS).extract(series, rng)
        assert result.extracted_share == pytest.approx(0.05, rel=0.01)


class TestMultiTariffDegenerate:
    def test_identical_series_yields_near_nothing(self, rng, fleet):
        reference = fleet.traces[0].metered()
        extractor = MultiTariffExtractor(reference=reference, scheme=night_tariff())
        result = extractor.extract(reference, rng)
        # Self-comparison: only day-to-day variation can be misread as a
        # shift; must be a small fraction of total consumption.
        assert result.extracted_energy < 0.05 * reference.total()

    def test_flat_reference_flat_observed(self, rng):
        flat = TimeSeries.full(axis_for_days(START, 7), 0.3)
        extractor = MultiTariffExtractor(reference=flat, scheme=night_tariff())
        result = extractor.extract(flat, rng)
        assert result.offers == []


class TestRegistryFailureInjection:
    """Registry-constructed extractors on bad params and bad inputs.

    The registry is the construction surface for every string-driven
    caller (CLI, run specs, conformance matrix); its error messages are
    operator-facing contract and are pinned verbatim.
    """

    def test_unknown_approach_suggests_and_lists(self):
        with pytest.raises(
            RegistryError,
            match=re.escape(
                "unknown extractor 'frequenzy-based' "
                "(did you mean 'frequency-based'?); available: "
            ),
        ):
            create_extractor("frequenzy-based")

    def test_unknown_parameter_names_accepted_set(self):
        with pytest.raises(
            RegistryError,
            match=re.escape(
                "extractor 'peak-based' has no parameter 'bogus'; accepted: "
            ),
        ):
            create_extractor("peak-based", bogus=1)

    def test_missing_required_parameter(self):
        with pytest.raises(
            RegistryError,
            match=re.escape(
                "extractor 'multi-tariff' requires parameter(s) 'reference' "
                "(e.g. the multi-tariff approach needs a one-tariff "
                "reference series of the same consumer)"
            ),
        ):
            create_extractor("multi-tariff")

    def test_bad_value_routed_into_nested_config(self):
        with pytest.raises(
            RegistryError,
            match=re.escape(
                "extractor 'basic': flexible_share must be in (0, 1], got -2.0"
            ),
        ):
            create_extractor("basic", flexible_share=-2.0)

    def test_bad_engine_through_registry(self):
        with pytest.raises(
            RegistryError,
            match=re.escape(
                "extractor 'frequency-based': engine must be one of "
                "('vectorized', 'reference'), got 'turbo'"
            ),
        ):
            create_extractor("frequency-based", engine="turbo")

    def test_wrong_input_grid_rejected_before_extraction(self, fleet):
        metered = fleet.traces[0].metered()  # 15-minute grid
        with pytest.raises(
            RegistryError,
            match=re.escape(
                "approach 'frequency-based' requires input on the "
                "1-minute grid, got 0:15:00 resolution"
            ),
        ):
            FlexibilityService().extract("frequency-based", metered)

    def test_nan_laden_series_rejected_at_the_door(self):
        # NaN never reaches an extractor: the series type refuses to hold it
        # (gap channels are explicit masks, see timeseries.clean).
        axis = axis_for_days(START, 1)
        values = np.full(axis.length, 0.3)
        values[10] = np.nan
        with pytest.raises(DataError, match=re.escape("values contain NaN")):
            TimeSeries(axis, values)

    def test_registry_extractors_survive_dead_meters(self, rng):
        dead = TimeSeries.zeros(axis_for_days(START, 2))
        for name in ("basic", "peak-based"):
            result = create_extractor(name, flexible_share=0.05).extract(dead, rng)
            assert result.offers == []
            assert result.energy_conservation_error() < 1e-9


class _ExplodingExtractor:
    """An extractor that fails on every household.

    Module-level so the worker pool can pickle it; used to drive the fleet
    fan-out's failure paths.
    """

    def extract(self, series, rng):
        raise RuntimeError("injected chunk failure")


class TestWorkerPoolTeardown:
    """A raising chunk must surface its error and release the pool.

    Whatever a worker does — including blowing up mid-chunk — the run must
    raise the chunk's own error, in process and fanned out alike.
    """

    def test_fanout_surfaces_chunk_failure(self, fleet):
        pipeline = FleetPipeline(
            extractor=_ExplodingExtractor(), workers=2, chunk_size=2
        )
        with pytest.raises(RuntimeError, match="injected chunk failure"):
            pipeline.run(fleet)

    def test_mixed_axis_fanout_surfaces_failure(self, fleet):
        # Chunks whose series sit on two axes travel the same way.
        mixed = [*fleet, *small_fleet(n=2, days=2, seed=6)]
        pipeline = FleetPipeline(
            extractor=_ExplodingExtractor(), workers=2, chunk_size=2
        )
        with pytest.raises(RuntimeError, match="injected chunk failure"):
            pipeline.run(mixed)

    def test_in_process_surfaces_chunk_failure(self, fleet):
        pipeline = FleetPipeline(extractor=_ExplodingExtractor(), workers=1)
        with pytest.raises(RuntimeError, match="injected chunk failure"):
            pipeline.run(fleet)


class TestFaultHarnessWorkerDeath:
    """Real process-pool workers killed by the fault harness.

    The dispatch layer's contract: a worker death (``os._exit`` mid-chunk,
    the shape of an OOM kill) is recovered — by a rebuilt pool when the
    fault was transient, by in-process degradation when it is persistent —
    and the results are bitwise the no-fault run's either way.
    """

    def test_transient_fleet_worker_crash_retries_to_identical_results(
        self, fleet, tmp_path
    ):
        import warnings

        from repro.pipeline.fleet import results_identical, run_sequential
        from repro.testing import faults

        sequential = run_sequential(fleet, seed=0)
        pipeline = FleetPipeline(workers=2, chunk_size=2, seed=0)
        with faults.inject_faults(
            faults.FaultSpec("fleet-chunk", index=1), latch_dir=str(tmp_path)
        ):
            with warnings.catch_warnings():
                # One latched crash is absorbed by a retry: no degradation.
                warnings.simplefilter("error")
                result = pipeline.run(fleet)
        assert results_identical(result, sequential)
        # The latch proves the worker really died once.
        assert list(tmp_path.glob("fired-fleet-chunk-*"))

    def test_persistent_fleet_worker_crash_degrades_to_identical_results(
        self, fleet, monkeypatch
    ):
        from concurrent.futures import ProcessPoolExecutor

        from repro.errors import DegradedExecutionWarning
        from repro.pipeline import fleet as fleet_module
        from repro.pipeline.dispatch import MAX_ATTEMPTS
        from repro.pipeline.fleet import results_identical, run_sequential
        from repro.testing import faults

        built: list[int] = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(fleet_module, "ProcessPoolExecutor", CountingPool)
        sequential = run_sequential(fleet, seed=0)
        pipeline = FleetPipeline(workers=2, chunk_size=2, seed=0)
        # No latch directory: the crash fires on every delivery, so the
        # chunk's worker dies in every pool and it finishes in-process.
        with faults.inject_faults(faults.FaultSpec("fleet-chunk", index=0)):
            with pytest.warns(DegradedExecutionWarning, match="in-process"):
                result = pipeline.run(fleet)
        assert results_identical(result, sequential)
        assert len(built) == MAX_ATTEMPTS

    _CONFORMANCE_KWARGS = dict(
        scenarios=["seasonal-summer"],
        extractors=["basic", "peak-based"],
        invariants=["offer-validity"],
    )

    def test_transient_conformance_worker_crash_retries_to_identical_report(
        self, tmp_path
    ):
        import warnings

        from repro.conformance import run_conformance
        from repro.testing import faults

        in_process = run_conformance(**self._CONFORMANCE_KWARGS)
        with faults.inject_faults(
            faults.FaultSpec("conformance-cell", index=0), latch_dir=str(tmp_path)
        ):
            with warnings.catch_warnings():
                # One latched crash is absorbed by a rebuilt pool: no
                # degradation.
                warnings.simplefilter("error")
                report = run_conformance(**self._CONFORMANCE_KWARGS, workers=2)
        assert report == in_process
        assert (tmp_path / "fired-conformance-cell-0-crash").exists()

    def test_conformance_worker_crash_recovers_identical_report(self):
        from repro.conformance import run_conformance
        from repro.errors import DegradedExecutionWarning
        from repro.testing import faults

        in_process = run_conformance(**self._CONFORMANCE_KWARGS)
        with faults.inject_faults(faults.FaultSpec("conformance-cell", index=0)):
            with pytest.warns(DegradedExecutionWarning, match="in-process"):
                report = run_conformance(**self._CONFORMANCE_KWARGS, workers=2)
        assert report == in_process
        assert report.passed


class TestFaultPoints:
    """A plan naming a point no probe fires must not load: it would pass
    for a fault that never triggered."""

    @pytest.mark.parametrize(
        "spec",
        [
            {"point": "fleet-chunck"},
            {"point": "matching-tile"},
            {"point": "fleet-chunk", "mode": "enospc"},
            {"point": "fleet-chunk", "mode": "hang"},
        ],
        ids=["typo", "unfired-point", "unknown-mode", "hang-mode"],
    )
    def test_unknown_point_or_mode_rejected(self, spec):
        from repro.testing import faults

        with pytest.raises(DataError, match="unknown fault"):
            faults.FaultPlan.decode(json.dumps({"specs": [spec]}))

    def test_malformed_armed_plan_fails_at_the_probe(self, monkeypatch):
        from repro.testing import faults

        monkeypatch.setenv(
            faults.FAULTS_ENV_VAR, json.dumps({"specs": [{"point": "fleet-chunck"}]})
        )
        with pytest.raises(DataError, match="fleet-chunck"):
            faults.fire("fleet-chunk", 0)


class TestTinyHorizons:
    def test_single_interval_series(self, rng):
        axis = TimeAxis(START, axis_for_days(START, 1).resolution, 1)
        series = TimeSeries(axis, [0.5])
        result = BasicExtractor(params=PARAMS).extract(series, rng)
        # One interval: a 1-slice offer or nothing; never a crash.
        assert len(result.offers) <= 1
        result = PeakBasedExtractor(params=PARAMS).extract(series, rng)
        assert len(result.offers) <= 1

    def test_partial_day(self, rng):
        axis = TimeAxis(START, axis_for_days(START, 1).resolution, 10)
        series = TimeSeries(axis, np.linspace(0.1, 1.0, 10))
        result = PeakBasedExtractor(params=PARAMS).extract(series, rng)
        assert result.energy_conservation_error() < 1e-9
