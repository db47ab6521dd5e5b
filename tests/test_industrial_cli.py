"""Tests for the industrial-consumer extension and the CLI."""

from __future__ import annotations

import json
from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.errors import ValidationError
from repro.extraction import (
    FlexOfferParams,
    FrequencyBasedExtractor,
    PeakBasedExtractor,
)
from repro.simulation.industrial import (
    FactoryConfig,
    factory_base_load,
    industrial_catalogue,
    simulate_factory,
)
from repro.timeseries.axis import ONE_MINUTE, TimeAxis

START = datetime(2012, 3, 5)  # Monday


@pytest.fixture(scope="module")
def factory_trace():
    return simulate_factory(
        FactoryConfig(factory_id="plant-1"), START, 7, np.random.default_rng(0)
    )


class TestIndustrialCatalogue:
    def test_catalogue_contents(self):
        catalogue = industrial_catalogue()
        assert "batch-furnace" in catalogue
        assert catalogue.get("batch-furnace").flexible
        assert not catalogue.get("packaging-line").flexible

    def test_industrial_scale(self):
        catalogue = industrial_catalogue()
        for spec in catalogue:
            assert spec.energy_min_kwh >= 40.0  # orders beyond household scale

    def test_weekday_only_processes(self):
        from repro.timeseries.calendar import DayType

        furnace = industrial_catalogue().get("batch-furnace")
        assert furnace.frequency.expected_uses(DayType.SATURDAY) == 0.0
        assert furnace.frequency.expected_uses(DayType.WORKDAY) > 0.9


class TestFactorySimulation:
    def test_scale_dwarfs_households(self, factory_trace):
        daily_kwh = factory_trace.metered().total() / 7
        assert daily_kwh > 500  # households are ~10 kWh/day

    def test_shift_structure(self):
        config = FactoryConfig(factory_id="p", noise_std_kw=0.0)
        axis = TimeAxis(START, ONE_MINUTE, 7 * 24 * 60)
        base = factory_base_load(config, axis, np.random.default_rng(0))
        # Monday 10:00 carries shift load; Monday 03:00 only floor load.
        monday_10 = base.value_at(START + timedelta(hours=10)) * 60
        monday_03 = base.value_at(START + timedelta(hours=3)) * 60
        assert monday_10 == pytest.approx(100.0)
        assert monday_03 == pytest.approx(40.0)
        # Saturday 10:00: floor only (no weekend shift).
        saturday_10 = base.value_at(START + timedelta(days=5, hours=10)) * 60
        assert saturday_10 == pytest.approx(40.0)

    def test_trace_consistency(self, factory_trace):
        reconstructed = factory_trace.base_load.values.copy()
        for series in factory_trace.per_appliance.values():
            reconstructed += series.values
        assert np.allclose(reconstructed, factory_trace.total.values)

    def test_trace_renders_processes_from_its_activation_log(
        self, factory_trace, check_rendered_trace
    ):
        catalogue = industrial_catalogue()
        specs = {name: catalogue.get(name) for name in factory_trace.config.appliances}
        check_rendered_trace(factory_trace, specs)

    def test_flexible_share_realistic(self, factory_trace):
        assert 0.02 < factory_trace.flexible_share < 0.6

    def test_validation(self):
        with pytest.raises(ValidationError):
            FactoryConfig(factory_id="")
        with pytest.raises(ValidationError):
            FactoryConfig(factory_id="p", floor_load_kw=-1)
        with pytest.raises(ValidationError):
            simulate_factory(
                FactoryConfig(factory_id="p"), START, 0, np.random.default_rng(0)
            )


class TestExtractionOnFactories:
    def test_peak_based_runs_unchanged(self, factory_trace):
        extractor = PeakBasedExtractor(params=FlexOfferParams(flexible_share=0.05))
        result = extractor.extract(factory_trace.metered(), np.random.default_rng(1))
        assert len(result.offers) >= 5
        assert result.energy_conservation_error() < 1e-6
        # Industrial offers carry industrial energies.
        assert max(o.profile_energy_max for o in result.offers) > 50.0

    def test_frequency_based_with_industrial_catalogue(self, factory_trace):
        extractor = FrequencyBasedExtractor(database=industrial_catalogue())
        result = extractor.extract(factory_trace.total, np.random.default_rng(1))
        shortlist = result.extras["shortlist"]
        listed = {e.appliance for e in shortlist}
        true_processes = {a.appliance for a in factory_trace.activations}
        assert listed & true_processes
        assert result.energy_conservation_error() < 1e-6


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["simulate", "--out", "/tmp/x"])
        assert args.command == "simulate"
        args = parser.parse_args(["evaluate", "--households", "3"])
        assert args.households == 3

    def test_simulate_and_extract_roundtrip(self, tmp_path):
        out_dir = tmp_path / "data"
        code = main([
            "simulate", "--households", "2", "--days", "2",
            "--seed", "1", "--out", str(out_dir),
        ])
        assert code == 0
        csvs = sorted(out_dir.glob("*.csv"))
        assert len(csvs) == 2

        offers_path = tmp_path / "offers.json"
        code = main([
            "extract", "--input", str(csvs[0]),
            "--approach", "peak-based", "--share", "0.05",
            "--out", str(offers_path),
        ])
        assert code == 0
        payload = json.loads(offers_path.read_text())
        assert isinstance(payload, list) and payload
        assert all("slices" in offer for offer in payload)

    def test_extract_basic_approach(self, tmp_path):
        out_dir = tmp_path / "data"
        main(["simulate", "--households", "1", "--days", "1", "--out", str(out_dir)])
        csv_path = next(out_dir.glob("*.csv"))
        offers_path = tmp_path / "basic.json"
        code = main([
            "extract", "--input", str(csv_path),
            "--approach", "basic", "--out", str(offers_path),
        ])
        assert code == 0
        assert json.loads(offers_path.read_text())

    def test_extract_missing_input_fails_cleanly(self, tmp_path, capsys):
        code = main([
            "extract", "--input", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "offers.json"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_evaluate_prints_table(self, capsys):
        code = main(["evaluate", "--households", "2", "--days", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "extractor" in out
        assert "peak-based" in out

    def test_figures_prints_walkthrough(self, capsys):
        code = main(["figures"])
        assert code == 0
        out = capsys.readouterr().out
        assert "39.02" in out
