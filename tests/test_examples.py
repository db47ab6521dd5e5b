"""Smoke tests: every shipped example must run end to end.

Examples are the adoption surface; a broken example is a broken repo.  Each
is imported from its file and exercised with reduced parameters where the
module exposes them (simulations come from the session-cached scenarios, so
this stays fast).
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "[basic]" in out and "[peak-based]" in out
        assert "conservation error" in out

    def test_paper_figures(self, capsys):
        module = load_example("paper_figures")
        module.show_figure1()
        module.show_figure4()
        module.show_figure5()
        out = capsys.readouterr().out
        assert "50 kWh" in out          # Figure 1
        assert "39.02" in out            # Figure 5 total
        assert "1.951" in out            # filter threshold
        assert "29%" in out and "71%" in out

    def test_appliance_disaggregation(self, capsys):
        load_example("appliance_disaggregation").main()
        out = capsys.readouterr().out
        assert "shortlist" in out
        assert "flex-offers" in out

    def test_multitariff_study(self, capsys):
        load_example("multitariff_study").main()
        out = capsys.readouterr().out
        assert "truly shifted energy" in out
        assert "conservation error" in out

    def test_mirabel_pipeline_small(self, capsys):
        load_example("mirabel_pipeline").main(6)
        out = capsys.readouterr().out
        assert "squared imbalance" in out
        assert "household schedules" in out

    def test_online_generation(self, capsys):
        load_example("online_generation").main()
        out = capsys.readouterr().out
        assert "day-ahead mode" in out
        assert "streaming mode" in out

    def test_zoned_market(self, capsys):
        load_example("zoned_market").main()
        out = capsys.readouterr().out
        assert "3 market zones" in out
        assert "zone   north" in out
        assert "placed in 3 zones" in out
