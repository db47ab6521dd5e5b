"""Unit tests for :mod:`repro.flexoffer.validate` and :mod:`repro.flexoffer.io`."""

from __future__ import annotations

from datetime import datetime, timedelta

import pytest

from repro.errors import DataError, ReproError
from repro.flexoffer.io import (
    aggregated_from_dict,
    any_schedule_from_dict,
    flexoffer_from_dict,
    flexoffer_to_dict,
    load_flexoffers,
    save_flexoffers,
    schedule_from_dict,
    schedule_result_from_dict,
    schedule_to_dict,
    zoned_result_from_dict,
)
from repro.flexoffer.model import FlexOffer, ProfileSlice, figure1_flexoffer
from repro.flexoffer.schedule import default_schedule
from repro.flexoffer.validate import PolicyLimits, check_all

START = datetime(2012, 3, 5, 18, 0)


def offer(**overrides) -> FlexOffer:
    defaults = dict(
        earliest_start=START,
        latest_start=START + timedelta(hours=2),
        slices=(ProfileSlice(0.5, 1.0), ProfileSlice(0.25, 0.5)),
        creation_time=START - timedelta(hours=24),
        acceptance_deadline=START - timedelta(hours=12),
        assignment_deadline=START - timedelta(hours=1),
    )
    defaults.update(overrides)
    return FlexOffer(**defaults)


class TestPolicyLimits:
    def test_compliant_offer(self):
        assert not PolicyLimits().check(offer())

    def test_slice_count_limits(self):
        limits = PolicyLimits(min_slices=3)
        problems = limits.check(offer())
        assert any("slices" in p for p in problems)
        limits = PolicyLimits(max_slices=1)
        assert limits.check(offer())

    def test_energy_limits(self):
        limits = PolicyLimits(min_total_energy=5.0)
        assert limits.check(offer())
        limits = PolicyLimits(max_total_energy=0.1)
        assert limits.check(offer())

    def test_time_flexibility_limits(self):
        limits = PolicyLimits(min_time_flexibility=timedelta(hours=3))
        assert limits.check(offer())
        limits = PolicyLimits(max_time_flexibility=timedelta(hours=1))
        assert limits.check(offer())

    def test_deadline_order_violation(self):
        bad = offer(
            creation_time=START - timedelta(hours=1),
            acceptance_deadline=START - timedelta(hours=12),
        )
        problems = PolicyLimits().check(bad)
        assert any("creation_time" in p for p in problems)

    def test_deadline_order_ignores_missing(self):
        assert not PolicyLimits().check(offer(creation_time=None, acceptance_deadline=None))

    def test_check_all_flags_duplicates(self):
        fo = offer()
        problems = check_all([fo, fo])
        assert any("duplicate" in p for p in problems)

    def test_check_all_clean_batch(self):
        assert check_all([offer() for _ in range(3)]) == []


class TestIO:
    def test_roundtrip_preserves_everything(self):
        original = offer(
            consumer_id="c-1",
            appliance="washing-machine-y",
            source="test",
            total_energy_min=0.8,
            total_energy_max=1.4,
        )
        restored = flexoffer_from_dict(flexoffer_to_dict(original))
        assert restored == original

    def test_roundtrip_figure1(self):
        original = figure1_flexoffer(datetime(2012, 3, 5))
        restored = flexoffer_from_dict(flexoffer_to_dict(original))
        assert restored.latest_end == original.latest_end
        assert restored.slices == original.slices

    def test_missing_field_raises(self):
        data = flexoffer_to_dict(offer())
        del data["slices"]
        with pytest.raises(DataError):
            flexoffer_from_dict(data)

    @pytest.mark.parametrize(
        ("decode", "mutate", "kind"),
        [
            (flexoffer_from_dict, lambda d: [d], "flex-offer"),
            (flexoffer_from_dict, lambda d: {**d, "earliest_start": "garbage"}, "flex-offer"),
            (flexoffer_from_dict, lambda d: {**d, "earliest_start": 5}, "flex-offer"),
            (flexoffer_from_dict, lambda d: {**d, "earliest_start": None}, "flex-offer"),
            (flexoffer_from_dict, lambda d: {**d, "resolution_seconds": "x"}, "flex-offer"),
            (flexoffer_from_dict, lambda d: {**d, "slices": 5}, "flex-offer"),
            (flexoffer_from_dict, lambda d: {**d, "slices": [1]}, "flex-offer"),
            (
                flexoffer_from_dict,
                lambda d: {**d, "slices": [{"energy_min": "a", "energy_max": 1.0}]},
                "flex-offer",
            ),
            (
                schedule_from_dict,
                lambda d: {**schedule_to_dict(default_schedule(offer())), "start": "zz"},
                "schedule",
            ),
            (
                schedule_from_dict,
                lambda d: {**schedule_to_dict(default_schedule(offer())), "slice_energies": 3},
                "schedule",
            ),
            (schedule_from_dict, lambda d: [schedule_to_dict(default_schedule(offer()))], "schedule"),
            (aggregated_from_dict, lambda d: [d], "aggregated flex-offer"),
            (schedule_result_from_dict, lambda d: [d], "schedule result"),
            (zoned_result_from_dict, lambda d: [d], "zoned schedule"),
            (any_schedule_from_dict, lambda d: 5, "schedule result"),
        ],
        ids=[
            "offer-list-body",
            "offer-unparsable-start",
            "offer-int-start",
            "offer-null-start",
            "offer-string-resolution",
            "offer-int-slices",
            "offer-int-slice",
            "offer-string-energy",
            "schedule-unparsable-start",
            "schedule-int-energies",
            "schedule-list-body",
            "aggregate-list-body",
            "schedule-result-list-body",
            "zoned-list-body",
            "any-schedule-int-body",
        ],
    )
    def test_malformed_input_raises_data_error_naming_the_kind(
        self, decode, mutate, kind
    ):
        data = mutate(flexoffer_to_dict(offer()))
        with pytest.raises(DataError, match=f"^malformed {kind} dict: "):
            decode(data)

    def test_model_validation_errors_pass_through(self):
        data = flexoffer_to_dict(offer())
        data["latest_start"] = (START - timedelta(hours=1)).isoformat()
        with pytest.raises(ReproError) as excinfo:
            flexoffer_from_dict(data)
        assert not isinstance(excinfo.value, DataError)

    def test_unknown_version_raises(self):
        data = flexoffer_to_dict(offer())
        data["version"] = 999
        with pytest.raises(DataError):
            flexoffer_from_dict(data)

    def test_schedule_roundtrip(self):
        sched = default_schedule(offer())
        restored = schedule_from_dict(schedule_to_dict(sched))
        assert restored.start == sched.start
        assert restored.slice_energies == sched.slice_energies
        assert restored.offer == sched.offer

    def test_schedule_result_roundtrip(self):
        import json

        import numpy as np

        from repro.flexoffer.io import (
            schedule_result_from_dict,
            schedule_result_to_dict,
        )
        from repro.scheduling import greedy_schedule
        from repro.timeseries.axis import axis_for_days
        from repro.timeseries.series import TimeSeries

        axis = axis_for_days(datetime(2012, 3, 5), 1)
        target = TimeSeries(
            axis, np.random.default_rng(3).uniform(0, 1, axis.length), "surplus"
        )
        out_of_horizon = offer(
            earliest_start=START + timedelta(days=30),
            latest_start=START + timedelta(days=30, hours=1),
        )
        result = greedy_schedule([offer(), offer(), out_of_horizon], target)
        assert result.schedules and result.unplaced
        encoded = schedule_result_to_dict(result)
        # JSON-native and stable through an actual serialisation.
        restored = schedule_result_from_dict(json.loads(json.dumps(encoded)))
        assert restored == result
        assert restored.cost == result.cost
        assert restored.demand == result.demand
        missing = dict(encoded)
        del missing["schedules"]
        with pytest.raises(DataError):
            schedule_result_from_dict(missing)

    def test_file_roundtrip(self, tmp_path):
        offers = [offer() for _ in range(5)]
        path = tmp_path / "offers.json"
        save_flexoffers(offers, path)
        loaded = load_flexoffers(path)
        assert loaded == offers

    def test_load_non_list_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(DataError):
            load_flexoffers(path)
