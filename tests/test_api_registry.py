"""The extractor registry: names, parameter routing, error contracts.

The registry is the only place string-driven callers construct extractors,
so its error messages are part of the API surface — the unknown-name and
unknown-parameter messages are pinned exactly (golden strings) below.
"""

from __future__ import annotations

from datetime import timedelta

import numpy as np
import pytest

from repro.api import (
    available_extractors,
    create_extractor,
    entry_for,
    get_entry,
    input_series_for,
    register_extractor,
    registry_rows,
)
from repro.errors import RegistryError
from repro.extraction import (
    BasicExtractor,
    FrequencyBasedExtractor,
    MultiTariffExtractor,
    PeakBasedExtractor,
    RandomBaselineExtractor,
    ScheduleBasedExtractor,
)
from repro.extraction.production import (
    DispatchableProductionExtractor,
    WindProductionExtractor,
)

ALL_NAMES = (
    "basic",
    "dispatchable-production",
    "frequency-based",
    "multi-tariff",
    "peak-based",
    "random-baseline",
    "schedule-based",
    "wind-production",
)


class TestRegistryContents:
    def test_every_approach_registered(self):
        assert available_extractors() == ALL_NAMES

    def test_entries_point_at_the_real_classes(self):
        assert get_entry("basic").cls is BasicExtractor
        assert get_entry("peak-based").cls is PeakBasedExtractor
        assert get_entry("multi-tariff").cls is MultiTariffExtractor
        assert get_entry("frequency-based").cls is FrequencyBasedExtractor
        assert get_entry("schedule-based").cls is ScheduleBasedExtractor
        assert get_entry("random-baseline").cls is RandomBaselineExtractor
        assert get_entry("wind-production").cls is WindProductionExtractor
        assert get_entry("dispatchable-production").cls is DispatchableProductionExtractor

    def test_registry_name_matches_extractor_name_attribute(self):
        # Offer `source` stamping and report keys rely on this equality.
        for name in ALL_NAMES:
            if name == "multi-tariff":
                continue  # needs a reference series to instantiate
            assert create_extractor(name).name == name

    def test_appliance_level_entries_declare_strict_one_minute_input(self):
        for name in ("frequency-based", "schedule-based"):
            entry = get_entry(name)
            assert entry.input == "total"
            assert entry.strict_grid
        for name in ("basic", "peak-based", "random-baseline"):
            entry = get_entry(name)
            assert entry.input == "metered"
            assert not entry.strict_grid

    def test_rows_cover_every_entry(self):
        rows = registry_rows()
        assert [r["approach"] for r in rows] == list(ALL_NAMES)
        assert all(r["summary"] for r in rows)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(RegistryError, match="already registered"):
            register_extractor("basic")(PeakBasedExtractor)

    def test_same_class_reregistration_is_idempotent(self):
        # Module reloads re-run decorators; same (name, class) must not trip.
        assert register_extractor("basic")(BasicExtractor) is BasicExtractor


class TestCreateExtractor:
    def test_defaults(self):
        extractor = create_extractor("peak-based")
        assert isinstance(extractor, PeakBasedExtractor)
        assert extractor.params.flexible_share == 0.05

    def test_direct_field(self):
        extractor = create_extractor("basic", period_hours=4)
        assert extractor.period_hours == 4

    def test_routes_into_flexoffer_params(self):
        extractor = create_extractor("peak-based", flexible_share=0.07, slices_max=4)
        assert extractor.params.flexible_share == 0.07
        assert extractor.params.slices_max == 4

    def test_routes_into_matching_config(self):
        extractor = create_extractor(
            "frequency-based", engine="reference", min_detections=3
        )
        assert extractor.matching.engine == "reference"
        assert extractor.min_detections == 3

    def test_routes_into_random_generator_config(self):
        extractor = create_extractor("random-baseline", offers_per_day=2)
        assert extractor.config.offers_per_day == 2

    def test_numbers_coerce_to_timedelta_seconds(self):
        extractor = create_extractor("basic", time_flexibility_max=21600)
        assert extractor.params.time_flexibility_max == timedelta(hours=6)

    def test_lists_coerce_to_tuple_fields(self):
        extractor = create_extractor("basic", energy_min_pct=[0.8, 0.9])
        assert extractor.params.energy_min_pct == (0.8, 0.9)

    def test_explicit_nested_object_still_accepted(self):
        from repro.extraction import FlexOfferParams

        params = FlexOfferParams(flexible_share=0.02)
        extractor = create_extractor("basic", params=params)
        assert extractor.params is params

    def test_invalid_value_wrapped_as_registry_error(self):
        with pytest.raises(RegistryError, match="flexible_share"):
            create_extractor("basic", flexible_share=2.0)

    @pytest.mark.parametrize(
        "name, field, value",
        [
            ("peak-based", "params", {"flexible_share": 0.05}),
            ("frequency-based", "matching", {"engine": "reference"}),
            ("random-baseline", "config", {"offers_per_day": 2}),
        ],
    )
    def test_nested_config_given_as_dict_is_rejected(self, name, field, value):
        with pytest.raises(RegistryError, match=f"parameter '{field}' must be a"):
            create_extractor(name, **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("slices_min", "2"),
            ("slices_min", 2.5),
            ("slices_min", True),
            ("flexible_share", "0.1"),
            ("flexible_share", True),
            ("time_flexibility_min", "x"),
            ("time_flexibility_max", float("nan")),
            ("assignment_lead_max", float("inf")),
            ("creation_lead_min", 1e30),
            ("energy_min_pct", [0.8]),
            ("energy_min_pct", 0.8),
            ("energy_max_pct", [1.1, "1.2"]),
        ],
    )
    def test_malformed_offer_params_name_the_field(self, field, value):
        with pytest.raises(RegistryError, match=field):
            create_extractor("peak-based", **{field: value})

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("slices_min", 3, 3),
            ("slices_max", np.int64(6), 6),
            ("flexible_share", 0.1, 0.1),
            ("flexible_share", 1, 1),
            ("flexible_share", np.float64(0.2), 0.2),
            ("energy_min_pct", [0.7, 0.9], (0.7, 0.9)),
            ("energy_max_pct", (1, 1.5), (1, 1.5)),
            ("time_flexibility_min", 1800, timedelta(minutes=30)),
            ("time_flexibility_max", 7200.5, timedelta(seconds=7200.5)),
            ("creation_lead_min", timedelta(hours=2), timedelta(hours=2)),
            ("assignment_lead_min", 0, timedelta(0)),
        ],
    )
    def test_well_formed_offer_params_reach_the_extractor(self, field, value, expected):
        # The type checks reject malformed values only: numpy scalars,
        # integral shares, JSON lists and seconds all pass through.
        extractor = create_extractor("peak-based", **{field: value})
        assert getattr(extractor.params, field) == expected

    def test_config_object_plus_flat_override_is_rejected(self):
        # Ambiguous mix: which flexible_share wins?  Must fail loudly, not
        # silently drop the flat override.
        from repro.extraction import FlexOfferParams

        with pytest.raises(RegistryError, match="conflict with the explicit 'params'"):
            create_extractor("basic", params=FlexOfferParams(), flexible_share=0.10)


class TestErrorMessages:
    """Golden error strings: part of the service API, pinned exactly."""

    def test_unknown_name(self):
        with pytest.raises(RegistryError) as excinfo:
            create_extractor("no-such-approach")
        assert str(excinfo.value) == (
            "unknown extractor 'no-such-approach'; available: "
            "basic, dispatchable-production, frequency-based, multi-tariff, "
            "peak-based, random-baseline, schedule-based, wind-production"
        )

    def test_unknown_name_suggests_close_match(self):
        with pytest.raises(RegistryError, match="did you mean 'peak-based'"):
            create_extractor("peak-base")

    def test_unknown_parameter(self):
        with pytest.raises(RegistryError) as excinfo:
            create_extractor("random-baseline", flexible_share=0.1)
        assert str(excinfo.value).startswith(
            "extractor 'random-baseline' has no parameter 'flexible_share'; "
            "accepted: config, consumer_id, name, offers_per_day"
        )

    @pytest.mark.parametrize("name", ["frequency-based", "peak-based"])
    def test_offer_grid_is_no_parameter(self, name):
        # An offer's slice width is the grid its energies were built on.
        with pytest.raises(RegistryError, match="has no parameter 'resolution'"):
            create_extractor(name, resolution=1800)

    def test_missing_required_parameter(self):
        with pytest.raises(RegistryError) as excinfo:
            create_extractor("multi-tariff")
        assert str(excinfo.value) == (
            "extractor 'multi-tariff' requires parameter(s) 'reference' "
            "(e.g. the multi-tariff approach needs a one-tariff "
            "reference series of the same consumer)"
        )


class TestInputSeriesFor:
    def test_grid_selection_by_registry_entry(self, fleet):
        trace = fleet.traces[0]
        assert (
            input_series_for(create_extractor("frequency-based"), trace)
            is trace.total
        )
        metered = input_series_for(create_extractor("basic"), trace)
        assert metered.axis.resolution == timedelta(minutes=15)

    def test_subclass_inherits_registered_entry(self, fleet):
        # Historical behaviour: isinstance-based routing also covered
        # subclasses of a registered approach.
        from repro.extraction import FrequencyBasedExtractor

        class Tweaked(FrequencyBasedExtractor):
            pass

        trace = fleet.traces[0]
        assert entry_for(Tweaked()).name == "frequency-based"
        assert input_series_for(Tweaked(), trace) is trace.total

    def test_unregistered_extractor_defaults_to_metered(self, fleet):
        class Unregistered:
            pass

        trace = fleet.traces[0]
        assert entry_for(Unregistered()) is None
        series = input_series_for(Unregistered(), trace)
        assert series.axis.resolution == timedelta(minutes=15)
