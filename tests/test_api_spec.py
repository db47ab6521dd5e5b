"""Run-spec layer: strict validation and lossless dict/JSON round-trips.

The round-trip property — ``RunSpec.from_dict(spec.to_dict()) == spec`` for
*every* valid spec — is what makes a spec file a faithful run identity, so
it is property-tested with hypothesis over generated spec trees, including
a full JSON serialisation in the loop.
"""

from __future__ import annotations

import json
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    RUN_KINDS,
    SPEC_VERSION,
    ExtractorSpec,
    PipelineSpec,
    RunSpec,
    ScenarioSpec,
    ScheduleSpec,
    ZoneSpec,
    load_run_spec,
    save_run_spec,
)
from repro.errors import SpecError

# --------------------------------------------------------------------- #
# Strategies: JSON-representable spec trees
# --------------------------------------------------------------------- #

json_scalars = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
    st.text(max_size=20),
    st.none(),
)

param_dicts = st.dictionaries(
    st.text(min_size=1, max_size=20), json_scalars, max_size=4
)

scenario_specs = st.builds(
    ScenarioSpec,
    households=st.integers(min_value=1, max_value=1000),
    days=st.integers(min_value=1, max_value=365),
    seed=st.integers(min_value=0, max_value=2**31),
    start=st.datetimes(
        min_value=datetime(2000, 1, 1), max_value=datetime(2030, 12, 31)
    ),
)

extractor_specs = st.builds(
    ExtractorSpec,
    name=st.text(min_size=1, max_size=30),
    params=param_dicts,
)

zone_specs = st.builds(
    ZoneSpec,
    name=st.text(min_size=1, max_size=16),
    target_seed=st.integers(min_value=0, max_value=2**31),
    target_kwh=st.one_of(
        st.none(), st.floats(min_value=0.1, max_value=1e6, allow_nan=False)
    ),
    price_floor=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    price_cap=st.floats(min_value=1.0, max_value=2.0, allow_nan=False),
    # Households stay empty here: cross-zone uniqueness is a ScheduleSpec
    # validation rule, exercised deterministically in the zone tests.
    households=st.just(()),
)

schedule_specs = st.builds(
    ScheduleSpec,
    target=st.sampled_from(("wind", "flat")),
    target_seed=st.integers(min_value=0, max_value=2**31),
    target_kwh=st.one_of(
        st.none(), st.floats(min_value=0.1, max_value=1e6, allow_nan=False)
    ),
    order=st.sampled_from(("least-flexible-first", "largest-first", "as-given")),
    engine=st.sampled_from(("vectorized", "incremental", "reference", "auto")),
    improve_iterations=st.integers(min_value=0, max_value=10_000),
    improve_seed=st.integers(min_value=0, max_value=2**31),
    zones=st.one_of(
        st.just(()),
        st.lists(
            zone_specs, min_size=1, max_size=3, unique_by=lambda z: z.name
        ).map(tuple),
    ),
)

pipeline_specs = st.builds(
    PipelineSpec,
    chunk_size=st.integers(min_value=1, max_value=256),
    workers=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
    start_tolerance_minutes=st.integers(min_value=1, max_value=1440),
    flexibility_tolerance_minutes=st.integers(min_value=1, max_value=1440),
    max_group_size=st.integers(min_value=1, max_value=512),
    schedule=st.one_of(st.none(), schedule_specs),
)

run_specs = st.builds(
    RunSpec,
    kind=st.sampled_from(RUN_KINDS),
    scenario=scenario_specs,
    extractors=st.lists(extractor_specs, min_size=1, max_size=4).map(tuple),
    pipeline=pipeline_specs,
    name=st.text(max_size=30),
)


class TestRoundTripProperties:
    @given(spec=run_specs)
    @settings(max_examples=200, deadline=None)
    def test_dict_round_trip(self, spec: RunSpec):
        assert RunSpec.from_dict(spec.to_dict()) == spec

    @given(spec=run_specs)
    @settings(max_examples=100, deadline=None)
    def test_json_round_trip(self, spec: RunSpec):
        assert RunSpec.from_json(spec.to_json()) == spec
        # And the dict encoding itself survives a JSON round-trip unchanged.
        assert json.loads(json.dumps(spec.to_dict())) == spec.to_dict()

    @given(spec=scenario_specs)
    @settings(max_examples=100, deadline=None)
    def test_scenario_round_trip(self, spec: ScenarioSpec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @given(spec=pipeline_specs)
    @settings(max_examples=100, deadline=None)
    def test_pipeline_round_trip(self, spec: PipelineSpec):
        assert PipelineSpec.from_dict(spec.to_dict()) == spec

    @given(spec=schedule_specs)
    @settings(max_examples=100, deadline=None)
    def test_schedule_round_trip(self, spec: ScheduleSpec):
        assert ScheduleSpec.from_dict(spec.to_dict()) == spec


class TestScheduleSpec:
    def test_wire_format_omits_absent_schedule(self):
        # Pre-schedule spec files and goldens must keep loading unchanged.
        assert "schedule" not in PipelineSpec().to_dict()
        enabled = PipelineSpec(schedule=ScheduleSpec())
        assert enabled.to_dict()["schedule"]["target"] == "wind"
        assert PipelineSpec.from_dict(PipelineSpec().to_dict()).schedule is None

    def test_validation(self):
        with pytest.raises(SpecError, match="schedule.target must be"):
            ScheduleSpec(target="tides")
        with pytest.raises(SpecError, match="schedule.order must be"):
            ScheduleSpec(order="random")
        with pytest.raises(SpecError, match="schedule.engine must be"):
            ScheduleSpec(engine="turbo")
        with pytest.raises(SpecError, match="target_kwh"):
            ScheduleSpec(target_kwh=0.0)
        with pytest.raises(SpecError, match="improve_iterations"):
            ScheduleSpec(improve_iterations=-1)
        with pytest.raises(SpecError, match="pipeline.schedule: unknown key"):
            ScheduleSpec.from_dict({"targets": "wind"})

    @pytest.mark.parametrize(
        "path",
        [
            ("scenario", "seed"),
            ("pipeline", "schedule", "improve_seed"),
            ("pipeline", "schedule", "zones", 0, "target_seed"),
            ("pipeline", "schedule", "target_seed"),
        ],
        ids=lambda path: ".".join(str(key) for key in path),
    )
    def test_negative_seed_is_a_spec_error(self, path):
        # A negative seed used to load and then kill the run inside numpy
        # ("expected non-negative integer").
        from pathlib import Path

        data = json.loads(
            (Path(__file__).parents[1] / "examples" / "specs" / "zones.json").read_text()
        )
        if path[-1] == "target_seed" and len(path) == 3:
            # The top-level target seed is used by plain (unzoned) targets.
            schedule = data["pipeline"]["schedule"]
            del schedule["zones"], schedule["market"]
        RunSpec.from_dict(data)
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = -1
        with pytest.raises(SpecError, match=f"{path[-1]} must be an integer >= 0, got -1"):
            RunSpec.from_dict(data)

    @pytest.mark.parametrize("seed", ["x", 2.0, True, -3])
    def test_direct_construction_checks_seeds(self, seed):
        with pytest.raises(SpecError, match="scenario.seed must be an integer"):
            ScenarioSpec(seed=seed)
        with pytest.raises(SpecError, match="target_seed must be an integer"):
            ZoneSpec(name="north", target_seed=seed)
        for key in ("target_seed", "improve_iterations", "improve_seed"):
            with pytest.raises(SpecError, match=f"schedule.{key} must be an integer"):
                ScheduleSpec(**{key: seed})

    def test_engine_key_omitted_defaults_to_vectorized(self):
        # Spec files without an "engine" key load with the default engine.
        spec = ScheduleSpec.from_dict({"target": "wind"})
        assert spec.engine == "vectorized"

    @pytest.mark.parametrize("engine", ["auto", "incremental"])
    def test_legacy_engine_names_round_trip_and_run_vectorized(self, engine):
        # Old spec files and WAL headers name these engines: the spec keeps
        # and re-encodes the name, and its config runs the vectorized engine.
        from repro.api.spec import RobustSpec

        spec = ScheduleSpec(engine=engine)
        assert ScheduleSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict()["engine"] == engine
        assert spec.config().engine == "vectorized"
        robust = ScheduleSpec(engine=engine, robust=RobustSpec())
        assert robust.config().engine == "vectorized"

    @pytest.mark.parametrize("sigma", [float("inf"), float("nan"), -0.5])
    def test_robust_sigma_must_be_finite_and_non_negative(self, sigma):
        # The fan's spread is checked at load, by its full path, so a bad
        # sigma never reaches the scheduler as NaN scenario values.
        document = {
            "kind": "fleet",
            "extractors": [{"name": "peak-based"}],
            "pipeline": {"schedule": {"robust": {"sigma": sigma}}},
        }
        with pytest.raises(
            SpecError, match=r"pipeline\.schedule\.robust\.sigma must be a finite number >= 0"
        ):
            RunSpec.from_dict(document)

    def test_config_maps_onto_schedule_config(self):
        spec = ScheduleSpec(
            order="largest-first", engine="reference", improve_iterations=7,
            improve_seed=3,
        )
        config = spec.config()
        assert (config.order, config.engine) == ("largest-first", "reference")
        assert (config.improve_iterations, config.improve_seed) == (7, 3)

    @given(spec=run_specs)
    @settings(max_examples=50, deadline=None)
    def test_file_round_trip(self, spec: RunSpec, tmp_path_factory):
        path = tmp_path_factory.mktemp("specs") / "spec.json"
        save_run_spec(spec, path)
        assert load_run_spec(path) == spec


class TestStrictValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(SpecError, match="run spec: unknown key\\(s\\) 'frobnicate'"):
            RunSpec.from_dict({"kind": "fleet", "frobnicate": 1})

    def test_unknown_nested_key_names_the_path(self):
        with pytest.raises(SpecError, match="scenario: unknown key\\(s\\) 'household'"):
            RunSpec.from_dict({"scenario": {"household": 3}})

    def test_unsupported_version(self):
        with pytest.raises(SpecError, match="unsupported run-spec version 99"):
            RunSpec.from_dict({"version": 99})

    def test_bad_kind(self):
        with pytest.raises(SpecError, match="kind must be one of fleet, compare, got 'party'$"):
            RunSpec.from_dict({"kind": "party"})

    def test_wrong_type_reports_path_and_types(self):
        with pytest.raises(SpecError, match="scenario.households: expected int, got str"):
            RunSpec.from_dict({"scenario": {"households": "four"}})

    def test_bool_is_not_an_int(self):
        with pytest.raises(SpecError, match="scenario.days: expected int, got bool"):
            RunSpec.from_dict({"scenario": {"days": True}})

    def test_bad_start_date(self):
        with pytest.raises(SpecError, match="scenario.start"):
            RunSpec.from_dict({"scenario": {"start": "not-a-date"}})

    def test_extractor_missing_name(self):
        with pytest.raises(SpecError, match="missing required key 'name'"):
            ExtractorSpec.from_dict({"params": {}})

    def test_extractors_must_be_non_empty(self):
        with pytest.raises(SpecError, match="at least one extractor"):
            RunSpec.from_dict({"extractors": []})

    def test_params_must_be_mapping(self):
        with pytest.raises(SpecError, match="extractor.params"):
            ExtractorSpec.from_dict({"name": "basic", "params": [1, 2]})

    def test_invalid_json_text(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            RunSpec.from_json("{nope")

    def test_scenario_bounds(self):
        with pytest.raises(SpecError, match="households must be >= 1"):
            ScenarioSpec(households=0)
        with pytest.raises(SpecError, match="days must be >= 1"):
            ScenarioSpec(days=0)

    def test_pipeline_bounds(self):
        with pytest.raises(SpecError, match="chunk_size"):
            PipelineSpec(chunk_size=0)
        with pytest.raises(SpecError, match="workers"):
            PipelineSpec(workers=0)


class TestSpecBehaviour:
    def test_defaults_build_a_valid_fleet_spec(self):
        spec = RunSpec()
        assert spec.kind == "fleet"
        assert spec.version == SPEC_VERSION
        assert spec.extractors[0].name == "frequency-based"

    def test_extractor_params_are_immutable(self):
        spec = ExtractorSpec("basic", {"flexible_share": 0.05})
        with pytest.raises(TypeError):
            spec.params["flexible_share"] = 0.5  # type: ignore[index]

    def test_with_overrides_replaces_fields(self):
        spec = RunSpec()
        changed = spec.with_overrides(name="nightly")
        assert changed.name == "nightly"
        assert changed.scenario == spec.scenario

    def test_pipeline_grouping_params_units(self):
        from datetime import timedelta

        grouping = PipelineSpec(start_tolerance_minutes=30).grouping_params()
        assert grouping.start_tolerance == timedelta(minutes=30)

    def test_extractor_spec_create_goes_through_registry(self):
        extractor = ExtractorSpec("peak-based", {"flexible_share": 0.1}).create()
        assert extractor.name == "peak-based"
        assert extractor.params.flexible_share == 0.1
