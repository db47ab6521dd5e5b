"""The run-spec codec: pinned wire bytes, one validation path, total decoding.

* Every example spec document, the spec inside the v1 run-report fixture
  and a few directly built specs must encode to the bytes pinned in
  ``tests/data/golden/spec_encodings.json`` (taken from the hand-written
  per-class codec the field-driven one replaced; never regenerate it).
* Direct construction with a wrong-typed value raises :class:`SpecError`
  naming the field, for every typed field of every spec class.
* Mutated spec documents and arbitrary constructor arguments raise
  nothing but :class:`SpecError`, and whatever loads re-encodes and
  reloads equal.
"""

from __future__ import annotations

import copy
import json
import re
from dataclasses import fields
from datetime import datetime
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.spec import (
    ExtractorSpec,
    MarketSpec,
    PipelineSpec,
    RobustSpec,
    RunSpec,
    ScenarioSpec,
    ScheduleSpec,
    SessionSpec,
    ZoneSpec,
)
from repro.errors import ReproError, SpecError

ROOT = Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"
SPEC_ENCODINGS = GOLDEN / "spec_encodings.json"


def spec_documents() -> dict[str, dict]:
    """Every stored spec document, keyed by where it lives."""
    documents: dict[str, dict] = {}
    for path in sorted((ROOT / "examples" / "specs").glob("*.json")):
        data = json.loads(path.read_text())
        key = f"examples/specs/{path.name}"
        if "spec" in data:
            documents[f"{key}#spec"] = data["spec"]
        else:
            documents[key] = data
    report = json.loads((GOLDEN / "compat" / "run_report_v1.json").read_text())
    documents["tests/data/golden/compat/run_report_v1.json#spec"] = report["spec"]
    return documents


def direct_specs() -> dict[str, RunSpec]:
    """Specs built in code, where no decoder has normalised a value."""
    return {
        "direct:robust": RunSpec(
            name="robust",
            pipeline=PipelineSpec(
                schedule=ScheduleSpec(
                    target="flat",
                    target_kwh=12.5,
                    robust=RobustSpec(
                        quantiles=(0.05, 0.5, 0.95), risk="cvar", alpha=0.2, sigma=0.1
                    ),
                )
            ),
        ),
        "direct:session-journal": RunSpec(
            name="journaled",
            pipeline=PipelineSpec(
                workers=2,
                schedule=ScheduleSpec(),
                session=SessionSpec(
                    commit_horizon_minutes=360, journal_snapshot_every=4
                ),
            ),
        ),
        "direct:zone-int-prices": RunSpec(
            kind="compare",
            pipeline=PipelineSpec(
                schedule=ScheduleSpec(
                    zones=(
                        ZoneSpec(
                            name="north",
                            price_floor=0,
                            price_cap=1,
                            households=("hh-0000",),
                        ),
                        ZoneSpec(name="south", target_seed=3, target_kwh=50),
                    ),
                    market=MarketSpec(slices=4, coupling_kwh=2),
                )
            ),
        ),
        "direct:engine-auto": RunSpec(
            name="auto",
            scenario=ScenarioSpec(
                households=3, days=2, seed=5, start=datetime(2012, 10, 22, 6, 30)
            ),
            pipeline=PipelineSpec(schedule=ScheduleSpec(engine="auto")),
        ),
        "direct:defaults": RunSpec(),
    }


def current_encodings() -> dict[str, str]:
    encodings = {
        key: RunSpec.from_dict(data).to_json()
        for key, data in spec_documents().items()
    }
    encodings.update({key: spec.to_json() for key, spec in direct_specs().items()})
    return encodings


class TestWireBytes:
    def test_every_spec_encodes_to_the_golden_bytes(self):
        golden = json.loads(SPEC_ENCODINGS.read_text())
        encodings = current_encodings()
        assert sorted(encodings) == sorted(golden)
        for key, text in encodings.items():
            assert text == golden[key], key

    def test_decoding_widens_ints_in_float_fields(self):
        # A spec built in code encodes the ints it was given; a decoded one
        # holds floats, as the per-class decoders made them.
        golden = json.loads(SPEC_ENCODINGS.read_text())["direct:zone-int-prices"]
        assert '"price_floor": 0,' in golden
        schedule = RunSpec.from_json(golden).pipeline.schedule
        values = [schedule.market.coupling_kwh] + [
            getattr(zone, key)
            for zone in schedule.zones
            for key in ("target_kwh", "price_floor", "price_cap")
            if getattr(zone, key) is not None
        ]
        assert len(values) == 6
        assert all(type(value) is float for value in values)

    def test_stored_documents_reload_equal(self):
        for key, data in spec_documents().items():
            spec = RunSpec.from_dict(data)
            assert RunSpec.from_json(spec.to_json()) == spec, key


# --------------------------------------------------------------------- #
# One validation path: direct construction checks every field's type
# --------------------------------------------------------------------- #

#: Where each spec class sits in a run-spec document.
PATHS = {
    RunSpec: "run spec",
    ScenarioSpec: "scenario",
    ExtractorSpec: "extractor",
    PipelineSpec: "pipeline",
    ScheduleSpec: "pipeline.schedule",
    ZoneSpec: "pipeline.schedule.zone",
    MarketSpec: "pipeline.schedule.market",
    RobustSpec: "pipeline.schedule.robust",
    SessionSpec: "pipeline.session",
}

#: Valid values of the fields without a default.
REQUIRED = {ExtractorSpec: {"name": "basic"}, ZoneSpec: {"name": "north"}}


def wrong_values(hint: Any) -> list[Any]:
    """Values a field annotated ``hint`` must reject: wrong types, and NaN
    where a number is expected."""
    args = [arg for arg in get_args(hint) if arg is not type(None)]
    if get_origin(hint) is tuple:
        element = {str: 7, float: "0.5"}.get(args[0], {"name": "basic"})
        return ["abc", {"a": 1}, (element,)]
    if len(args) == 1:  # X | None
        return [value for value in wrong_values(args[0]) if value is not None]
    if get_origin(hint) is not None:  # Mapping[str, Any]
        return [[1, 2], "params", {1: "a"}]
    return {
        int: ["2", True, 2.5],
        float: ["2", True, None, float("nan")],
        str: [7, True, None],
        datetime: ["2012-03-05", 1330905600],
    }.get(hint, [{"name": "x"}, "x"])


def wrong_type_cases():
    for cls, path in PATHS.items():
        hints = get_type_hints(cls)
        for f in fields(cls):
            for value in wrong_values(hints[f.name]):
                yield pytest.param(
                    cls, f.name, value, f"{path}.{f.name}",
                    id=f"{cls.__name__}.{f.name}={value!r}",
                )


class TestOneValidationPath:
    @pytest.mark.parametrize("cls, name, value, where", list(wrong_type_cases()))
    def test_direct_construction_raises_a_spec_error_naming_the_field(
        self, cls, name, value, where
    ):
        with pytest.raises(SpecError, match=re.escape(where)):
            cls(**{**REQUIRED.get(cls, {}), name: value})

    def test_decoding_and_construction_meet_the_same_rules(self):
        for data, build in (
            ({"scenario": {"households": 2.5}}, lambda: ScenarioSpec(households=2.5)),
            (
                {"pipeline": {"schedule": {"market": {"slices": "4"}, "zones": [{"name": "a"}]}}},
                lambda: MarketSpec(slices="4"),
            ),
        ):
            with pytest.raises(SpecError) as decoded:
                RunSpec.from_dict(data)
            with pytest.raises(SpecError) as built:
                build()
            assert str(decoded.value) == str(built.value)

    def test_stage_rules_come_from_the_stage_configs(self):
        # The spec states no rule of the layer it configures: the config's
        # own message reaches the spec error, prefixed with the path.
        from repro.market.model import MarketConfig
        from repro.scheduling.greedy import ScheduleConfig
        from repro.scheduling.robust import RobustConfig

        for spec_cls, config_cls, kwargs in (
            (MarketSpec, MarketConfig, {"engine": "quantum"}),
            (RobustSpec, RobustConfig, {"risk": "worst-case"}),
            (ScheduleSpec, ScheduleConfig, {"order": "random"}),
            (ScheduleSpec, ScheduleConfig, {"improve_seed": -1}),
        ):
            with pytest.raises(ReproError) as config_error:
                config_cls(**kwargs)
            with pytest.raises(SpecError) as spec_error:
                spec_cls(**kwargs)
            assert str(spec_error.value) == f"{PATHS[spec_cls]}.{config_error.value}"


# --------------------------------------------------------------------- #
# Total decoding: only SpecError escapes, whatever the document holds
# --------------------------------------------------------------------- #

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=12), children, max_size=3),
    max_leaves=6,
)

DOCUMENTS = spec_documents()


def containers(node: Any) -> list[Any]:
    """Every dict and list in a JSON tree, the root included."""
    found = [node] if isinstance(node, (dict, list)) else []
    children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    for child in children:
        found.extend(containers(child))
    return found


def mutate(document: dict, data) -> dict:
    """``document`` with one value replaced, one key dropped or one added."""
    document = copy.deepcopy(document)
    node = data.draw(st.sampled_from(containers(document)))
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    operation = data.draw(st.sampled_from(["replace", "drop", "add"] if keys else ["add"]))
    if operation == "add":
        value = data.draw(json_values)
        if isinstance(node, dict):
            node[data.draw(st.text(max_size=12))] = value
        else:
            node.append(value)
        return document
    key = data.draw(st.sampled_from(keys))
    if operation == "drop":
        del node[key]
    else:
        node[key] = data.draw(json_values)
    return document


def python_values() -> st.SearchStrategy:
    valid_specs = st.sampled_from(
        [
            ScenarioSpec(),
            ExtractorSpec("basic"),
            ZoneSpec(name="north"),
            MarketSpec(),
            RobustSpec(),
            ScheduleSpec(),
            SessionSpec(),
            PipelineSpec(),
        ]
    )
    return (
        json_values
        | st.floats()
        | st.fractions()
        | st.complex_numbers()
        | st.datetimes()
        | st.binary(max_size=4)
        | valid_specs
        | st.lists(json_values | valid_specs, max_size=3).map(tuple)
    )


class TestTotalDecoding:
    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_mutated_documents_load_or_raise_a_spec_error(self, data):
        document = mutate(DOCUMENTS[data.draw(st.sampled_from(sorted(DOCUMENTS)))], data)
        try:
            spec = RunSpec.from_dict(document)
        except SpecError:
            return
        reloaded = RunSpec.from_json(spec.to_json())
        assert reloaded == spec
        assert reloaded.to_json() == spec.to_json()

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_arbitrary_constructor_arguments_raise_only_spec_errors(self, data):
        cls = data.draw(st.sampled_from(list(PATHS)))
        names = [f.name for f in fields(cls)]
        chosen = data.draw(st.lists(st.sampled_from(names), unique=True, max_size=3))
        kwargs = {**REQUIRED.get(cls, {}), **{name: data.draw(python_values()) for name in chosen}}
        try:
            cls(**kwargs)
        except SpecError:
            pass
