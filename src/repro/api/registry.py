"""String-keyed extractor registry: one place that maps names to approaches.

The paper's Figure 3 taxonomy gives every extraction approach a stable,
human-readable name (basic, peak-based, multi-tariff, ...).  This module
makes those names the *only* construction surface for string-driven callers
— the CLI, declarative run specs, evaluation suites and benchmarks all go
through :func:`create_extractor` instead of hand-wiring classes, so adding
an approach means registering it once.

Extractor classes self-register at import time::

    @register_extractor(
        "peak-based",
        input="metered",
        summary="One offer per day on a size-sampled consumption peak",
    )
    @dataclass(frozen=True)
    class PeakBasedExtractor(FlexibilityExtractor):
        ...

and callers resolve them by name::

    extractor = create_extractor("peak-based", flexible_share=0.07)

Parameter routing is dataclass-aware: keyword arguments matching the
extractor's own fields are passed directly, while arguments matching the
fields of nested config dataclasses (``params``/``matching``/``config``)
are routed into a rebuilt nested config.  ``timedelta``-typed fields accept
plain numbers of seconds so parameters stay JSON-representable.  Unknown
names and unknown/missing parameters raise :class:`~repro.errors.RegistryError`
with the full list of valid alternatives.

This module deliberately imports nothing from :mod:`repro.extraction` at
module level (the extraction modules import *us* for the decorator); the
lazy :func:`_ensure_registered` import breaks the cycle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import MISSING
from datetime import timedelta
from difflib import get_close_matches
from typing import TYPE_CHECKING, Any, Callable, TypeVar

from repro.errors import RegistryError, ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.extraction.base import FlexibilityExtractor

T = TypeVar("T", bound=type)

#: Input-series kinds an extractor can declare (which fleet series it reads).
INPUT_KINDS: tuple[str, ...] = ("metered", "total")

#: Human description of each input kind's grid, for error messages.
GRID_OF_INPUT: dict[str, str] = {
    "metered": "15-minute metered",
    "total": "1-minute total",
}

#: Nested config fields whose sub-fields are addressable as flat parameters.
_NESTED_FIELDS: tuple[str, ...] = ("params", "matching", "config")


@dataclasses.dataclass(frozen=True)
class ExtractorEntry:
    """One registered approach: the class plus its service-level metadata.

    ``input`` names the fleet series the approach consumes ("metered" =
    the 15-minute metering grid, "total" = the 1-minute appliance-visible
    grid); ``strict_grid`` marks approaches that hard-require that exact
    resolution (the paper's §4 granularity requirement for appliance-level
    extraction).  ``level`` is the Figure 3 taxonomy position.
    """

    name: str
    cls: type
    input: str = "metered"
    strict_grid: bool = False
    level: str = "household"
    summary: str = ""

    def required_parameters(self) -> tuple[str, ...]:
        """Fields of the extractor class without defaults (must be supplied)."""
        return tuple(
            f.name
            for f in dataclasses.fields(self.cls)
            if f.default is MISSING and f.default_factory is MISSING
        )

    def accepted_parameters(self) -> tuple[str, ...]:
        """All flat parameter names :func:`create_extractor` accepts."""
        names: list[str] = [f.name for f in dataclasses.fields(self.cls)]
        for nested in _nested_configs(self.cls):
            names.extend(
                f.name for f in dataclasses.fields(nested.type_) if f.name not in names
            )
        return tuple(names)


_REGISTRY: dict[str, ExtractorEntry] = {}
_BY_CLASS: dict[type, ExtractorEntry] = {}


def register_extractor(
    name: str,
    *,
    input: str = "metered",
    strict_grid: bool = False,
    level: str = "household",
    summary: str = "",
) -> Callable[[T], T]:
    """Class decorator: publish an extractor under a stable string name."""
    if input not in INPUT_KINDS:
        raise RegistryError(f"input must be one of {INPUT_KINDS}, got {input!r}")

    def decorate(cls: T) -> T:
        existing = _REGISTRY.get(name)
        if existing is not None and existing.cls is not cls:
            raise RegistryError(
                f"extractor name {name!r} is already registered "
                f"(by {existing.cls.__name__})"
            )
        entry = ExtractorEntry(
            name=name,
            cls=cls,
            input=input,
            strict_grid=strict_grid,
            level=level,
            summary=summary,
        )
        _REGISTRY[name] = entry
        _BY_CLASS[cls] = entry
        return cls

    return decorate


def _ensure_registered() -> None:
    """Import the extraction package so its decorators have run."""
    import repro.extraction  # noqa: F401  (self-registration side effect)


def available_extractors() -> tuple[str, ...]:
    """All registered approach names, sorted."""
    _ensure_registered()
    return tuple(sorted(_REGISTRY))


def get_entry(name: str) -> ExtractorEntry:
    """The registry entry behind ``name``; raises on unknown names."""
    _ensure_registered()
    entry = _REGISTRY.get(name)
    if entry is None:
        known = ", ".join(sorted(_REGISTRY))
        hint = ""
        matches = get_close_matches(name, _REGISTRY, n=1)
        if matches:
            hint = f" (did you mean {matches[0]!r}?)"
        raise RegistryError(
            f"unknown extractor {name!r}{hint}; available: {known}"
        )
    return entry


def entry_for(extractor: "FlexibilityExtractor") -> ExtractorEntry | None:
    """The entry an extractor *instance* was registered under, if any.

    Resolves through the MRO so subclasses of a registered approach (e.g. a
    tweaked ``FrequencyBasedExtractor`` variant) inherit its entry — and
    with it the input-grid routing — exactly like the historical
    ``isinstance`` checks did.
    """
    _ensure_registered()
    for cls in type(extractor).__mro__:
        entry = _BY_CLASS.get(cls)
        if entry is not None:
            return entry
    return None


@dataclasses.dataclass(frozen=True)
class _NestedConfig:
    field_name: str
    type_: type


def _nested_configs(cls: type) -> list[_NestedConfig]:
    """The routable nested config dataclasses of an extractor class.

    Nested types are discovered from the field's default/default_factory
    (all registered extractors default their config fields), so no
    annotation resolution is needed.
    """
    nested: list[_NestedConfig] = []
    for f in dataclasses.fields(cls):
        if f.name not in _NESTED_FIELDS:
            continue
        if f.default_factory is not MISSING:
            default = f.default_factory()
        elif f.default is not MISSING:
            default = f.default
        else:
            continue
        if dataclasses.is_dataclass(default):
            nested.append(_NestedConfig(field_name=f.name, type_=type(default)))
    return nested


def _coerce(field: dataclasses.Field, value: Any) -> Any:
    """Coerce JSON-level scalars to field types (numbers → timedelta seconds)."""
    if isinstance(value, bool):
        return value
    default = field.default
    if default is MISSING and field.default_factory is not MISSING:
        default = field.default_factory()
    if isinstance(default, timedelta) and isinstance(value, (int, float)):
        try:
            return timedelta(seconds=value)
        except (OverflowError, ValueError):
            raise RegistryError(
                f"parameter {field.name!r} must be a finite number of seconds "
                f"that fits a timedelta, got {value!r}"
            ) from None
    if isinstance(default, tuple) and isinstance(value, list):
        return tuple(value)
    return value


def create_extractor(name: str, **params: Any) -> "FlexibilityExtractor":
    """Instantiate a registered extractor from its name and flat parameters.

    Parameters matching the extractor's own dataclass fields are passed
    through; parameters matching a nested config dataclass
    (``params``/``matching``/``config``) are routed into a rebuilt nested
    instance.  Everything else raises :class:`RegistryError` naming the
    acceptable parameters.
    """
    entry = get_entry(name)
    cls = entry.cls
    own_fields = {f.name: f for f in dataclasses.fields(cls)}
    nested = _nested_configs(cls)

    direct: dict[str, Any] = {}
    nested_kwargs: dict[str, dict[str, Any]] = {n.field_name: {} for n in nested}
    nested_fields = {
        n.field_name: {f.name: f for f in dataclasses.fields(n.type_)} for n in nested
    }
    config_types = {n.field_name: n.type_ for n in nested}
    for key, value in params.items():
        if key in own_fields:
            if key in config_types and not isinstance(value, config_types[key]):
                raise RegistryError(
                    f"extractor {name!r}: parameter {key!r} must be a "
                    f"{config_types[key].__name__}, got {type(value).__name__}; "
                    f"pass its fields as flat parameters instead"
                )
            direct[key] = _coerce(own_fields[key], value)
            continue
        routed = False
        for n in nested:
            if key in nested_fields[n.field_name]:
                nested_kwargs[n.field_name][key] = _coerce(
                    nested_fields[n.field_name][key], value
                )
                routed = True
                break
        if not routed:
            accepted = ", ".join(entry.accepted_parameters())
            raise RegistryError(
                f"extractor {name!r} has no parameter {key!r}; accepted: {accepted}"
            )

    missing = [
        required
        for required in entry.required_parameters()
        if required not in direct
    ]
    if missing:
        raise RegistryError(
            f"extractor {name!r} requires parameter(s) "
            f"{', '.join(repr(m) for m in missing)} "
            f"(e.g. the multi-tariff approach needs a one-tariff "
            f"reference series of the same consumer)"
        )

    try:
        for n in nested:
            if not nested_kwargs[n.field_name]:
                continue
            if n.field_name in direct:
                # Mixing a whole config object with flat sub-parameters is
                # ambiguous (which wins?) — refuse rather than silently
                # dropping the flat overrides.
                flat = ", ".join(sorted(nested_kwargs[n.field_name]))
                raise RegistryError(
                    f"extractor {name!r}: parameter(s) {flat} conflict with the "
                    f"explicit {n.field_name!r} object; pass one or the other"
                )
            direct[n.field_name] = n.type_(**nested_kwargs[n.field_name])
        return cls(**direct)
    except RegistryError:
        raise
    except ReproError as exc:
        raise RegistryError(f"extractor {name!r}: {exc}") from exc


def registry_rows() -> list[dict[str, str]]:
    """One table row per registered approach (the ``repro approaches`` view)."""
    rows = []
    for name in available_extractors():
        entry = _REGISTRY[name]
        rows.append(
            {
                "approach": name,
                "level": entry.level,
                "input": GRID_OF_INPUT[entry.input],
                "strict": "yes" if entry.strict_grid else "no",
                "summary": entry.summary,
            }
        )
    return rows


def input_series_for(extractor: "FlexibilityExtractor", trace: Any):
    """Pick a household trace's series at the extractor's registered grid.

    Appliance-level approaches consume the 1-minute total series (the
    paper's §4 granularity requirement); everything else consumes the
    15-minute metering series.  Unregistered extractor classes default to
    the metering grid.
    """
    entry = entry_for(extractor)
    if entry is not None and entry.input == "total":
        return trace.total
    return trace.metered()
