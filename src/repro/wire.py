"""One field-driven codec for every wire format of the package.

Run specs, flex-offers with their schedules and aggregates, plain and zoned
schedule results, market clearings, series, run and conformance reports
and fault plans are JSON objects described by data:
:func:`wire_format` registers a :class:`Format` beside each class, and
:func:`encode`/:func:`decode` do the rest.  A format's keys are its
dataclass fields, typed by their annotations, unless it lists explicit
:class:`Key` s; every quirk of a format is a :class:`Format` field, and keys
omitted while a field holds its default are field metadata (:data:`OMIT`).
Annotations resolve on first use, and each class's plans are built once:
encoding an object is a loop over a precomputed tuple.

Decoding is total: whatever a document holds, it loads or raises the
format's :mod:`repro.errors` type.  :func:`guard` is the one place a
malformed input turns into a typed error, for this codec and for the
snapshot and journal readers of :mod:`repro.session.persistence`.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime, timedelta
from functools import cache
from importlib import import_module
from numbers import Integral, Real
from operator import attrgetter
from pathlib import Path
from types import NoneType, UnionType
from typing import Any, NamedTuple, TypeVar, Union, get_args, get_origin, get_type_hints

from repro.errors import DataError, ReproError

#: Field metadata: the key is omitted while the field holds its default, so
#: documents written before the field existed load and re-encode unchanged.
OMIT = {"omit": True}

T = TypeVar("T")

#: Decode defaults: the key must be present; absent, the constructor fills
#: the field in; the key is computed on encode and ignored on decode.
_REQUIRED: Any = object()
_CONSTRUCTOR: Any = object()
_COMPUTED: Any = object()


class Version(NamedTuple):
    """A format's written and checked ``"version"`` key."""

    number: int
    #: Names the format in the unsupported-version message.
    label: str
    #: An absent key is an error rather than the current version.
    required: bool = False


@dataclass(frozen=True)
class Key:
    """One key of a format whose wire shape is not its class's fields."""

    name: str
    #: What the value decodes to; a string names it in the class's module.
    hint: Any
    #: What the encoder writes, as a function of the object (default: the
    #: attribute ``name``).
    get: Callable[[Any], Any] | None = None
    #: The value when the key is absent.
    default: Any = _REQUIRED
    #: Left out on encode while the value equals ``default``.
    omit: bool = False


@dataclass(frozen=True)
class Format:
    """How one class travels as a JSON object.  Keys are named as on the
    wire."""

    #: Names the format in error messages.
    what: str
    #: What malformed input raises.
    error: type[ReproError] = DataError
    version: Version | None = None
    #: Field name -> key, where they differ.
    rename: Mapping[str, str] = field(default_factory=dict)
    #: The key order, where it is not the field order.
    order: tuple[str, ...] = ()
    #: Keys decoding needs although their field has a default.
    required: tuple[str, ...] = ()
    #: Keys written from a function of the object: a field in another form,
    #: or a key computed on encode and ignored on decode.
    get: Mapping[str, Callable[[Any], Any]] = field(default_factory=dict)
    #: The keys of a format whose wire shape is not its fields, and what
    #: builds the object from them.
    keys: tuple[Key, ...] = ()
    build: Callable[..., Any] | None = None
    #: Ints read into float fields become floats.
    widen: bool = False
    #: The class checks its own fields when built (the run specs), so
    #: decoding converts values but leaves the checks to it.
    validated: bool = False
    #: The key whose presence selects this format in a union of formats.
    selected_by: str | None = None
    #: Modules whose names the annotations use but the class's own module
    #: imports for type checking only.
    imports: tuple[str, ...] = ()


_FORMATS: dict[type, Format] = {}


def wire_format(what: str, **quirks: Any) -> Callable[[type[T]], type[T]]:
    """Class decorator (or plain call) registering the wire format of a class."""

    def register(cls: type[T]) -> type[T]:
        _FORMATS[cls] = Format(what, **quirks)
        return cls

    return register


def format_of(cls: type) -> Format:
    """The registered wire format of ``cls``."""
    return _FORMATS[cls]


@contextmanager
def guard(
    error: type[ReproError],
    what: str,
    keep: type[ReproError] = ReproError,
    malformed: str | None = None,
) -> Iterator[None]:
    """Raise malformed ``what`` input as ``error``, never a bare exception.

    A missing key names it; a value of the wrong type or shape names the
    cause, after ``malformed`` (default ``"malformed <what>"``).  Errors of
    type ``keep`` pass unchanged: by default every repo error, such as a
    model constructor's validation error or a nested format's version error.
    """
    try:
        yield
    except keep:
        raise
    except KeyError as exc:
        raise error(f"{what} missing field {exc}") from exc
    except (ReproError, AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise error(f"{malformed or 'malformed ' + what}: {exc}") from exc


def encode(obj: Any) -> dict[str, Any]:
    """The JSON mapping of ``obj``, an instance of a registered class."""
    return _encoder(type(obj))(obj)


def decode(hint: Any, data: Any) -> Any:
    """The object of type ``hint`` (a registered class, or a union of them
    told apart by their ``selected_by`` keys) that ``data`` describes."""
    fmt = _FORMATS[_selected(get_args(hint), None) if get_args(hint) else hint]
    with guard(fmt.error, f"{fmt.what} dict"):
        return _reader(hint, fmt.what, False, True)(data)


class Encodable:
    """The dict, JSON-text and file forms of a registered class's objects."""

    __slots__ = ()

    def to_dict(self) -> dict[str, Any]:
        return encode(self)

    @classmethod
    def from_dict(cls: type[T], data: Any) -> T:
        return decode(cls, data)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(encode(self), indent=indent)

    @classmethod
    def from_json(cls: type[T], text: str) -> T:
        """Invalid JSON raises the format's error too."""
        fmt = _FORMATS[cls]
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise fmt.error(f"{fmt.what} is not valid JSON: {exc}") from exc
        return decode(cls, data)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls: type[T], path: str | Path) -> T:
        return cls.from_json(Path(path).read_text())


@cache
def hints(cls: type) -> dict[str, Any]:
    """The resolved field annotations of ``cls`` (on first use, cached)."""
    return get_type_hints(cls, globalns=_namespace(cls))


@cache
def _namespace(cls: type) -> dict[str, Any]:
    namespace = dict(vars(sys.modules[cls.__module__]))
    for module in _FORMATS[cls].imports:
        namespace.update(vars(import_module(module)))
    return namespace


class _Plan(NamedTuple):
    #: ``(key, get, write, omit, default)`` per encoded key; ``get`` is an
    #: attribute name or a function of the object.
    encoded: tuple[tuple[str, str | Callable, Callable | None, bool, Any], ...]
    #: ``(key, argument, read, default)`` per decoded key.
    decoded: tuple[tuple[str, str, Callable[[Any], Any], Any], ...]
    #: Every key a document may hold.
    known: frozenset[str]


@cache
def _plan(cls: type) -> _Plan:
    fmt = _FORMATS[cls]
    keys = [(key, key.name) for key in fmt.keys] or _field_keys(cls, fmt)
    namespace = _namespace(cls)
    encoded, decoded = [], []
    for key, argument in keys:
        hint = eval(key.hint, namespace) if isinstance(key.hint, str) else key.hint
        get = key.get or key.name
        encoded.append((key.name, get, _writer(hint), key.omit, key.default))
        if key.default is not _COMPUTED:
            read = _reader(hint, f"{fmt.what}.{key.name}", fmt.widen, not fmt.validated)
            decoded.append((key.name, argument, read, key.default))
    if fmt.order:
        rank = {name: position for position, name in enumerate(fmt.order)}
        encoded.sort(key=lambda step: rank[step[0]])
    known = {key.name for key, _ in keys} | ({"version"} if fmt.version else set())
    return _Plan(tuple(encoded), tuple(decoded), frozenset(known))


def _field_keys(cls: type, fmt: Format) -> list[tuple[Key, str]]:
    """A dataclass's keys, each with the field it fills: its constructor
    fields (``version`` aside when the format writes its own; derived
    ``init=False`` fields never travel), then the keys computed on
    encode."""
    field_hints = hints(cls)
    keys = []
    for f in fields(cls):
        if not f.init or (fmt.version and f.name == "version"):
            continue
        name = fmt.rename.get(f.name, f.name)
        omit = bool(f.metadata.get("omit"))
        no_default = f.default is MISSING and f.default_factory is MISSING
        if omit:
            default = f.default
        elif no_default or name in fmt.required:
            default = _REQUIRED
        else:
            default = _CONSTRUCTOR
        get = fmt.get.get(name) or f.name
        keys.append((Key(name, field_hints[f.name], get, default, omit), f.name))
    names = {key.name for key, _ in keys}
    computed = [name for name in fmt.get if name not in names]
    return keys + [(Key(name, Any, fmt.get[name], _COMPUTED), name) for name in computed]


@cache
def _encoder(cls: type) -> Callable[[Any], dict[str, Any]]:
    steps = tuple(
        (key, attrgetter(get) if isinstance(get, str) else get, write, omit, default)
        for key, get, write, omit, default in _plan(cls).encoded
    )
    version = _FORMATS[cls].version
    head = {} if version is None else {"version": version.number}

    def encode_one(obj: Any) -> dict[str, Any]:
        encoded = dict(head)
        for key, get, write, omit, default in steps:
            value = get(obj)
            if omit and value == default:
                continue
            encoded[key] = value if write is None else write(value)
        return encoded

    return encode_one


@cache
def _writer(hint: Any) -> Callable[[Any], Any] | None:
    """How a value of type ``hint`` is written (``None``: as it is)."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (UnionType, Union):
        members = [arg for arg in args if arg is not NoneType]
        inner = _writer(members[0]) if len(members) == 1 else encode
        if inner is None:
            return None
        return lambda value: None if value is None else inner(value)
    if origin in (tuple, list):
        item = _writer(args[0])
        return list if item is None else lambda value: [item(x) for x in value]
    if origin is Mapping or origin is dict:
        return dict
    if hint in _FORMATS:
        return _encoder(hint)
    if hint is datetime:
        return datetime.isoformat
    if hint is timedelta:
        return timedelta.total_seconds
    return None


def _decode(cls: type, data: Any) -> Any:
    fmt = _FORMATS[cls]
    if not isinstance(data, Mapping):
        raise TypeError(f"{fmt.what}: expected a mapping, got {type(data).__name__}")
    plan = _plan(cls)
    if fmt.version:
        _check_version(fmt, data)
    unknown = data.keys() - plan.known
    if unknown:
        raise ValueError(
            f"{fmt.what}: unknown key(s) {', '.join(sorted(map(repr, unknown)))}; "
            f"allowed: {', '.join(step[0] for step in plan.decoded)}"
        )
    arguments = {}
    for key, argument, read, default in plan.decoded:
        if key in data:
            arguments[argument] = read(data[key])
        elif default is _REQUIRED:
            raise ValueError(f"{fmt.what}: missing required key {key!r}")
        elif default is not _CONSTRUCTOR:
            arguments[argument] = default
    return (fmt.build or cls)(**arguments)


def _check_version(fmt: Format, data: Mapping[str, Any]) -> None:
    version = fmt.version
    if "version" not in data and version.required:
        raise ValueError(f"{fmt.what}: missing field: 'version'")
    found = data.get("version", version.number)
    if type(found) is not int or found != version.number:
        raise fmt.error(f"unsupported {version.label} version {found!r}")


_SCALARS: dict[Any, tuple[Any, str]] = {
    int: (Integral, "int"),
    float: (Real, "int/float"),
    str: (str, "str"),
    bool: (bool, "bool"),
}


@cache
def _reader(hint: Any, where: str, widen: bool, check: bool) -> Callable[[Any], Any]:
    """How a wire value becomes a ``hint``: converted, and with ``check``
    type-checked, or a bare error naming ``where`` (:func:`guard` types it)."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (UnionType, Union):
        members = [arg for arg in args if arg is not NoneType]
        if len(members) == 1:
            inner = _reader(members[0], where, widen, check)
        else:
            inner = lambda value: _decode(_selected(args, value), value)  # noqa: E731
        if NoneType not in args:
            return inner
        return lambda value: None if value is None else inner(value)
    if origin in (tuple, list):
        item = _reader(args[0], f"{where}[]", widen, check)

        def read_items(value: Any) -> Any:
            if not isinstance(value, (list, tuple)):
                if check:
                    raise TypeError(_wrong(where, "list", value))
                return value
            return origin(item(x) for x in value)

        return read_items
    if origin is Mapping or origin is dict:
        key = _reader(args[0], f"{where} key", widen, check)

        def read_mapping(value: Any) -> Any:
            if not check:
                return value
            if not isinstance(value, Mapping):
                raise TypeError(_wrong(where, "mapping", value))
            for name in value:
                key(name)
            return dict(value)

        return read_mapping
    if hint in _FORMATS:
        return lambda value: _decode(hint, value)
    if hint is datetime:
        return lambda value: _read_datetime(value, where)
    if hint is timedelta:
        return lambda value: timedelta(seconds=_read_scalar(value, float, where, True))
    if hint in _SCALARS:
        return lambda value: _read_scalar(value, hint, where, check, widen)
    return lambda value: value


def _read_scalar(
    value: Any, hint: type, where: str, check: bool, widen: bool = False
) -> Any:
    expected, label = _SCALARS[hint]
    if check and (
        not isinstance(value, expected) or (isinstance(value, bool) and hint is not bool)
    ):
        raise TypeError(_wrong(where, label, value))
    if widen and hint is float and type(value) is int:
        return float(value)
    return value


def _read_datetime(value: Any, where: str) -> datetime:
    if not isinstance(value, str):
        raise TypeError(f"{where}: expected an ISO date string, got {type(value).__name__}")
    try:
        return datetime.fromisoformat(value)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _selected(members: tuple[type, ...], value: Any) -> type:
    """The member format a union reads ``value`` as."""
    formats = [(m, _FORMATS[m].selected_by) for m in members if m in _FORMATS]
    if isinstance(value, Mapping):
        for member, key in formats:
            if key in value:
                return member
    return next(member for member, key in formats if not key)


def _wrong(where: str, label: str, value: Any) -> str:
    return f"{where}: expected {label}, got {type(value).__name__}"
