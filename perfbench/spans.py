"""Spans recorded around the public calls of each layer, from outside the program.

:func:`instrument` swaps each hooked function or method for a wrapper that
records one :class:`Span` per call (name, start, end, parent span and run
id) and puts the originals back on exit.  Spans nest through a stack, so a
span's self time is its duration minus the durations of its direct
children.  Spans stay in memory; :func:`write_spans` saves them once the
run is over.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator


@dataclass
class Span:
    """One call into a layer."""

    id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """The spans and counters of one traced benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.run_id = ""
        self._stack: list[Span] = []

    @property
    def current(self) -> Span | None:
        """The innermost open span (the parent of the next one)."""
        return self._stack[-1] if self._stack else None

    def open(self, name: str) -> Span:
        parent = self.current
        span = Span(
            id=len(self.spans),
            name=name,
            parent=None if parent is None else parent.id,
            run_id=self.run_id,
            start=perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        if not self._stack or self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def run_spans(self, run_id: str) -> list[Span]:
        return [span for span in self.spans if span.run_id == run_id]


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover."""
    spans = list(spans)
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def busy_by_name(spans: Iterable[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.id]
    return dict(totals)


def root_time(spans: Iterable[Span]) -> float:
    """Time covered by top-level spans: the part of a run some layer claims."""
    return sum(span.duration for span in spans if span.parent is None)


def write_spans(spans: Iterable[Span], path: Path) -> None:
    """Save spans as JSON lines (times are ``perf_counter`` seconds)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")


#: ``before(tracer, args, kwargs) -> state`` runs ahead of a hooked call.
Before = Callable[[Tracer, tuple, dict], Any]
#: ``after(tracer, args, kwargs, result, state)`` runs once it returned; for
#: a generator, ``result`` is the list of the items it yielded.
After = Callable[[Tracer, tuple, dict, Any, Any], None]


@dataclass(frozen=True)
class Hook:
    """One wrapped callable.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``;
    ``span`` names the spans its calls record (``None`` only counts).
    """

    target: str
    span: str | None
    before: Before | None = None
    after: After | None = None
    generator: bool = False


def _resolve(target: str) -> tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _wrap(tracer: Tracer, hook: Hook, original: Callable) -> Callable:
    if hook.generator:

        @functools.wraps(original)
        def traced_generator(*args, **kwargs):
            state = hook.before(tracer, args, kwargs) if hook.before else None
            span = tracer.open(hook.span)
            items = []
            try:
                for item in original(*args, **kwargs):
                    items.append(item)
                    yield item
            finally:
                tracer.close(span)
            if hook.after:
                hook.after(tracer, args, kwargs, items, state)

        return traced_generator

    @functools.wraps(original)
    def traced(*args, **kwargs):
        state = hook.before(tracer, args, kwargs) if hook.before else None
        span = tracer.open(hook.span) if hook.span else None
        try:
            result = original(*args, **kwargs)
        finally:
            if span is not None:
                tracer.close(span)
        if hook.after:
            hook.after(tracer, args, kwargs, result, state)
        return result

    return traced


def _swept_modules(packages: tuple[str, ...]) -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and name.split(".")[0] in packages
    ]


@contextmanager
def instrument(
    tracer: Tracer,
    hooks: Iterable[Hook],
    packages: tuple[str, ...] = ("repro", "perfbench"),
) -> Iterator[Tracer]:
    """Record spans for every hooked call made inside the ``with`` block.

    A function is replaced on its own module and in every loaded module of
    ``packages`` that imported it by name; a method is replaced on its
    class.  Everything is put back on exit.
    """
    wrappers: dict[int, tuple[Callable, Callable]] = {}
    undo: list[tuple[Any, str, Any]] = []
    try:
        for hook in hooks:
            owner, attr = _resolve(hook.target)
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = _wrap(tracer, hook, original)
            wrappers[id(wrapper)] = (wrapper, original)
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for module in _swept_modules(packages):
                for name, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, name, original))
                        setattr(module, name, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        # A module first imported inside the block may have bound a wrapper.
        for module in _swept_modules(packages):
            for name, value in list(vars(module).items()):
                known = wrappers.get(id(value))
                if known is not None and known[0] is value:
                    setattr(module, name, known[1])
