"""Per-item public calls answered by one batched run.

Some engines are fastest over many items at once, while their public call
takes one item: :func:`~repro.disaggregation.matching.match_pursuit` one
household, :func:`~repro.scheduling.stochastic.improve_schedule` one zone.
A caller holding every item opens a :class:`BatchScope` block over them;
inside it, the first per-item call on a member runs the batched engine
over every member, and each call returns its member's share of that run.
Callers keep one call per item — and whatever observes those calls keeps
seeing one per item — while the work itself runs batched.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Generic, TypeVar

T = TypeVar("T")


@dataclass
class _Batch(Generic[T]):
    members: list[tuple[Any, ...]]
    settings: tuple[Any, ...]
    run: Callable[[], Sequence[T]]
    results: Sequence[T] | None = None
    answered: set[int] = field(default_factory=set)

    def answer(self, member: tuple[Any, ...], settings: tuple[Any, ...]) -> T | None:
        if settings != self.settings:
            return None
        for index, candidate in enumerate(self.members):
            if all(a is b for a, b in zip(candidate, member)):
                if self.results is None:
                    self.results = self.run()
                if index in self.answered:
                    return None
                self.answered.add(index)
                return self.results[index]
        return None


class BatchScope(Generic[T]):
    """A block in which per-item calls are answered by one batched run.

    A call is answered when every part of its ``member`` tuple *is* (by
    identity) the matching part of a member the block was opened over, and
    its ``settings`` equal the block's.  Each member is answered once: a
    repeated call runs on its own, so a call that consumes a generator
    draws on from where the batched run left it.
    """

    def __init__(self, name: str) -> None:
        self._batch: ContextVar[_Batch[T] | None] = ContextVar(name, default=None)

    @contextmanager
    def open(
        self,
        members: Sequence[tuple[Any, ...]],
        settings: tuple[Any, ...],
        run: Callable[[], Sequence[T]],
    ) -> Iterator[None]:
        """Answer calls on ``members`` with ``settings`` from ``run()``,
        which returns one result per member, in order, on the first call."""
        token = self._batch.set(_Batch(list(members), settings, run))
        try:
            yield
        finally:
            self._batch.reset(token)

    def answer(self, member: tuple[Any, ...], settings: tuple[Any, ...]) -> T | None:
        """The open block's result for this call, or ``None`` when no open
        block answers it."""
        batch = self._batch.get()
        return None if batch is None else batch.answer(member, settings)
