"""BatchScope: per-item calls answered by one batched run."""

from __future__ import annotations

from repro.batching import BatchScope


def test_members_are_answered_once_from_one_lazy_run():
    scope: BatchScope[str] = BatchScope("test")
    a, b = object(), object()
    runs = []

    def run():
        runs.append(1)
        return ["a", "b"]

    assert scope.answer((a,), ()) is None
    with scope.open([(a,), (b,)], (), run):
        assert runs == []
        assert scope.answer((b,), ()) == "b"
        assert scope.answer((a,), ()) == "a"
        # A repeated call is not answered: it runs on its own.
        assert scope.answer((a,), ()) is None
        assert runs == [1]
    assert scope.answer((b,), ()) is None


def test_members_match_by_identity_and_settings_by_equality():
    scope: BatchScope[int] = BatchScope("test")
    key, config = [1], {"iterations": 3}
    with scope.open([(key, config)], (3,), lambda: [7]):
        assert scope.answer(([1], config), (3,)) is None  # equal, not the same
        assert scope.answer((key, config), (4,)) is None
        assert scope.answer((key, config), (3,)) == 7


def test_blocks_nest_and_restore_the_outer_block():
    scope: BatchScope[str] = BatchScope("test")
    outer, inner = object(), object()
    with scope.open([(outer,)], (), lambda: ["outer"]):
        with scope.open([(inner,)], (), lambda: ["inner"]):
            assert scope.answer((outer,), ()) is None
            assert scope.answer((inner,), ()) == "inner"
        assert scope.answer((outer,), ()) == "outer"
