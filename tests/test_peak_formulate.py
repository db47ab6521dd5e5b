"""``PeakBasedExtractor.formulate`` against the per-day loop it replaced.

The oracle below is the per-day formulation as ``peak-based`` ran it with
``Generator.choice`` and offers built slice by slice: per day, filter the
peaks, draw a peak with ``choice``, draw the slice count, search the
heaviest stretch with ``numpy.convolve``, shape the block's energy and
build the offer from ``ProfileSlice`` objects.  ``formulate`` draws its
peak with :func:`~repro.extraction.peaks.choose_index` and builds its
offers from bound vectors, and must reproduce the oracle bitwise (offers,
modified values, day marks, the generator's final state, or the error
raised), on cold and on resumed runs.

``tests/test_peak_golden.py`` pins the common paths.  These series also
take the rare ones: days whose chosen block has no energy (they end their
draws early), candidates of mixed signs (which ``choice`` refuses),
fallback days, flat days and short last days, and days built by hand
whose block mixes signs or whose peak sizes overflow.
"""

from __future__ import annotations

import warnings
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.extraction.params import FlexOfferParams
from repro.extraction.peaks import (
    DayPeaks,
    Peak,
    PeakBasedExtractor,
    choose_index,
    filter_peaks,
    selection_probabilities,
)
from repro.flexoffer.io import flexoffer_to_dict
from repro.flexoffer.model import FlexOffer, ProfileSlice, next_offer_id, offer_id_scope
from repro.timeseries.axis import TimeAxis
from repro.timeseries.series import TimeSeries

START = datetime(2012, 3, 5)
HOURLY = timedelta(hours=1)


def slice_built_offer(params, earliest, resolution, energies, rng, source, consumer_id):
    """``FlexOfferParams.build_offer`` as it built offers slice by slice."""
    if (energies < 0).any():
        raise ValidationError("slice energies must be non-negative")
    low, high = params.draw_energy_band(rng)
    centre = 0.5 * (low + high)
    low, high = low / centre, high / centre
    flexibility = params.draw_time_flexibility(rng, resolution)
    creation, acceptance, assignment = params.draw_deadlines(earliest, rng)
    return FlexOffer(
        earliest_start=earliest,
        latest_start=earliest + flexibility,
        slices=tuple(ProfileSlice(float(low * e), float(high * e)) for e in energies),
        resolution=resolution,
        offer_id=next_offer_id(source),
        consumer_id=consumer_id,
        source=source,
        creation_time=creation,
        acceptance_deadline=acceptance,
        assignment_deadline=assignment,
    )


def per_day(extractor, series, detected, rng, checkpoint=None):
    """The per-day formulation: ``(offers, modified values, marks)``."""
    params = extractor.params
    axis = series.axis
    modified = series.values.copy()
    offers, marks, start = [], [], 0
    if checkpoint is not None:
        start = checkpoint.day
        modified[: checkpoint.modified.size] = checkpoint.modified
        offers = list(checkpoint.offers)
        marks = list(checkpoint.marks[:start])
        rng.bit_generator.state = checkpoint.rng_state
    for day in detected:
        if day.index < start:
            continue
        marks.append((rng.bit_generator.state, len(offers)))
        window = modified[day.first : day.first + day.length]
        flexible = params.flexible_share * day.energy
        candidates = filter_peaks(day.peaks, flexible)
        if not candidates:
            if not extractor.fallback_to_largest or not day.peaks:
                continue
            candidates = [max(day.peaks, key=lambda p: p.size)]
        probabilities = selection_probabilities(candidates)
        chosen = candidates[int(rng.choice(len(candidates), p=probabilities))]
        n = max(min(params.draw_slice_count(rng), min(params.slices_max, chosen.length)), 1)
        values = window[chosen.first : chosen.first + chosen.length]
        offset = (
            0
            if chosen.length == n
            else int(np.argmax(np.convolve(values, np.ones(n), mode="valid")))
        )
        block = values[offset : offset + n]
        block_energy = float(block.sum())
        if block_energy <= 0.0:
            continue
        energies = np.minimum(block / block_energy * flexible, block)
        if float(energies.sum()) <= 0.0:
            continue
        offers.append(
            slice_built_offer(
                params,
                axis.time_at(day.first + chosen.first + offset),
                axis.resolution,
                energies,
                rng,
                extractor.name,
                extractor.consumer_id,
            )
        )
        window[chosen.first + offset : chosen.first + offset + n] -= energies
    return offers, modified, marks


def outcome(run):
    """A run's comparable outcome: ``(error, result)``, the error as its
    type and message (``None`` when the run returned)."""
    try:
        return None, run()
    except (ValidationError, ValueError) as error:
        return (type(error), str(error)), None


#: Per-day shapes: ordinary consumption, all-negative days whose peaks hold
#: no energy, mixed signs, flat days and empty days.
DAY_VALUES = {
    "consumption": st.floats(0.0, 3.0, allow_subnormal=False),
    "negative": st.sampled_from([-1.0, -0.75, -0.5, -0.2, -0.1]),
    "mixed": st.sampled_from([-0.5, 0.0, 0.1, 0.4, 1.0, 2.5]),
    "flat": st.just(0.3),
    "zero": st.just(0.0),
}


@st.composite
def meter_series(draw, hours_per_day: int = 24) -> TimeSeries:
    days = draw(st.integers(1, 4))
    values = []
    for _ in range(days):
        kind = draw(st.sampled_from(sorted(DAY_VALUES)))
        values += draw(st.lists(DAY_VALUES[kind], min_size=hours_per_day, max_size=hours_per_day))
    values = values[: len(values) - draw(st.integers(0, hours_per_day - 1))]
    axis = TimeAxis(START, HOURLY, len(values))
    return TimeSeries(axis, np.array(values), "meter")


extractors = st.builds(
    PeakBasedExtractor,
    params=st.builds(
        FlexOfferParams,
        flexible_share=st.sampled_from([0.05, 0.2, 0.6]),
        slices_min=st.integers(1, 3),
        slices_max=st.sampled_from([3, 8, 14]),
    ),
    fallback_to_largest=st.booleans(),
)


def views(offers) -> list[dict]:
    return [flexoffer_to_dict(offer) for offer in offers]


class TestAgainstThePerDayLoop:
    @settings(max_examples=150, deadline=None)
    @given(extractors, meter_series(), st.integers(0, 2**32))
    def test_formulate_equals_the_per_day_loop(self, extractor, series, seed):
        (detected,) = extractor.detect_many([series])
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)

        def formulated():
            with offer_id_scope("day"):
                return extractor.formulate(series, detected, rng)

        def oracle():
            with offer_id_scope("day"):
                return per_day(extractor, series, detected, oracle_rng)

        (error, got), (expected_error, expected) = outcome(formulated), outcome(oracle)
        assert error == expected_error
        if error is not None:
            return
        offers, modified, marks = expected
        assert views(got.offers) == views(offers)
        assert got.modified.values.tobytes() == modified.tobytes()
        assert got.extras["trail"].marks == tuple(marks)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(extractors, st.lists(meter_series(), min_size=1, max_size=3), st.integers(0, 2**32),
           st.data())
    def test_resumes_sharing_one_generator_equal_the_per_day_resume(
        self, extractor, series, seed, data
    ):
        # A session resumes many households from their day checkpoints with
        # one shared generator, each restored from its own checkpoint.
        cold = []
        for i, s in enumerate(series):
            with offer_id_scope(f"h{i}"):
                try:
                    cold.append(extractor.extract(s, np.random.default_rng(seed + i)))
                except (ValidationError, ValueError):
                    return
        checkpoints = []
        for s, result in zip(series, cold):
            trail = result.extras["trail"]
            day = data.draw(st.integers(0, len(trail.marks) - 1))
            checkpoints.append(
                trail.checkpoint(day, day * s.axis.intervals_per_day, result.offers)
            )
        detected = extractor.detect_many(series, [checkpoint.day for checkpoint in checkpoints])
        shared = np.random.default_rng(seed + 1000)
        for i, (s, days, checkpoint) in enumerate(zip(series, detected, checkpoints)):
            with offer_id_scope(f"h{i}", start=checkpoint.ids_minted):
                result = extractor.formulate(s, days, shared, checkpoint)
            with offer_id_scope(f"h{i}", start=checkpoint.ids_minted):
                offers, modified, marks = per_day(
                    extractor, s, days, np.random.default_rng(0), checkpoint
                )
            assert views(result.offers) == views(offers) == views(cold[i].offers)
            assert result.modified.values.tobytes() == modified.tobytes()
            assert result.extras["trail"].marks == tuple(marks) == cold[i].extras["trail"].marks


def hand_built_day(kind: str, index: int) -> tuple[list[float], list[Peak]]:
    """A day's values and peaks, built by hand: ``mixed`` chooses a block
    of mixed signs whose shaped energies are partly negative; ``overflow``
    has a candidate of infinite size, so its probabilities hold a NaN."""
    if kind == "mixed":
        values = [0.0] * 24
        values[4:6] = [-0.5, 2.0]
        return values, [Peak(first=4, length=2, size=1.5, highest=2.0)]
    values = [0.2] * 24
    if kind == "overflow":
        return values, [Peak(0, 2, float("inf"), 0.2), Peak(5, 2, 0.4, 0.2)]
    values[8:12] = [1.0 + index, 2.0, 1.5, 0.5]
    return values, [Peak(first=8, length=4, size=5.0 + index, highest=2.0 + index)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["ordinary", "mixed", "overflow"]), min_size=1, max_size=4),
       st.integers(0, 2**32))
def test_the_first_failing_day_raises_as_in_the_per_day_loop(kinds, seed):
    values, detected = [], []
    for index, kind in enumerate(kinds):
        day, peaks = hand_built_day(kind, index)
        detected.append(DayPeaks(index, 24 * index, 24, float(sum(day)), peaks))
        values += day
    series = TimeSeries(TimeAxis(START, HOURLY, len(values)), np.array(values), "meter")
    extractor = PeakBasedExtractor(FlexOfferParams(flexible_share=0.5, slices_min=2))

    def formulated():
        result = extractor.formulate(series, detected, np.random.default_rng(seed))
        return views(result.offers)

    def oracle():
        return views(per_day(extractor, series, detected, np.random.default_rng(seed))[0])

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with offer_id_scope("hand"):
            got = outcome(formulated)
        with offer_id_scope("hand"):
            expected = outcome(oracle)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert got == expected
    error, _ = got
    failing = [kind for kind in kinds if kind != "ordinary"]
    assert (error is None) == (not failing)
    if failing:
        assert error[0] is (ValidationError if failing[0] == "mixed" else ValueError)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=9).filter(lambda s: sum(s) > 0),
       st.integers(0, 2**32))
def test_choose_index_is_generator_choice(sizes, seed):
    probabilities = selection_probabilities([Peak(0, 1, size, size) for size in sizes])
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    assert choose_index(probabilities, ours) == numpys.choice(len(sizes), p=probabilities)
    assert ours.bit_generator.state == numpys.bit_generator.state


@pytest.mark.parametrize(
    "probabilities", [[np.nan, 0.5], [-0.5, 1.5], [0.3, 0.3], [np.inf, 0.0], [0.0]]
)
def test_choose_index_refuses_what_generator_choice_refuses(probabilities):
    probabilities = np.array(probabilities)
    with pytest.raises(ValueError) as ours:
        choose_index(probabilities, np.random.default_rng(0))
    with pytest.raises(ValueError) as numpys:
        np.random.default_rng(0).choice(len(probabilities), p=probabilities)
    assert str(ours.value) == str(numpys.value)
