"""Properties of the derived arrays and totals a flex-offer keeps.

A :class:`~repro.flexoffer.model.FlexOffer` computes its total-energy bounds
at construction and its per-slice and expanded arrays on first use, then
keeps them.  The caches must be invisible: bitwise what a fresh computation
from the slices gives, read-only, rebuilt by every transformation of the
profile or the times (a new consumer shares them), and kept out of
equality, hashing, pickles and the wire.
"""

from __future__ import annotations

import pickle
from dataclasses import replace
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flexoffer.io import flexoffer_from_dict, flexoffer_to_dict
from repro.flexoffer.model import FlexOffer, ProfileSlice

START = datetime(2012, 3, 5)

#: The flex-offer wire keys, in order: derived fields never travel.
WIRE_KEYS = [
    "version", "offer_id", "consumer_id", "appliance", "source", "earliest_start",
    "latest_start", "resolution_seconds", "creation_time", "acceptance_deadline",
    "assignment_deadline", "total_energy_min", "total_energy_max", "slices",
]

energies = st.floats(-50.0, 50.0, allow_nan=False, allow_subnormal=False)


@st.composite
def offers(draw) -> FlexOffer:
    """Offers with multi-interval slices and, at times, explicit totals."""
    bounds = draw(st.lists(st.tuples(energies, energies), min_size=1, max_size=8))
    slices = tuple(
        ProfileSlice(min(a, b), max(a, b), draw(st.integers(1, 4))) for a, b in bounds
    )
    low = sum(s.energy_min for s in slices)
    high = sum(s.energy_max for s in slices)
    total_min = draw(st.none() | st.floats(low - 5.0, low + 0.5 * (high - low)))
    floor = low if total_min is None else max(low, total_min)
    total_max = draw(st.none() | st.floats(floor, high + 5.0))
    return FlexOffer(
        earliest_start=START,
        latest_start=START + timedelta(minutes=15 * draw(st.integers(0, 40))),
        slices=slices,
        offer_id="fo-cache",
        total_energy_min=total_min,
        total_energy_max=total_max,
    )


def fresh(offer: FlexOffer) -> dict:
    """Every cached value, computed from the slices as the offer once did."""
    mins = [s.energy_min for s in offer.slices]
    maxs = [s.energy_max for s in offer.slices]
    durations = np.array([s.duration for s in offer.slices])
    tmin, tmax = sum(s.energy_min for s in offer.slices), sum(s.energy_max for s in offer.slices)
    profile = (tmin, tmax)
    if offer.total_energy_min is not None:
        tmin = max(tmin, offer.total_energy_min)
    if offer.total_energy_max is not None:
        tmax = min(tmax, offer.total_energy_max)
    return {
        "profile": profile,
        "bounds": (tmin, tmax),
        "slices": (np.array(mins), np.array(maxs), durations),
        "expansion": (
            np.repeat(np.array(mins) / durations, durations),
            np.repeat(np.array(maxs) / durations, durations),
        ),
    }


def cached(offer: FlexOffer) -> dict:
    return {
        "profile": (offer.profile_energy_min, offer.profile_energy_max),
        "bounds": offer.effective_total_bounds(),
        "slices": offer.slice_arrays(),
        "expansion": offer.slice_expansion_arrays(),
    }


def assert_bitwise(left: dict, right: dict) -> None:
    assert repr(left["profile"]) == repr(right["profile"])
    assert repr(left["bounds"]) == repr(right["bounds"])
    for part in ("slices", "expansion"):
        for a, b in zip(left[part], right[part], strict=True):
            assert a.dtype.kind == b.dtype.kind
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCaches:
    @settings(max_examples=200, deadline=None)
    @given(offers())
    def test_cached_values_equal_a_fresh_computation_bitwise(self, offer):
        assert_bitwise(cached(offer), fresh(offer))
        # Asked again, the offer hands out the very same arrays.
        assert offer.slice_expansion_arrays()[0] is offer.slice_expansion_arrays()[0]

    @settings(max_examples=50, deadline=None)
    @given(offers())
    def test_arrays_are_read_only(self, offer):
        for array in (*offer.slice_arrays(), *offer.slice_expansion_arrays()):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    @settings(max_examples=100, deadline=None)
    @given(offers(), st.floats(0.0, 3.0), st.integers(-8, 8), st.integers(0, 8))
    def test_transformations_return_fresh_caches(self, offer, factor, shift, flexibility):
        before = cached(offer)
        derived = [
            replace(offer, slices=offer.slices[::-1]),
            replace(offer, total_energy_min=None, total_energy_max=None),
            offer.shifted(timedelta(minutes=15 * shift)),
            offer.scaled(factor),
            offer.with_time_flexibility(timedelta(minutes=15 * flexibility)),
        ]
        for other in derived:
            assert_bitwise(cached(other), fresh(other))
            assert other.slice_expansion_arrays()[0] is not before["expansion"][0]
        assert_bitwise(cached(offer), before)

    @settings(max_examples=100, deadline=None)
    @given(offers())
    def test_equality_hash_and_pickle_ignore_the_caches(self, offer):
        cold = replace(offer)  # nothing derived yet beyond the totals
        offer.slice_expansion_arrays()
        assert cold._arrays is None and offer._arrays is not None
        assert cold == offer and hash(cold) == hash(offer)
        assert pickle.dumps(cold) == pickle.dumps(offer)
        restored = pickle.loads(pickle.dumps(offer))
        assert restored == offer and hash(restored) == hash(offer)
        assert restored._arrays is None
        assert_bitwise(cached(restored), fresh(offer))

    @settings(max_examples=50, deadline=None)
    @given(offers())
    def test_wire_encoding_carries_no_cache(self, offer):
        offer.slice_expansion_arrays()
        encoded = flexoffer_to_dict(offer)
        assert list(encoded) == WIRE_KEYS
        assert flexoffer_from_dict(encoded) == offer

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(energies, energies), min_size=1, max_size=8))
    def test_from_bounds_is_the_offer_of_its_unit_slices(self, bounds):
        mins = np.array([min(a, b) for a, b in bounds])
        maxs = np.array([max(a, b) for a, b in bounds])
        built = FlexOffer.from_bounds(
            mins.copy(), maxs.copy(), earliest_start=START, latest_start=START, offer_id="x"
        )
        plain = FlexOffer(
            earliest_start=START,
            latest_start=START,
            slices=tuple(ProfileSlice(lo, hi) for lo, hi in zip(mins.tolist(), maxs.tolist())),
            offer_id="x",
        )
        assert built == plain
        assert_bitwise(cached(built), fresh(plain))
        assert pickle.dumps(built) == pickle.dumps(plain)

    @settings(max_examples=100, deadline=None)
    @given(offers(), st.booleans(), st.text(min_size=1, max_size=6))
    def test_with_consumer_is_the_replaced_offer_sharing_its_caches(self, offer, warm, consumer):
        if warm:
            offer.slice_expansion_arrays()
        owned = offer.with_consumer(consumer)
        replaced = replace(offer, consumer_id=consumer)
        assert owned == replaced and hash(owned) == hash(replaced)
        assert pickle.dumps(owned) == pickle.dumps(replaced)
        assert flexoffer_to_dict(owned) == flexoffer_to_dict(replaced)
        assert owned._arrays is offer._arrays
        assert_bitwise(cached(owned), fresh(replaced))
        assert offer.consumer_id == ""
