"""The Basic extraction approach (paper §3.1, Figure 4).

"The process of the flexibility extraction starts with the division of input
time series into periods, and then one flex-offer is extracted for each of
the periods spanning few hours, then the fraction of flexibility within each
period is calculated (based on the configuration parameter).  Lastly, a
flex-offer for each period is extracted.  Afterwards, time and energy amount
flexibilities are built by applying some randomization to the constructed
flex-offers."

Context assumption: at any given time of the day, some of the household
consumption is flexible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.registry import register_extractor
from repro.errors import ExtractionError
from repro.extraction.base import ExtractionResult, FlexibilityExtractor
from repro.extraction.params import FlexOfferParams
from repro.timeseries.series import TimeSeries


@register_extractor(
    "basic",
    input="metered",
    level="household",
    summary="One flex-offer per fixed-length period, share-based split (§3.1)",
)
@dataclass(frozen=True)
class BasicExtractor(FlexibilityExtractor):
    """One flex-offer per fixed-length period, share-based energy split.

    Parameters
    ----------
    params:
        Attribute variation limits; ``params.flexible_share`` is the paper's
        "percentage of the flexible demand part".
    period_hours:
        Period length; the default 6 hours yields the four offers per day
        shown in Figure 4.
    consumer_id:
        Stamped on the produced offers.
    """

    params: FlexOfferParams = field(default_factory=FlexOfferParams)
    period_hours: int = 6
    consumer_id: str = ""

    name: str = "basic"

    def __post_init__(self) -> None:
        if self.period_hours < 1:
            raise ExtractionError("period_hours must be >= 1")

    def extract(self, series: TimeSeries, rng: np.random.Generator) -> ExtractionResult:
        """Extract one flex-offer per period of the input series."""
        axis = series.axis
        per_period = int(self.period_hours * axis.intervals_per_hour)
        if per_period < 1:
            raise ExtractionError(
                f"period of {self.period_hours} h is below the grid resolution"
            )
        modified = series.values.copy()
        offers = []
        for first in range(0, axis.length, per_period):
            length = min(per_period, axis.length - first)
            window = modified[first : first + length]
            period_energy = float(window.sum())
            flexible_energy = self.params.flexible_share * period_energy
            if flexible_energy <= 0.0:
                continue
            offer, removed = self._formulate(axis, first, length, window, flexible_energy, rng)
            if offer is None:
                continue
            window -= removed
            offers.append(offer)
        return ExtractionResult(
            offers=offers,
            modified=series.with_values(modified).with_name(f"{series.name}.modified"),
            original=series,
            extractor=self.name,
        )

    def _formulate(
        self,
        axis,
        first: int,
        length: int,
        window: np.ndarray,
        flexible_energy: float,
        rng: np.random.Generator,
    ):
        """Place one offer inside a period window.

        The profile occupies a random sub-block of the period; its per-slice
        energies follow the consumption shape within that sub-block (so the
        offer looks like the demand it came from), scaled to the flexible
        energy.  The removal vector is returned so the caller can subtract it
        from the series — capped at the available consumption per interval.
        """
        n_slices = min(self.params.draw_slice_count(rng), length)
        start_offset = int(rng.integers(0, length - n_slices + 1))
        block = window[start_offset : start_offset + n_slices]
        block_energy = float(block.sum())
        if block_energy <= 0.0:
            return None, None
        shape = block / block_energy
        energies = shape * flexible_energy
        # Cap removal at what is actually there, interval by interval; any
        # shortfall is dropped (cannot extract energy that was not consumed).
        removal = np.minimum(energies, block)
        if float(removal.sum()) <= 0.0:
            return None, None
        energies = removal
        earliest = axis.time_at(first + start_offset)
        # Time flexibility: drawn from params but kept inside the same day
        # horizon spirit of Figure 4 (each offer occupies "its own period").
        offer = self.params.build_offer(
            earliest_start=earliest,
            slice_energies=energies,
            rng=rng,
            source=self.name,
            resolution=axis.resolution,
            consumer_id=self.consumer_id,
        )
        removed = np.zeros_like(window)
        removed[start_offset : start_offset + n_slices] = removal
        return offer, removed
