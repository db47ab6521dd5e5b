"""The general flexibility-extraction contract (paper §2, Figure 2).

"The input of flexibility extraction is historical time series and the
context information ... then the potential flexibilities are extracted,
formulated as flex-offers and outputted together with the modified time
series (the flexible energy extracted from the original ones)."

Every approach in Figure 3 implements :class:`FlexibilityExtractor`:
``extract(series, rng) -> ExtractionResult``.  The result carries the
flex-offers, the modified series, and approach-specific extras (detected
peaks, appliance shortlists, ...), plus the invariants every approach must
honour — most importantly energy conservation: the expected energy of the
extracted offers equals the energy removed from the input series.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, ClassVar, Sequence

import numpy as np

from repro.flexoffer.model import FlexOffer
from repro.timeseries.series import TimeSeries


@dataclass(frozen=True)
class ExtractionResult:
    """Output of one extraction run (paper Figure 2's right-hand side)."""

    offers: list[FlexOffer]
    modified: TimeSeries
    original: TimeSeries
    extractor: str
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def extracted_energy(self) -> float:
        """Expected (profile-midpoint) energy across all offers (kWh).

        Matches the paper's accounting: "the total energy amount (the sum of
        the average required energy in the profile intervals) is equal to the
        flexible part extracted from the input time series".
        """
        return float(
            sum(sum(s.midpoint for s in offer.slices) for offer in self.offers)
        )

    @property
    def removed_energy(self) -> float:
        """Energy actually removed from the input series (kWh)."""
        return self.original.total() - self.modified.total()

    def energy_conservation_error(self) -> float:
        """|extracted − removed|; ~0 for conservative extractors."""
        return abs(self.extracted_energy - self.removed_energy)

    @property
    def extracted_share(self) -> float:
        """Extracted energy as a fraction of the original total."""
        total = self.original.total()
        return self.extracted_energy / total if total else 0.0

    def extracted_series(self) -> TimeSeries:
        """Per-interval expected extracted energy (original − modified)."""
        return (self.original - self.modified).with_name(f"{self.extractor}-extracted")

    def offers_per_day(self) -> float:
        """Average number of offers per day of input."""
        days = self.original.axis.length / self.original.axis.intervals_per_day
        return len(self.offers) / days if days else 0.0

    def summary(self) -> dict[str, float]:
        """Key numbers for reports and benchmark output.

        Each total is computed once, with the expressions of the properties
        above in their order, so the values are bitwise theirs.
        """
        extracted = self.extracted_energy
        total = self.original.total()
        return {
            "offers": float(len(self.offers)),
            "offers_per_day": self.offers_per_day(),
            "extracted_kwh": extracted,
            "extracted_share": extracted / total if total else 0.0,
            "conservation_error_kwh": abs(extracted - (total - self.modified.total())),
        }


@dataclass(frozen=True)
class DayTrail:
    """The day boundaries a day-local extraction passed, to resume it later.

    A day-local extractor builds each day's offers from that day's window
    and the generator alone, so its run can restart at any day boundary.
    ``marks[d]`` is ``(bit_generator.state, offers emitted so far)`` at the
    start of day ``d``; ``end`` is the same pair after the run's last day,
    and ``modified`` holds the run's modified values.  A run stopped before
    the series' all-zero last days (see :attr:`FlexibilityExtractor.day_local`)
    has fewer marks than the series has days: every later day would have
    marked ``end``.  Derived state: any extraction rebuilds it, nothing
    persists it.
    """

    marks: tuple[tuple[dict, int], ...]
    modified: np.ndarray
    end: tuple[dict, int]

    def checkpoint(
        self, day: int, first: int, offers: Sequence[FlexOffer]
    ) -> "DayCheckpoint":
        """The run's state at the start of ``day`` (interval ``first``).

        ``offers`` are the run's offers, as emitted or stamped with their
        household; the checkpoint keeps the ones of the earlier days.  A
        ``day`` past the marks resumes from the end mark.
        """
        marks = self.marks[: day + 1]
        marks += (self.end,) * (day + 1 - len(marks))
        return DayCheckpoint(
            day=day,
            marks=marks,
            offers=tuple(offers[: marks[day][1]]),
            modified=self.modified[:first],
        )


@dataclass(frozen=True)
class DayCheckpoint:
    """Where a day-local extraction stood at the start of day ``day``.

    ``marks`` are the trail's marks up to and including ``day``,
    ``offers`` the offers of the earlier days and ``modified`` the modified
    values before the day.  Formulating from a checkpoint runs only the
    days from ``day`` on and returns what a cold run returns, provided the
    input before the day is unchanged.
    """

    day: int
    marks: tuple[tuple[dict, int], ...]
    offers: tuple[FlexOffer, ...]
    modified: np.ndarray

    @property
    def rng_state(self) -> dict:
        """The generator's ``bit_generator.state`` at the start of the day."""
        return self.marks[self.day][0]

    @property
    def ids_minted(self) -> int:
        """Offer ids minted before the day: one per offer emitted."""
        return len(self.offers)


class FlexibilityExtractor(ABC):
    """Abstract base of the five extraction approaches (+ random baseline)."""

    #: Human-readable approach name (used in reports and offer ``source``).
    name: str = "abstract"

    #: True for extractors whose days are independent given the generator
    #: and whose all-zero days draw nothing and emit no offer.  Their
    #: ``detect_many`` takes ``stop_days``: a series is zero from its stop
    #: day on, so those days are neither detected nor formulated.
    day_local: ClassVar[bool] = False

    @abstractmethod
    def extract(self, series: TimeSeries, rng: np.random.Generator) -> ExtractionResult:
        """Extract flex-offers from a historical consumption series.

        Parameters
        ----------
        series:
            Historical consumption, energy per interval (kWh).  Household-
            level approaches expect the 15-minute metering grid; appliance-
            level approaches expect the 1-minute grid (see each class).
        rng:
            Source of randomness for the controlled attribute variation the
            paper prescribes.  Extraction is deterministic given the rng
            state.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
