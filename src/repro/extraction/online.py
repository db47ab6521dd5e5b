"""Real-time flex-offer generation (paper §6, future work — implemented).

"The appliance level extraction approaches can be easily extended to the
real-time flex-offer generators, which detect flexibilities and formulate
flex-offers based on the usual appliance usage or the given (mined) schedule
of the household."

Two operating modes, both built on a training pass over historical data.
Training is the schedule-based extractor's detection (disaggregation →
frequency table → mined schedules), so the generator extends the same
appliance-level engine the frequency- and schedule-based extractors share:

* **anticipatory** — before a day starts, emit *predicted* flex-offers for
  the appliances the household habitually runs on such a day, positioned on
  the mined habit windows.  This is what MIRABEL's day-ahead scheduling
  needs: offers exist before the energy is consumed.
* **reactive** — consume a live stream of 1-minute readings; when the first
  minutes of an appliance's signature appear in the stream, emit a
  flex-offer for the remainder of the cycle immediately (the "detect
  flexibilities ... on the fly" of §6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime, timedelta

import numpy as np

from repro.appliances.database import ApplianceDatabase, default_database
from repro.appliances.model import ApplianceSpec
from repro.disaggregation.frequency import FrequencyTable
from repro.disaggregation.matching import MatchingConfig
from repro.disaggregation.schedule_mining import MinedSchedule
from repro.errors import ExtractionError
from repro.extraction.frequency_based import OFFER_GRID, _snap, slice_energies_on_grid
from repro.extraction.schedule_based import ScheduleBasedExtractor
from repro.flexoffer.model import FlexOffer, ProfileSlice, next_offer_id
from repro.timeseries.axis import ONE_MINUTE
from repro.timeseries.calendar import DayType, day_type
from repro.timeseries.series import TimeSeries


@dataclass(frozen=True, slots=True)
class OnlineConfig:
    """Knobs for the online generator.

    ``onset_minutes`` is how much of a cycle's head the reactive detector
    matches against; ``onset_score`` its acceptance threshold;
    ``anticipate_min_rate`` the expected-starts/day floor below which no
    anticipatory offer is issued for a day type.
    """

    onset_minutes: int = 20
    onset_score: float = 0.5
    anticipate_min_rate: float = 0.5
    reactive_min_detections: int = 3

    def __post_init__(self) -> None:
        if self.onset_minutes < 3:
            raise ExtractionError("onset_minutes must be >= 3")
        if not 0.0 < self.onset_score <= 1.0:
            raise ExtractionError("onset_score must be in (0, 1]")


@dataclass(frozen=True)
class _OnsetCandidate:
    """Stream-invariant matching data of one shortlisted appliance.

    ``observe`` runs once per simulated minute; the candidate's scaled
    signature head, its energy and its normalised density depend only on the
    training outcome, so they are computed once per generator instead of
    once per reading.
    """

    spec: ApplianceSpec
    energy: float
    head: np.ndarray          # expected kWh/minute of the cycle's first k minutes
    head_energy: float
    head_density: np.ndarray  # head normalised to unit mass


@dataclass
class _ReactiveState:
    """Mutable streaming state: ring buffer, cooldowns, claimed runs.

    ``active`` holds the runs already attributed (start time + expected
    per-minute template); their expected contribution is subtracted from the
    matcher's view of the stream, so one physical run cannot be claimed
    twice under different names (streaming matching pursuit).
    """

    buffer: list[float] = field(default_factory=list)
    last_emission: dict[str, datetime] = field(default_factory=dict)
    last_any_emission: datetime | None = None
    clock: datetime | None = None
    active: list[tuple[datetime, np.ndarray]] = field(default_factory=list)


class OnlineFlexOfferGenerator:
    """Trainable real-time flex-offer generator (§6 extension).

    Build with :meth:`train` on a historical 1-minute series, then use
    :meth:`anticipate` for day-ahead offers and :meth:`observe` for
    streaming detection.
    """

    def __init__(
        self,
        database: ApplianceDatabase,
        table: FrequencyTable,
        schedules: dict[str, MinedSchedule],
        mean_energy: dict[str, float],
        config: OnlineConfig | None = None,
    ) -> None:
        self.database = database
        self.table = table
        self.schedules = schedules
        self.mean_energy = mean_energy
        self.config = config or OnlineConfig()
        self._state = _ReactiveState()
        # Built eagerly: table/mean_energy/config are treated as immutable
        # after construction (retraining builds a new generator).
        self._onset_candidates = self._build_candidates()

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #

    @classmethod
    def train(
        cls,
        history: TimeSeries,
        database: ApplianceDatabase | None = None,
        config: OnlineConfig | None = None,
        matching: MatchingConfig | None = None,
    ) -> "OnlineFlexOfferGenerator":
        """Learn shortlist, schedules and typical energies from history.

        The shortlist and schedules are the schedule-based extractor's
        detection of ``history`` at its default knobs.
        """
        database = database or default_database()
        detected = ScheduleBasedExtractor(
            database=database, matching=matching or MatchingConfig()
        ).detect(history)
        mean_energy = {entry.appliance: entry.mean_energy_kwh for entry in detected.table}
        return cls(database, detected.table, detected.schedules, mean_energy, config)

    # ------------------------------------------------------------------ #
    # Anticipatory mode (day-ahead, schedule-driven)
    # ------------------------------------------------------------------ #

    def anticipate(self, day: date, now: datetime | None = None) -> list[FlexOffer]:
        """Predict the day's flexible runs and emit offers ahead of time.

        For each shortlisted flexible appliance whose mined rate on this day
        type clears the floor, one offer per expected run is emitted, its
        start window being the habit window (or the whole day when no window
        was mined), and its energy band the appliance's catalogue range
        centred on the typical observed energy.
        """
        config = self.config
        midnight = datetime(day.year, day.month, day.day)
        creation = now if now is not None else midnight - timedelta(hours=12)
        dtype = day_type(day)
        offers: list[FlexOffer] = []
        for entry in self.table.flexible_entries():
            mined = self.schedules.get(entry.appliance)
            if mined is None:
                continue
            rate = mined.expected_starts(dtype)
            if rate < config.anticipate_min_rate:
                continue
            expected_runs = max(1, int(round(rate)))
            windows = mined.windows.get(dtype, [])
            spec = self.database.get(entry.appliance)
            for run in range(expected_runs):
                window = windows[run % len(windows)] if windows else None
                offers.append(
                    self._predicted_offer(spec, midnight, window, creation)
                )
        return offers

    def _predicted_offer(self, spec, midnight, window, creation) -> FlexOffer:
        energy = self.mean_energy.get(spec.name, spec.typical_energy_kwh)
        energy = float(np.clip(energy, spec.energy_min_kwh, spec.energy_max_kwh))
        if window is not None:
            earliest = midnight + timedelta(
                minutes=window.start.hour * 60 + window.start.minute
            )
            slack = window.duration() - spec.cycle_duration
            flexibility = max(timedelta(0), min(slack, spec.time_flexibility))
        else:
            earliest = midnight
            flexibility = spec.time_flexibility
        flexibility = _snap(flexibility, OFFER_GRID)
        return FlexOffer(
            earliest_start=earliest,
            latest_start=earliest + flexibility,
            slices=_cycle_slices(spec, energy),
            resolution=OFFER_GRID,
            offer_id=next_offer_id("online-ahead"),
            appliance=spec.name,
            source="online-anticipatory",
            creation_time=creation,
            acceptance_deadline=earliest,
            assignment_deadline=earliest,
        )

    # ------------------------------------------------------------------ #
    # Reactive mode (streaming onset detection)
    # ------------------------------------------------------------------ #

    def reset_stream(self) -> None:
        """Forget all streaming state (buffer, cooldowns, clock)."""
        self._state = _ReactiveState()

    def observe(self, when: datetime, energy_kwh: float) -> list[FlexOffer]:
        """Feed one 1-minute reading; returns offers emitted at this minute.

        Readings must arrive in order on a 1-minute grid.  When the head of
        a flexible appliance's signature matches the tail of the buffer, an
        offer for the remainder of the cycle is emitted and the appliance
        enters a one-cycle cooldown.
        """
        state = self._state
        if state.clock is not None and when - state.clock != ONE_MINUTE:
            raise ExtractionError(
                f"readings must be consecutive minutes; got {state.clock} -> {when}"
            )
        state.clock = when
        state.buffer.append(float(energy_kwh))
        k = self.config.onset_minutes
        max_keep = max(2 * k, 60)
        if len(state.buffer) > max_keep:
            del state.buffer[: len(state.buffer) - max_keep]
        if len(state.buffer) < k:
            return []

        # Global refractory: one onset per claimed cycle.  While a claimed
        # run is still in progress the stream is considered explained;
        # greedy online attribution cannot reliably separate a second
        # concurrent start from the remainder of the first.
        if state.active:
            last_start, last_template = state.active[-1]
            if when < last_start + timedelta(minutes=len(last_template)):
                return []
        tail = np.asarray(state.buffer[-k:])
        onset_time = when - timedelta(minutes=k - 1)
        # Subtract the expected contribution of already-claimed runs so the
        # remainder of a claimed cycle cannot trigger a second attribution.
        state.active = [
            (start, template)
            for start, template in state.active
            if start + timedelta(minutes=len(template)) > onset_time
        ]
        for start, template in state.active:
            # The template overlaps the k-minute tail on a contiguous run of
            # minutes; subtract it with slice arithmetic instead of walking
            # every offset of the tail each reading.
            base = int((onset_time - start).total_seconds() // 60)
            first = max(0, -base)
            last = min(k, len(template) - base)
            if first < last:
                tail[first:last] -= template[base + first : base + last]
        # Remove the local floor so the onset matcher sees appliance energy.
        tail = np.clip(tail - max(0.0, float(tail.min())), 0.0, None)
        mass = float(tail.sum())
        if mass <= 0:
            return []
        tail_density = tail / mass
        # One onset, one attribution: evaluate every candidate appliance and
        # emit only the best-scoring one (emitting all super-threshold
        # matches would fire sibling appliances on every shared heat spike).
        best: tuple[float, ApplianceSpec, float] | None = None
        for candidate in self._onset_candidates:
            spec = candidate.spec
            last_time = state.last_emission.get(spec.name)
            if last_time is not None and when - last_time < spec.cycle_duration:
                continue
            coverage = float(np.minimum(tail, candidate.head).sum() / candidate.head_energy)
            similarity = 1.0 - 0.5 * float(
                np.abs(tail_density - candidate.head_density).sum()
            )
            score = coverage * max(0.0, similarity)
            if score < self.config.onset_score:
                continue
            # §6: "based on the usual appliance usage or the given (mined)
            # schedule" — weight the attribution by the habit prior: an
            # appliance that never starts at this time of day must present
            # much stronger signal evidence to claim the onset.
            score *= self._habit_prior(spec.name, onset_time)
            if best is None or score > best[0]:
                best = (score, spec, candidate.energy)
        if best is None:
            return []
        _, spec, energy = best
        state.last_emission[spec.name] = when
        state.last_any_emission = when
        state.active.append((onset_time, spec.energy_profile_minutes(energy)))
        return [self._reactive_offer(spec, onset_time, energy)]

    def _build_candidates(self) -> list[_OnsetCandidate]:
        """Stream-invariant onset candidates, built once at construction.

        Weakly-evidenced appliances (likely training-time false positives)
        may not claim live onsets and are excluded up front, as are
        degenerate signatures with an empty head.
        """
        k = self.config.onset_minutes
        candidates: list[_OnsetCandidate] = []
        for entry in self.table.flexible_entries():
            if entry.detections < self.config.reactive_min_detections:
                continue
            spec = self.database.get(entry.appliance)
            energy = self.mean_energy.get(spec.name, spec.typical_energy_kwh)
            energy = float(np.clip(energy, spec.energy_min_kwh, spec.energy_max_kwh))
            head = spec.shape[:k] * energy
            head_energy = float(head.sum())
            if head_energy <= 0:
                continue
            candidates.append(
                _OnsetCandidate(
                    spec=spec,
                    energy=energy,
                    head=head,
                    head_energy=head_energy,
                    head_density=head / head_energy,
                )
            )
        return candidates

    def _habit_prior(self, appliance: str, when: datetime) -> float:
        """Mined start-density prior in [0.25, 1.0] for attribution scoring.

        The mined per-minute density is compared to the appliance's own mean
        density; starting at a habitual time gives weight 1.0, starting at a
        never-observed time drops to the floor (0.25 — evidence can still
        override habit, just at a 4x handicap).
        """
        mined = self.schedules.get(appliance)
        if mined is None:
            return 1.0
        density = mined.density.get(day_type(when.date()))
        if density is None or density.sum() <= 0:
            return 1.0
        minute = when.hour * 60 + when.minute
        mean = float(density.mean())
        if mean <= 0:
            return 1.0
        ratio = float(density[minute]) / mean
        return float(np.clip(0.25 + 0.75 * ratio, 0.25, 1.0))

    def _reactive_offer(self, spec, onset_time: datetime, energy: float) -> FlexOffer:
        day_anchor = onset_time.replace(hour=0, minute=0, second=0, microsecond=0)
        earliest = day_anchor + OFFER_GRID * ((onset_time - day_anchor) // OFFER_GRID)
        return FlexOffer(
            earliest_start=earliest,
            latest_start=earliest + _snap(spec.time_flexibility, OFFER_GRID),
            slices=_cycle_slices(spec, energy),
            resolution=OFFER_GRID,
            offer_id=next_offer_id("online-react"),
            appliance=spec.name,
            source="online-reactive",
            creation_time=onset_time,
        )


def _cycle_slices(spec: ApplianceSpec, energy: float) -> tuple[ProfileSlice, ...]:
    """One cycle of ``energy`` kWh bucketed onto the metering grid, each
    slice banded by the appliance's catalogue energy range."""
    _, slice_energies = slice_energies_on_grid(spec.energy_profile_minutes(energy), 0)
    lo_f = spec.energy_min_kwh / energy
    hi_f = spec.energy_max_kwh / energy
    return tuple(ProfileSlice(float(e * lo_f), float(e * hi_f)) for e in slice_energies)
