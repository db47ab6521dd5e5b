"""Appendable fleet state and its immutable snapshot views.

The batch pipeline's :class:`~repro.pipeline.fleet.FleetResult` is a
terminal value: one run, one result.  A live service cannot work that way —
meter readings keep arriving, households get re-extracted, and the plan
rolls forward — so this module splits the result shape in two:

* :class:`FleetState` — the *appendable* core.  Per-household input
  buffers with coverage tracking, cached extraction outputs, the current
  aggregates, the current plan, and the committed (frozen) placements.
  Every mutation bumps ``version``.
* :class:`SessionSnapshot` — the *immutable view* a replan publishes.
  Frozen, comparable, wire-encodable (``to_dict``), and convertible back
  to a :class:`~repro.pipeline.fleet.FleetResult` so the one-shot
  equivalence oracle can compare like with like.

:class:`FlexibilitySession` drives the state through the rolling-horizon
loop: ``ingest`` meter chunks (dirtying their households), ``replan``
re-extracts *only* the dirtied households (a day-local extractor only
from the first day written since the last extraction) and re-plans the
open window,
``commit`` freezes placements behind the commit boundary so later replans
cannot move them (the ``committed-placement-stability`` conformance
invariant).

Equivalence contract (pinned by ``tests/test_session.py``): with no
commitments, any chunked arrival order that eventually delivers the full
input reproduces the one-shot pipeline bitwise — extraction re-runs are
freshly seeded per household, aggregation groups through
:func:`~repro.aggregation.grouping.group_offers` at the batch epoch and
folds through :func:`~repro.aggregation.aggregate.aggregate_all` (keeping
each aggregate the previous replan folded from the same member objects at
the same id, which is bitwise what a fresh fold would return), and
scheduling routes through the same
:func:`~repro.pipeline.fleet.schedule_aggregates` stage.  Commitments
deliberately break that equivalence (that is their job); what replaces it
is stability: a committed placement appears bitwise unchanged in every
later snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from numbers import Integral
from typing import Any, Iterable

import numpy as np

from repro.aggregation.aggregate import AggregatedFlexOffer, aggregate_all
from repro.aggregation.grouping import GroupingParams, group_offers
from repro.api.registry import create_extractor
from repro.errors import SessionError
from repro.evaluation.comparison import input_series_for
from repro.extraction.base import DayCheckpoint, DayTrail, FlexibilityExtractor
from repro.flexoffer.io import (
    aggregated_to_dict,
    any_schedule_to_dict,
    flexoffer_to_dict,
    schedule_to_dict,
)
from repro.flexoffer.model import OfferIdFactory, offer_id_scope
from repro.flexoffer.schedule import (
    ScheduledFlexOffer,
    add_to_series,
    schedules_to_series,
)
from repro.pipeline.fleet import (
    FleetResult,
    HouseholdOutput,
    StageTimings,
    extract_households,
    schedule_aggregates,
)
from repro.scheduling.greedy import ScheduleConfig, ScheduleResult, greedy_schedule
from repro.timeseries.axis import TimeAxis
from repro.timeseries.series import TimeSeries

#: Wire-format version of session snapshots (and the deltas built on them).
SNAPSHOT_VERSION = 1

#: Prefix of the stable ids committed placements are re-minted under.  The
#: ``agg-fleet-N`` ids a replan mints restart per replan and would collide
#: with a *different* aggregate next time; a committed placement outlives
#: replans, so it gets an id from this separate, append-only namespace.
COMMIT_ID_PREFIX = "commit"


class _HouseholdState:
    """One household's live input buffer plus its cached extraction."""

    __slots__ = (
        "index",
        "household_id",
        "axis",
        "series_name",
        "values",
        "covered",
        "dirty",
        "offers",
        "summary",
        "prefix",
        "end",
        "stale_from",
        "trail",
        "generation",
    )

    def __init__(
        self, index: int, household_id: str, axis: TimeAxis, series_name: str
    ) -> None:
        self.index = index
        self.household_id = household_id
        self.axis = axis
        self.series_name = series_name
        self.values = np.zeros(axis.length)
        self.covered = np.zeros(axis.length, dtype=bool)
        self.dirty = False
        self.offers: tuple = ()
        self.summary: dict[str, float] = {}
        #: Length of the contiguous covered prefix of ``covered``.
        self.prefix = 0
        #: One past the last covered index: ``values`` is zero from here on.
        self.end = 0
        #: Lowest index written since the last extraction.
        self.stale_from = 0
        #: The last extraction's day trail (day-local extractors only).
        #: Derived state: never written to snapshots or the WAL; a restore
        #: rebuilds it for the households it re-extracts.
        self.trail: DayTrail | None = None
        #: Bumped by every mutation of what a snapshot stores of the
        #: household, so an encoded record is reused while it holds.
        self.generation = 0

    def write(self, first: int, chunk: np.ndarray) -> None:
        """Store a chunk of readings and advance the covered prefix.

        The prefix only moves when the chunk reaches it, then skips the
        readings that arrived ahead of it: in-order arrival never looks
        past the chunk, and only a chunk closing a gap scans beyond it.
        """
        stop = first + chunk.size
        self.values[first:stop] = chunk
        self.covered[first:stop] = True
        self.dirty = True
        self.generation += 1
        self.stale_from = min(self.stale_from, first)
        self.end = max(self.end, stop)
        if first <= self.prefix < stop:
            self.prefix = stop
            self._extend_prefix()

    def restore(
        self,
        series_name: str,
        values: np.ndarray,
        covered: np.ndarray,
        dirty: bool,
        summary: dict[str, float],
        offers: tuple,
    ) -> None:
        """Take a snapshot's record as the household's state (cold trail)."""
        self.series_name = series_name
        self.values = values
        self.covered = covered
        self.dirty = dirty
        self.summary = summary
        self.offers = offers
        self.generation += 1
        self.trail = None
        self.prefix = 0
        self._extend_prefix()
        covered_at = np.flatnonzero(covered)
        self.end = int(covered_at[-1]) + 1 if covered_at.size else 0

    def _extend_prefix(self) -> None:
        rest = self.covered[self.prefix :]
        if rest.size and rest[0]:
            self.prefix += rest.size if rest.all() else int(np.argmin(rest))

    def checkpoint(self) -> DayCheckpoint | None:
        """Where re-extraction resumes: the start of the first day written
        since the last extraction (``None``: from scratch)."""
        per_day = self.axis.intervals_per_day
        day = self.stale_from // per_day
        if self.trail is None or day == 0:
            return None
        return self.trail.checkpoint(day, day * per_day, self.offers)

    @property
    def stop_day(self) -> int:
        """The day after the last covered interval: every later day is zero."""
        return -(-self.end // self.axis.intervals_per_day)

    def adopt(self, output: HouseholdOutput) -> None:
        """Take a fresh extraction of the whole buffer as the cached one."""
        self.offers = output.offers
        self.summary = output.summary
        self.trail = output.trail
        self.dirty = False
        self.generation += 1
        self.stale_from = self.axis.length

    @property
    def coverage_end(self) -> datetime:
        """End of the contiguous covered prefix (the household's watermark)."""
        return self.axis.start + self.axis.resolution * self.prefix

    def output(self) -> HouseholdOutput:
        """The household's published view; its summary is the caller's own
        copy, so mutating it cannot reach the session."""
        return HouseholdOutput(
            index=self.index,
            household_id=self.household_id,
            offers=self.offers,
            summary=dict(self.summary),
        )


@dataclass
class FleetState:
    """The appendable core of a rolling-horizon session.

    Everything here mutates in place as events arrive; ``version`` counts
    published states (replans and commits), so two snapshots with the same
    version are the same state.  The committed side is append-only:
    placements enter ``committed`` and member ids enter
    ``committed_members`` exactly once, and neither ever shrinks.
    """

    households: list[_HouseholdState]
    version: int = 0
    aggregates: tuple[AggregatedFlexOffer, ...] = ()
    open_schedules: list[ScheduledFlexOffer] = field(default_factory=list)
    schedule: ScheduleResult | None = None
    committed: list[ScheduledFlexOffer] = field(default_factory=list)
    committed_members: set[str] = field(default_factory=set)
    committed_demand: np.ndarray | None = None
    commit_boundary: datetime | None = None

    @property
    def watermark(self) -> datetime:
        """The fleet's data watermark: the slowest household's coverage end."""
        return min(h.coverage_end for h in self.households)

    def planned_offers(self) -> list:
        """Offers eligible for (re-)planning, in household order.

        Excludes offers already bound into a committed placement: their
        energy is dispatched, so re-planning them would double-count it.
        Re-extraction mints deterministic per-household ids, so a committed
        member's id keeps matching its slot across replans.
        """
        return [
            offer
            for household in self.households
            for offer in household.offers
            if offer.offer_id not in self.committed_members
        ]


@dataclass(frozen=True)
class SessionSnapshot:
    """An immutable view of one published fleet state.

    What a replan (or commit) hands out: households/aggregates/schedule in
    the exact shapes the batch pipeline produces, plus the session-only
    committed side.  ``fleet_result`` adapts it for result-level oracles;
    ``to_dict`` is the wire encoding successive
    :func:`~repro.flexoffer.io.report_delta` calls diff.
    """

    version: int
    watermark: datetime
    households: tuple[HouseholdOutput, ...]
    aggregates: tuple[AggregatedFlexOffer, ...]
    schedule: ScheduleResult | None
    committed: tuple[ScheduledFlexOffer, ...]
    committed_members: frozenset[str]

    def fleet_result(self) -> FleetResult:
        """This state as a batch-pipeline result (timings empty)."""
        return FleetResult(
            households=self.households,
            aggregates=self.aggregates,
            timings=StageTimings(),
            schedule=self.schedule,
        )

    def to_dict(self) -> dict[str, Any]:
        """The snapshot's wire encoding (see ``flexoffer.io.report_delta``)."""
        return {
            "version": SNAPSHOT_VERSION,
            "state_version": self.version,
            "watermark": self.watermark.isoformat(),
            "households": [
                {
                    "index": h.index,
                    "household_id": h.household_id,
                    "summary": dict(h.summary),
                    "offers": [flexoffer_to_dict(o) for o in h.offers],
                }
                for h in self.households
            ],
            "aggregates": [aggregated_to_dict(a) for a in self.aggregates],
            "schedule": (
                None if self.schedule is None else any_schedule_to_dict(self.schedule)
            ),
            "committed": [schedule_to_dict(s) for s in self.committed],
        }


class FlexibilitySession:
    """A long-lived rolling-horizon extraction + scheduling session.

    The online counterpart of :class:`~repro.pipeline.fleet.FleetPipeline`:
    construct it once per fleet (``for_fleet``), then drive it with events —

    * :meth:`ingest` writes a chunk of meter readings into one household's
      input buffer and marks the household dirty;
    * :meth:`replan` re-extracts *only* the dirty households, re-folds
      the groups of surviving offers that changed, re-plans the open
      window (committed placements are baked into the residual target and
      the commit boundary is passed to the scheduler as
      ``earliest_allowed``), and publishes a :class:`SessionSnapshot`;
    * :meth:`commit` freezes every open placement starting before the
      given instant: its members leave the planning pool, its demand moves
      into the residual baseline, and the placement itself — re-minted
      under a stable ``commit-N`` id — reappears bitwise unchanged in
      every later snapshot;
    * :meth:`retarget` swaps in an updated target (same axis, new values —
      a fresher forecast or the realized series), so the next replan
      re-plans the open window against it while commitments stay frozen.

    With ``commit_horizon`` set, every replan auto-commits through
    ``watermark + commit_horizon`` — the standing "lock the next H hours"
    policy of a dispatch loop.  ``commit_horizon=None`` (default) never
    commits on its own, which is what makes the session bit-reproduce the
    one-shot pipeline once all data has arrived.

    Only plain series targets are supported; zoned/priced markets keep
    their one-shot path (docs/PAPER_MAPPING.md records the divergence).
    """

    def __init__(
        self,
        households: Iterable[tuple[str, TimeAxis, str]],
        extractor: FlexibilityExtractor | None = None,
        grouping: GroupingParams | None = None,
        seed: int = 0,
        target: TimeSeries | None = None,
        schedule: ScheduleConfig | None = None,
        commit_horizon: timedelta | None = None,
    ) -> None:
        states = [
            _HouseholdState(index, household_id, axis, name)
            for index, (household_id, axis, name) in enumerate(households)
        ]
        if not states:
            raise SessionError("a session needs at least one household")
        if target is not None and not isinstance(target, TimeSeries):
            raise SessionError(
                "sessions schedule against plain series targets only; "
                "zoned markets keep the one-shot pipeline"
            )
        self.extractor = (
            extractor if extractor is not None else create_extractor("frequency-based")
        )
        self.grouping = grouping
        self.seed = seed
        self.target = target
        self.schedule_config = schedule
        self.commit_horizon = commit_horizon
        self._state = FleetState(households=states)
        if target is not None:
            self._state.committed_demand = np.zeros(target.axis.length)
        #: Attached :class:`~repro.session.persistence.SessionJournal`
        #: (None = in-memory session).  While ``_replaying`` is set the
        #: event methods are being driven by recovery and must not journal.
        self.journal = None
        self._replaying = False
        self._replans_since_snapshot = 0
        #: :func:`~repro.session.persistence.encode_state`'s cache of the
        #: latest snapshot's encoded household records, offers, aggregates
        #: and placements.  Derived state: never persisted, so a restored
        #: session starts with it empty.
        self._snapshot_fragments: dict[int, Any] = {}

    @classmethod
    def for_fleet(cls, fleet, **kwargs: Any) -> "FlexibilitySession":
        """A session over a simulated fleet's households.

        Each household's buffer takes the axis and name of the series the
        extractor would consume in a batch run
        (:func:`~repro.evaluation.comparison.input_series_for`), so a fully
        ingested buffer is bitwise the batch input.
        """
        extractor = kwargs.get("extractor") or create_extractor("frequency-based")
        kwargs["extractor"] = extractor
        households = []
        for trace in fleet:
            series = input_series_for(extractor, trace)
            households.append((trace.config.household_id, series.axis, series.name))
        return cls(households, **kwargs)

    @classmethod
    def resume(cls, journal_dir, fleet=None) -> "FlexibilitySession":
        """Recover a session from its journal directory.

        Rebuilds the session from the :class:`~repro.api.spec.RunSpec`
        stored in the WAL header (simulating the fleet unless ``fleet`` is
        given), restores the newest intact snapshot, replays the WAL tail,
        and re-attaches the journal — so the caller gets back exactly the
        session the crashed process would have had, ready for new events.
        """
        from repro.api.spec import RunSpec
        from repro.errors import PersistenceError
        from repro.session.persistence import SessionJournal, restore_session
        from repro.session.replay import session_for_spec

        journal = SessionJournal.open(journal_dir)
        if journal.spec is None:
            raise PersistenceError(
                f"journal at {journal_dir} stores no run spec; rebuild the "
                "session yourself and call "
                "repro.session.persistence.restore_session"
            )
        session = session_for_spec(RunSpec.from_dict(journal.spec), fleet=fleet)
        return restore_session(session, journal)

    def attach_journal(self, journal, _resuming: bool = False) -> None:
        """Journal every future event of this session into ``journal``.

        Outside recovery the journal must be fresh (header only) and the
        session pristine — otherwise the WAL would open mid-history and
        replaying it could never reproduce the state.
        """
        from repro.errors import PersistenceError

        if self.journal is not None:
            raise PersistenceError("session already has a journal attached")
        if not _resuming:
            state = self._state
            if state.version > 0 or any(h.covered.any() for h in state.households):
                raise PersistenceError(
                    "cannot attach a journal mid-session: the WAL would "
                    "miss the events that built the current state"
                )
            if journal.last_seq != 0:
                raise PersistenceError(
                    "journal already holds events; use FlexibilitySession."
                    "resume (or restore_session) instead of attach_journal"
                )
        self.journal = journal
        self._replans_since_snapshot = 0

    # ------------------------------------------------------------------ #
    # Events
    # ------------------------------------------------------------------ #

    @property
    def state(self) -> FleetState:
        return self._state

    def ingest(self, household: int, first: int, values: Iterable[float]) -> None:
        """Write a chunk of meter readings into one household's buffer."""
        state = self._state
        for name, index in (("household", household), ("first", first)):
            if not isinstance(index, Integral) or isinstance(index, bool):
                raise SessionError(
                    f"ingest {name} must be an integer, got {type(index).__name__}"
                )
        if not 0 <= household < len(state.households):
            raise SessionError(
                f"household {household} out of range (fleet has "
                f"{len(state.households)})"
            )
        try:
            chunk = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise SessionError(f"ingest values must be numbers: {exc}") from exc
        if chunk.ndim != 1:
            raise SessionError(f"ingest values must be 1-D, got shape {chunk.shape}")
        # Checked before the WAL sees it, like commit's boundary: a journaled
        # non-finite reading would fail every later replan and restore.
        if not np.isfinite(chunk).all():
            raise SessionError("ingest values must be finite numbers")
        target = state.households[household]
        if first < 0 or first + chunk.size > target.axis.length:
            raise SessionError(
                f"ingest [{first}, {first + chunk.size}) overruns household "
                f"{household}'s axis (length {target.axis.length})"
            )
        # WAL-first: the record hits the log before the buffer mutates, so
        # recovery replays exactly the events whose effects may exist.
        self._journal_event(
            "ingest",
            {"household": household, "first": first, "values": chunk.tolist()},
        )
        target.write(first, chunk)

    def replan(self) -> SessionSnapshot:
        """Re-extract dirty households, re-aggregate, re-plan, publish."""
        self._journal_event("replan", {})
        state = self._state
        dirty = [household for household in state.households if household.dirty]
        for household, output in zip(dirty, self._extract(dirty)):
            household.adopt(output)

        state.aggregates = self._aggregate(state.planned_offers())
        self._reschedule()
        if (
            self.commit_horizon is not None
            and self.target is not None
            and state.open_schedules
        ):
            self._commit_through(state.watermark + self.commit_horizon)
        state.version += 1
        self._maybe_snapshot()
        return self.snapshot()

    def commit(self, through: datetime) -> int:
        """Freeze every open placement starting before ``through``.

        Returns the number of placements newly committed; publishes a new
        state version when that number is non-zero.
        """
        if self.target is None:
            raise SessionError("cannot commit placements: session has no target")
        # Checked before the WAL sees it: a record that cannot be applied
        # would fail again on every replay.
        if not isinstance(through, datetime):
            raise SessionError(
                f"commit through must be a datetime, got {type(through).__name__}"
            )
        naive = self.target.axis.start.utcoffset() is None
        if (through.utcoffset() is None) != naive:
            raise SessionError(
                f"commit through {through.isoformat()} must be "
                f"{'naive' if naive else 'timezone-aware'} like the target axis"
            )
        # Commits are the events the market side relies on, so their WAL
        # records are fsynced before the state moves.
        self._journal_event("commit", {"through": through.isoformat()}, durable=True)
        newly = self._commit_through(through)
        if newly:
            self._state.version += 1
        return newly

    def retarget(self, new_target: TimeSeries) -> None:
        """Swap in an updated target for the open window.

        The replacement must live on the current target's axis — a
        retarget updates the *values* the open window is planned against
        (a fresher forecast, or the realized series itself), never the
        horizon.  Nothing is re-planned here: committed placements stay
        frozen with their demand baked into the residual baseline, and the
        next :meth:`replan` re-plans the open window against the new
        values.  Journaled like every other event, so recovery replays it
        (the ``replan-no-worse-realized`` conformance invariant drives
        this path on every compatible matrix cell).
        """
        if self.target is None:
            raise SessionError(
                "cannot retarget: the session was built without a target"
            )
        if not isinstance(new_target, TimeSeries):
            raise SessionError(
                "sessions schedule against plain series targets only; "
                "zoned markets keep the one-shot pipeline"
            )
        if new_target.axis != self.target.axis:
            raise SessionError(
                "retarget must keep the current target axis; got a series "
                f"on {new_target.axis!r}"
            )
        if not np.isfinite(new_target.values).all():
            raise SessionError("retarget values must be finite numbers")
        self._journal_event(
            "retarget",
            {
                "name": new_target.name,
                "values": new_target.values.tolist(),
            },
        )
        self.target = new_target.copy()

    def snapshot(self) -> SessionSnapshot:
        """The current published state as an immutable view."""
        state = self._state
        return SessionSnapshot(
            version=state.version,
            watermark=state.watermark,
            households=tuple(h.output() for h in state.households),
            aggregates=state.aggregates,
            schedule=state.schedule,
            committed=tuple(state.committed),
            committed_members=frozenset(state.committed_members),
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _extract(self, households: list[_HouseholdState]) -> list[HouseholdOutput]:
        """Extract the households' current buffers, in the given order.

        Seeds and offer-id scopes follow the batch pipeline
        (:func:`~repro.pipeline.fleet.extract_households`), so a household
        extracted here yields the offers a one-shot run over the same input
        would — which is also what lets a snapshot restore re-derive them.
        A household with a day trail resumes at its first stale day, and a
        day-local extractor stops after the last covered day (the later
        days are zeros nothing wrote); both yield the same offers.
        """
        jobs = [
            (
                household.index,
                household.household_id,
                TimeSeries(
                    household.axis, household.values.copy(), household.series_name
                ),
            )
            for household in households
        ]
        checkpoints = [household.checkpoint() for household in households]
        stop_days = [household.stop_day for household in households]
        return extract_households(
            self.extractor, self.seed, jobs, checkpoints, stop_days
        )[0]

    def _aggregate(self, offers: list) -> tuple[AggregatedFlexOffer, ...]:
        """Group and fold the planned offers, reusing unchanged aggregates.

        The groups are the batch path's, at the batch epoch, and the ids
        are minted under a fresh ``offer_id_scope("fleet")``, so the
        result is bitwise ``aggregate_all(group_offers(...))``.  A group
        whose members are the previous replan's aggregate's members (the
        same objects, in the same order) at a position that still mints
        that aggregate's id folds to that aggregate: it is kept and the
        id factory advances past it.  Each maximal run of other groups is
        folded by one ``aggregate_all`` call.
        """
        if not offers:
            return ()
        epoch = min(offer.earliest_start for offer in offers)
        groups = group_offers(offers, self.grouping, epoch=epoch)
        previous = {
            id(aggregate.members[0]): aggregate
            for aggregate in self._state.aggregates
            if aggregate.members
        }
        # Mints, in step with the scope below, the id each position gets.
        positions = OfferIdFactory("fleet")
        aggregates: list[AggregatedFlexOffer] = []
        run: list[list] = []
        with offer_id_scope("fleet") as ids:
            for group in groups:
                position_id = positions.next_id("agg")
                kept = previous.get(id(group[0]))
                if (
                    kept is not None
                    and kept.offer.offer_id == position_id
                    and len(kept.members) == len(group)
                    and all(a is b for a, b in zip(kept.members, group))
                ):
                    if run:
                        aggregates += aggregate_all(run)
                        run = []
                    aggregates.append(kept)
                    ids.next_id("agg")
                else:
                    run.append(group)
            if run:
                aggregates += aggregate_all(run)
        return tuple(aggregates)

    def _journal_event(
        self, kind: str, data: dict[str, Any], durable: bool = False
    ) -> None:
        if self.journal is None or self._replaying:
            return
        self.journal.append(kind, data, durable=durable)

    def _maybe_snapshot(self) -> None:
        """Compact the journal every ``snapshot_every`` replans."""
        if self.journal is None or self._replaying:
            return
        self._replans_since_snapshot += 1
        if self._replans_since_snapshot < self.journal.snapshot_every:
            return
        from repro.session.persistence import encode_state

        self.journal.write_snapshot(encode_state(self))
        self._replans_since_snapshot = 0

    def _reschedule(self) -> None:
        """Re-plan the open window against the residual target."""
        state = self._state
        if self.target is None:
            state.schedule = None
            return
        if not state.committed:
            # No frozen window: the schedule stage is exactly the batch
            # pipeline's (improver and all) — this arm
            # is what the one-shot equivalence oracle exercises.
            result = schedule_aggregates(
                state.aggregates, self.target, self.schedule_config
            )
            state.open_schedules = list(result.schedules)
            state.schedule = result
            return
        axis = self.target.axis
        residual = TimeSeries(
            axis,
            self.target.values - state.committed_demand,
            self.target.name,
        )
        offers = [aggregate.offer for aggregate in state.aggregates]
        # The stochastic improver is not commit-aware (it may move a
        # placement across the boundary), so it only runs on the
        # no-commitment arm above.
        open_result = greedy_schedule(
            offers,
            residual,
            config=self.schedule_config,
            earliest_allowed=state.commit_boundary,
        )
        open_result = self._better_open_plan(open_result, residual, offers)
        state.open_schedules = list(open_result.schedules)
        state.schedule = ScheduleResult(
            schedules=list(state.committed) + state.open_schedules,
            demand=self._plan_demand(state.open_schedules),
            target=self.target,
            unplaced=list(open_result.unplaced),
        )
        return

    def _plan_demand(self, open_schedules: list[ScheduledFlexOffer]) -> TimeSeries:
        """Committed demand plus ``open_schedules``, without re-summing history.

        Bitwise ``schedules_to_series(committed + open_schedules, axis)``:
        ``committed_demand`` starts at zeros and every commit (and
        ``decode_state``) adds each placement with ``+=`` in ``committed``
        order, so each element sees the same additions in the same order.
        """
        demand = TimeSeries(
            self.target.axis, self._state.committed_demand.copy(), "scheduled-demand"
        )
        for placement in open_schedules:
            add_to_series(placement, demand)
        return demand

    def _better_open_plan(
        self,
        open_result: ScheduleResult,
        residual: TimeSeries,
        offers: list,
    ) -> ScheduleResult:
        """Keep the previous open plan when it still fits and scores better.

        Greedy placement is a heuristic: against updated target values (a
        :meth:`retarget`, or simply fresher data) the fresh plan can land
        marginally *worse* than the plan already in hand.  When the
        previous open placements reference exactly the same live aggregate
        offers (bitwise) as the fresh plan and every one respects the
        commit boundary, the cheaper of the two plans — measured on the
        current residual target — wins.  Re-planning therefore never
        worsens the session's imbalance, which is the contract the
        ``replan-no-worse-realized`` conformance invariant pins on every
        compatible matrix cell.  Ties keep the fresh plan, so behaviour
        is unchanged whenever greedy does its job.
        """
        state = self._state
        previous = state.open_schedules
        if not previous:
            return open_result
        if {p.offer.offer_id for p in previous} != {
            p.offer.offer_id for p in open_result.schedules
        }:
            # The placeable offer set changed (new aggregates, dropped
            # ones): the previous plan no longer covers the obligation to
            # run every offer's minimum energy.
            return open_result
        by_id = {offer.offer_id: offer for offer in offers}
        boundary = state.commit_boundary
        for placement in previous:
            offer = by_id.get(placement.offer.offer_id)
            if offer is None or offer != placement.offer:
                return open_result
            if boundary is not None and placement.start < boundary:
                return open_result
        candidate = ScheduleResult(
            schedules=list(previous),
            demand=schedules_to_series(previous, residual.axis),
            target=residual,
            unplaced=list(open_result.unplaced),
        )
        if candidate.cost < open_result.cost:
            return candidate
        return open_result

    def _commit_through(self, through: datetime) -> int:
        state = self._state
        aggregates_by_id = {a.offer.offer_id: a for a in state.aggregates}
        keep: list[ScheduledFlexOffer] = []
        newly = 0
        axis = self.target.axis
        for placement in state.open_schedules:
            if placement.start >= through:
                keep.append(placement)
                continue
            aggregate = aggregates_by_id.get(placement.offer.offer_id)
            members = aggregate.members if aggregate is not None else (placement.offer,)
            for member in members:
                state.committed_members.add(member.offer_id)
            frozen_offer = replace(
                placement.offer,
                offer_id=f"{COMMIT_ID_PREFIX}-{len(state.committed) + 1}",
            )
            frozen = ScheduledFlexOffer(
                frozen_offer, placement.start, placement.slice_energies
            )
            first = axis.index_of(frozen.start)
            energies = frozen.interval_energies()
            state.committed_demand[first : first + energies.size] += energies
            state.committed.append(frozen)
            newly += 1
        if state.commit_boundary is None or through > state.commit_boundary:
            state.commit_boundary = through
        if newly == 0:
            return 0
        state.open_schedules = keep
        previous_unplaced = state.schedule.unplaced if state.schedule else []
        state.schedule = ScheduleResult(
            schedules=list(state.committed) + keep,
            demand=self._plan_demand(keep),
            target=self.target,
            unplaced=list(previous_unplaced),
        )
        return newly
