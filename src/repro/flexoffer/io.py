"""JSON (de)serialisation of flex-offers, schedules and their results.

MIRABEL's data-management layer (paper [3]) persists flex-offers in a
warehouse; this module is the equivalent stable wire format: plain
dict/JSON encodings with ISO-8601 timestamps and second-resolution
durations, round-trippable without loss.  Every encoder and decoder here is
one call into the package's single wire codec, :mod:`repro.wire`; each
format is described where its class lives, as field and class data:

* flex-offers (:class:`~repro.flexoffer.model.FlexOffer`, versioned, with
  ``resolution_seconds``), their slices, schedules and aggregates;
* schedule results (:class:`~repro.scheduling.greedy.ScheduleResult`: the
  target's axis stored once, the demand rebuilt on load) and zoned ones
  (:class:`~repro.scheduling.zones.ZonedScheduleResult`, told apart by
  their ``"zones"`` key, with an optional market ``"clearing"``).

Malformed input raises :class:`~repro.errors.DataError` naming the format,
never a bare exception.  The report deltas below diff and patch already
encoded session snapshots.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import DataError
from repro.flexoffer.model import FlexOffer
from repro.flexoffer.schedule import ScheduledFlexOffer
from repro.wire import decode, encode, guard

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.aggregation.aggregate import AggregatedFlexOffer
    from repro.scheduling.greedy import ScheduleResult
    from repro.scheduling.zones import ZonedScheduleResult


def flexoffer_to_dict(offer: FlexOffer) -> dict[str, Any]:
    """Encode a flex-offer as a JSON-compatible dict."""
    return encode(offer)


def flexoffer_from_dict(data: dict[str, Any]) -> FlexOffer:
    """Decode a flex-offer from its dict encoding."""
    return decode(FlexOffer, data)


def schedule_to_dict(schedule: ScheduledFlexOffer) -> dict[str, Any]:
    """Encode a scheduled flex-offer (embeds the offer)."""
    return encode(schedule)


def schedule_from_dict(data: dict[str, Any]) -> ScheduledFlexOffer:
    """Decode a scheduled flex-offer."""
    return decode(ScheduledFlexOffer, data)


def aggregated_to_dict(aggregate: "AggregatedFlexOffer") -> dict[str, Any]:
    """Encode an aggregated flex-offer (aggregate + members + offsets), so a
    stored run report supports later disaggregation."""
    return encode(aggregate)


def aggregated_from_dict(data: dict[str, Any]) -> "AggregatedFlexOffer":
    """Decode an aggregated flex-offer from its dict encoding."""
    from repro.aggregation.aggregate import AggregatedFlexOffer

    return decode(AggregatedFlexOffer, data)


def schedule_result_to_dict(result: "ScheduleResult") -> dict[str, Any]:
    """Encode a scheduling run (axis + target + placements + unplaced)."""
    return encode(result)


def schedule_result_from_dict(data: dict[str, Any]) -> "ScheduleResult":
    """Decode a scheduling run, rebuilding the demand plan from the parts."""
    from repro.scheduling.greedy import ScheduleResult

    return decode(ScheduleResult, data)


def zoned_result_to_dict(result: "ZonedScheduleResult") -> dict[str, Any]:
    """Encode a zone-sharded scheduling run (zones + per-zone results)."""
    return encode(result)


def zoned_result_from_dict(data: dict[str, Any]) -> "ZonedScheduleResult":
    """Decode a zone-sharded scheduling run."""
    from repro.scheduling.zones import ZonedScheduleResult

    return decode(ZonedScheduleResult, data)


def any_schedule_to_dict(
    result: "ScheduleResult | ZonedScheduleResult",
) -> dict[str, Any]:
    """Encode either schedule-result flavour (zoned or single-market)."""
    return encode(result)


def any_schedule_from_dict(
    data: dict[str, Any],
) -> "ScheduleResult | ZonedScheduleResult":
    """Decode either schedule-result flavour, selected by the ``zones`` key."""
    from repro.scheduling.greedy import ScheduleResult
    from repro.scheduling.zones import ZonedScheduleResult

    return decode(ScheduleResult | ZonedScheduleResult, data)


# ---------------------------------------------------------------------- #
# Report deltas: diffable successive session snapshots
# ---------------------------------------------------------------------- #

#: Wire-format version of report deltas; bump on incompatible change.
REPORT_DELTA_VERSION = 1

#: Top-level fields a snapshot dict must carry to be diffed or patched.
_DELTA_SOURCE_FIELDS = ("state_version", "households", "aggregates", "committed")

#: Top-level fields of a report delta (``version`` defaults to the current).
_DELTA_FIELDS = (
    "base_state_version",
    "state_version",
    "watermark",
    "households",
    "aggregates",
    "committed",
    "schedule",
)


def _require(payload: Any, fields: tuple[str, ...], what: str) -> None:
    """Raise :class:`DataError` unless ``payload`` is a dict with ``fields``."""
    if not isinstance(payload, dict):
        raise DataError(f"{what} must be a JSON object, got {type(payload).__name__}")
    for name in fields:
        if name not in payload:
            raise DataError(f"{what} missing field {name!r}")


def _keyed_delta(old_items: list, new_items: list, key) -> dict[str, Any]:
    """Diff two keyed lists: upserted entries, removed keys, final order.

    ``upserted`` holds every new entry whose key is absent from ``old`` or
    whose content changed; ``order`` pins the exact output sequence, so
    applying the delta is order-lossless even when nothing else changed.
    """
    old_by = {key(item): item for item in old_items}
    new_keys = {key(item) for item in new_items}
    return {
        "upserted": [
            item
            for item in new_items
            if key(item) not in old_by or old_by[key(item)] != item
        ],
        "removed": sorted(k for k in old_by if k not in new_keys),
        "order": [key(item) for item in new_items],
    }


def _apply_keyed(base_items: list, delta: Any, key, what: str) -> list:
    _require(delta, ("upserted", "removed", "order"), what)
    with guard(DataError, what):
        merged = {key(item): item for item in base_items}
        for item in delta["upserted"]:
            merged[key(item)] = item
        for removed in delta["removed"]:
            merged.pop(removed, None)
        unknown = [k for k in delta["order"] if k not in merged]
        if unknown:
            raise DataError(f"report delta order references unknown key {unknown[0]!r}")
        return [merged[k] for k in delta["order"]]


def _offer_key(offer: dict[str, Any]) -> str:
    return offer["offer_id"]


def _embedded_offer_key(item: dict[str, Any]) -> str:
    return item["offer"]["offer_id"]


def _household_key(item: dict[str, Any]) -> str:
    return item["household_id"]


def _schedule_delta(old: dict | None, new: dict | None) -> dict[str, Any]:
    """Diff two encoded schedule results; wholesale replace when the frame
    (presence, zoned-ness, axis or target) changed."""
    if (
        old is None
        or new is None
        or "zones" in old
        or "zones" in new
        or old["axis"] != new["axis"]
        or old["target"] != new["target"]
    ):
        return {"replaced": new}
    return {
        "schedules": _keyed_delta(old["schedules"], new["schedules"], _embedded_offer_key),
        "unplaced": _keyed_delta(old["unplaced"], new["unplaced"], _offer_key),
    }


def _apply_schedule_delta(base: dict | None, delta: Any) -> dict | None:
    _require(delta, (), "schedule delta")
    if "replaced" in delta:
        return delta["replaced"]
    if base is None:
        raise DataError("schedule delta is incremental but the base has no schedule")
    _require(delta, ("schedules", "unplaced"), "incremental schedule delta")
    return {
        "axis": base["axis"],
        "target": base["target"],
        "schedules": _apply_keyed(
            base["schedules"], delta["schedules"], _embedded_offer_key, "schedule delta schedules"
        ),
        "unplaced": _apply_keyed(
            base["unplaced"], delta["unplaced"], _offer_key, "schedule delta unplaced"
        ),
    }


def report_delta(old: dict[str, Any], new: dict[str, Any]) -> dict[str, Any]:
    """The versioned diff between two successive session snapshot dicts.

    Operates on :meth:`repro.session.SessionSnapshot.to_dict` encodings.
    Households are keyed by household id, aggregates and committed
    placements by offer id, and the schedule section diffs its placements
    the same way (falling back to wholesale replacement when the axis or
    target changed).  The round trip is exact:
    ``apply_report_delta(report_delta(a, b), a) == b`` for any two
    snapshots of the same session (property-tested).
    """
    _require(old, _DELTA_SOURCE_FIELDS, "old snapshot")
    _require(new, _DELTA_SOURCE_FIELDS + ("watermark",), "new snapshot")
    return {
        "version": REPORT_DELTA_VERSION,
        "base_state_version": old["state_version"],
        "state_version": new["state_version"],
        "watermark": new["watermark"],
        "households": _keyed_delta(old["households"], new["households"], _household_key),
        "aggregates": _keyed_delta(
            old["aggregates"], new["aggregates"], _embedded_offer_key
        ),
        "committed": _keyed_delta(old["committed"], new["committed"], _embedded_offer_key),
        "schedule": _schedule_delta(old.get("schedule"), new.get("schedule")),
    }


def apply_report_delta(delta: dict[str, Any], base: dict[str, Any]) -> dict[str, Any]:
    """Reconstruct the newer snapshot dict from the older one plus a delta."""
    _require(delta, (), "report delta")
    version = delta.get("version", REPORT_DELTA_VERSION)
    if version != REPORT_DELTA_VERSION:
        raise DataError(f"unsupported report-delta version {version}")
    _require(delta, _DELTA_FIELDS, "report delta")
    _require(base, _DELTA_SOURCE_FIELDS + ("version",), "base snapshot")
    if delta["base_state_version"] != base["state_version"]:
        raise DataError(
            f"report delta applies to state version {delta['base_state_version']}, "
            f"base is at {base['state_version']}"
        )
    return {
        "version": base["version"],
        "state_version": delta["state_version"],
        "watermark": delta["watermark"],
        "households": _apply_keyed(
            base["households"], delta["households"], _household_key, "households delta"
        ),
        "aggregates": _apply_keyed(
            base["aggregates"], delta["aggregates"], _embedded_offer_key, "aggregates delta"
        ),
        "schedule": _apply_schedule_delta(base.get("schedule"), delta["schedule"]),
        "committed": _apply_keyed(
            base["committed"], delta["committed"], _embedded_offer_key, "committed delta"
        ),
    }


def save_flexoffers(offers: list[FlexOffer], path: str | Path) -> None:
    """Write a list of flex-offers to a JSON file."""
    payload = [flexoffer_to_dict(o) for o in offers]
    Path(path).write_text(json.dumps(payload, indent=2))


def load_flexoffers(path: str | Path) -> list[FlexOffer]:
    """Read a list of flex-offers from a JSON file."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, list):
        raise DataError(f"{path}: expected a JSON list of flex-offers")
    return [flexoffer_from_dict(item) for item in payload]
