"""JSON (de)serialisation of flex-offers and schedules.

MIRABEL's data-management layer (paper [3]) persists flex-offers in a
warehouse; this module provides the equivalent stable wire format: a plain
dict/JSON encoding with ISO-8601 timestamps and second-resolution durations,
round-trippable without loss.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from contextlib import contextmanager
from datetime import datetime, timedelta
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import DataError, ReproError
from repro.flexoffer.model import FlexOffer, ProfileSlice
from repro.flexoffer.schedule import ScheduledFlexOffer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.forecasting.quantiles import QuantileForecast
    from repro.scheduling.greedy import ScheduleResult
    from repro.scheduling.zones import ZonedScheduleResult

_FORMAT_VERSION = 1


def _dt(value: datetime | None) -> str | None:
    return None if value is None else value.isoformat()


def _parse_dt(value: str | None) -> datetime | None:
    return None if value is None else datetime.fromisoformat(value)


@contextmanager
def decoding(what: str) -> Iterator[None]:
    """Raise malformed ``what`` input as :class:`DataError`, never bare.

    A missing field names it; a value of the wrong shape or type (a list
    in place of an object, an unparsable timestamp, a string energy) names
    the cause.  Errors of the repo's own types — a nested decoder's
    :class:`DataError`, a model constructor's validation error — pass
    through unchanged.
    """
    try:
        yield
    except ReproError:
        raise
    except KeyError as exc:
        raise DataError(f"{what} dict missing field: {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed {what} dict: {exc}") from exc


def flexoffer_to_dict(offer: FlexOffer) -> dict[str, Any]:
    """Encode a flex-offer as a JSON-compatible dict."""
    return {
        "version": _FORMAT_VERSION,
        "offer_id": offer.offer_id,
        "consumer_id": offer.consumer_id,
        "appliance": offer.appliance,
        "source": offer.source,
        "earliest_start": _dt(offer.earliest_start),
        "latest_start": _dt(offer.latest_start),
        "resolution_seconds": offer.resolution.total_seconds(),
        "creation_time": _dt(offer.creation_time),
        "acceptance_deadline": _dt(offer.acceptance_deadline),
        "assignment_deadline": _dt(offer.assignment_deadline),
        "total_energy_min": offer.total_energy_min,
        "total_energy_max": offer.total_energy_max,
        "slices": [
            {"energy_min": s.energy_min, "energy_max": s.energy_max, "duration": s.duration}
            for s in offer.slices
        ],
    }


def flexoffer_from_dict(data: dict[str, Any]) -> FlexOffer:
    """Decode a flex-offer from its dict encoding."""
    with decoding("flex-offer"):
        version = data.get("version", _FORMAT_VERSION)
        if version != _FORMAT_VERSION:
            raise DataError(f"unsupported flex-offer format version {version}")
        slices = tuple(
            ProfileSlice(s["energy_min"], s["energy_max"], s.get("duration", 1))
            for s in data["slices"]
        )
        return FlexOffer(
            earliest_start=_parse_dt(data["earliest_start"]),
            latest_start=_parse_dt(data["latest_start"]),
            slices=slices,
            resolution=timedelta(seconds=data["resolution_seconds"]),
            offer_id=data["offer_id"],
            consumer_id=data.get("consumer_id", ""),
            appliance=data.get("appliance", ""),
            source=data.get("source", ""),
            creation_time=_parse_dt(data.get("creation_time")),
            acceptance_deadline=_parse_dt(data.get("acceptance_deadline")),
            assignment_deadline=_parse_dt(data.get("assignment_deadline")),
            total_energy_min=data.get("total_energy_min"),
            total_energy_max=data.get("total_energy_max"),
        )


def schedule_to_dict(schedule: ScheduledFlexOffer) -> dict[str, Any]:
    """Encode a scheduled flex-offer (embeds the offer)."""
    return {
        "offer": flexoffer_to_dict(schedule.offer),
        "start": _dt(schedule.start),
        "slice_energies": list(schedule.slice_energies),
    }


def schedule_from_dict(data: dict[str, Any]) -> ScheduledFlexOffer:
    """Decode a scheduled flex-offer."""
    with decoding("schedule"):
        return ScheduledFlexOffer(
            offer=flexoffer_from_dict(data["offer"]),
            start=_parse_dt(data["start"]),
            slice_energies=tuple(data["slice_energies"]),
        )


def aggregated_to_dict(aggregate: "AggregatedFlexOffer") -> dict[str, Any]:
    """Encode an aggregated flex-offer (aggregate + members + offsets).

    Part of the extended wire format used by run reports
    (:mod:`repro.api.service`): the full aggregation output round-trips, so
    a stored report supports later disaggregation.
    """
    return {
        "offer": flexoffer_to_dict(aggregate.offer),
        "members": [flexoffer_to_dict(m) for m in aggregate.members],
        "member_offsets": list(aggregate.member_offsets),
    }


def aggregated_from_dict(data: dict[str, Any]) -> "AggregatedFlexOffer":
    """Decode an aggregated flex-offer from its dict encoding."""
    from repro.aggregation.aggregate import AggregatedFlexOffer

    with decoding("aggregated flex-offer"):
        return AggregatedFlexOffer(
            offer=flexoffer_from_dict(data["offer"]),
            members=tuple(flexoffer_from_dict(m) for m in data["members"]),
            member_offsets=tuple(int(o) for o in data["member_offsets"]),
        )


def schedule_result_to_dict(result: "ScheduleResult") -> dict[str, Any]:
    """Encode a scheduling run (axis + target + placements + unplaced).

    The demand plan is not stored: it is exactly the sum of the encoded
    schedules on the encoded axis, and :func:`schedule_result_from_dict`
    rebuilds it deterministically — keeping the wire format minimal while
    the round-trip stays lossless.
    """
    axis = result.target.axis
    return {
        "axis": {
            "start": _dt(axis.start),
            "resolution_seconds": axis.resolution.total_seconds(),
            "length": axis.length,
        },
        "target": {
            "name": result.target.name,
            "values": [float(v) for v in result.target.values],
        },
        "schedules": [schedule_to_dict(s) for s in result.schedules],
        "unplaced": [flexoffer_to_dict(o) for o in result.unplaced],
    }


def schedule_result_from_dict(data: dict[str, Any]) -> "ScheduleResult":
    """Decode a scheduling run, rebuilding the demand plan from the parts."""
    from repro.flexoffer.schedule import schedules_to_series
    from repro.scheduling.greedy import ScheduleResult
    from repro.timeseries.axis import TimeAxis
    from repro.timeseries.series import TimeSeries

    with decoding("schedule result"):
        axis = TimeAxis(
            start=_parse_dt(data["axis"]["start"]),
            resolution=timedelta(seconds=data["axis"]["resolution_seconds"]),
            length=int(data["axis"]["length"]),
        )
        target = TimeSeries(
            axis, data["target"]["values"], name=data["target"].get("name", "")
        )
        schedules = [schedule_from_dict(s) for s in data["schedules"]]
        unplaced = [flexoffer_from_dict(o) for o in data["unplaced"]]
        return ScheduleResult(
            schedules=schedules,
            demand=schedules_to_series(schedules, axis),
            target=target,
            unplaced=unplaced,
        )


def zoned_result_to_dict(result: "ZonedScheduleResult") -> dict[str, Any]:
    """Encode a zone-sharded scheduling run (zones + per-zone results).

    The discriminating ``"zones"`` key tells readers apart from the
    single-market encoding of :func:`schedule_result_to_dict`; each zone
    carries its price band and its full schedule result (the zone's target
    series doubles as the zone's demand profile, so nothing else is
    needed to rebuild the :class:`~repro.scheduling.zones.MarketZone`).
    Market-cleared runs add a ``"clearing"`` section
    (:meth:`~repro.market.clearing.ClearingResult.to_dict`); the key is
    omitted when the run never cleared, so pre-market goldens and readers
    are untouched.
    """
    encoded: dict[str, Any] = {
        "zones": [
            {
                "name": zone.name,
                "price_floor": zone.price_floor,
                "price_cap": zone.price_cap,
                "result": schedule_result_to_dict(zone_result),
            }
            for zone, zone_result in zip(result.zones, result.results)
        ]
    }
    if result.clearing is not None:
        encoded["clearing"] = result.clearing.to_dict()
    return encoded


def zoned_result_from_dict(data: dict[str, Any]) -> "ZonedScheduleResult":
    """Decode a zone-sharded scheduling run."""
    from repro.scheduling.zones import MarketZone, ZonedScheduleResult

    zones = []
    results = []
    with decoding("zoned schedule"):
        for entry in data["zones"]:
            zone_result = schedule_result_from_dict(entry["result"])
            zones.append(
                MarketZone(
                    name=entry["name"],
                    target=zone_result.target,
                    price_floor=float(entry.get("price_floor", 0.0)),
                    price_cap=float(entry.get("price_cap", 0.0)),
                )
            )
            results.append(zone_result)
        clearing_data = data.get("clearing")
    clearing = None
    if clearing_data is not None:
        from repro.market.clearing import ClearingResult

        clearing = ClearingResult.from_dict(clearing_data)
    return ZonedScheduleResult(
        zones=tuple(zones), results=tuple(results), clearing=clearing
    )


def any_schedule_to_dict(
    result: "ScheduleResult | ZonedScheduleResult",
) -> dict[str, Any]:
    """Encode either schedule-result flavour (zoned or single-market)."""
    from repro.scheduling.zones import ZonedScheduleResult

    if isinstance(result, ZonedScheduleResult):
        return zoned_result_to_dict(result)
    return schedule_result_to_dict(result)


def any_schedule_from_dict(
    data: dict[str, Any],
) -> "ScheduleResult | ZonedScheduleResult":
    """Decode either schedule-result flavour, sniffed by the ``zones`` key."""
    with decoding("schedule result"):
        zoned = "zones" in data
    return zoned_result_from_dict(data) if zoned else schedule_result_from_dict(data)


def quantile_forecast_to_dict(forecast: "QuantileForecast") -> dict[str, Any]:
    """Encode a quantile forecast (axis + point + per-level curves).

    The axis is stored once; the point forecast and every quantile curve
    share it, so only names and value arrays travel per curve.  Levels and
    curves are kept in the forecast's (strictly increasing) level order —
    the round trip through :func:`quantile_forecast_from_dict` is exact.
    """
    axis = forecast.axis
    return {
        "axis": {
            "start": _dt(axis.start),
            "resolution_seconds": axis.resolution.total_seconds(),
            "length": axis.length,
        },
        "point": {
            "name": forecast.point.name,
            "values": [float(v) for v in forecast.point.values],
        },
        "levels": [float(level) for level in forecast.levels],
        "curves": [
            {"name": curve.name, "values": [float(v) for v in curve.values]}
            for curve in forecast.curves
        ],
    }


def quantile_forecast_from_dict(data: dict[str, Any]) -> "QuantileForecast":
    """Decode a quantile forecast from its dict encoding."""
    from repro.forecasting.quantiles import QuantileForecast
    from repro.timeseries.axis import TimeAxis
    from repro.timeseries.series import TimeSeries

    with decoding("quantile forecast"):
        axis = TimeAxis(
            start=_parse_dt(data["axis"]["start"]),
            resolution=timedelta(seconds=data["axis"]["resolution_seconds"]),
            length=int(data["axis"]["length"]),
        )
        point = TimeSeries(
            axis, data["point"]["values"], name=data["point"].get("name", "")
        )
        levels = tuple(float(level) for level in data["levels"])
        curves = tuple(
            TimeSeries(axis, curve["values"], name=curve.get("name", ""))
            for curve in data["curves"]
        )
    return QuantileForecast(point=point, levels=levels, curves=curves)


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
    try:
        merged = {key(item): item for item in base_items}
        for item in delta["upserted"]:
            merged[key(item)] = item
        for removed in delta["removed"]:
            merged.pop(removed, None)
    except (KeyError, TypeError) as exc:
        raise DataError(f"{what} holds a malformed entry ({exc!r})") from exc
    try:
        return [merged[k] for k in delta["order"]]
    except KeyError as exc:
        raise DataError(f"report delta order references unknown key {exc}") from exc
    except TypeError as exc:
        raise DataError(f"{what} has a malformed order ({exc})") from exc


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
