"""The program's layers as the benchmark sees them: one hook per public call.

Layers are named after their modules.  Each :class:`~perfbench.spans.Hook`
wraps the call a layer is entered through and counts the work done there;
:func:`layer_metrics` turns a traced run's spans and counts into the
``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import inspect
import os
from collections import Counter
from typing import Callable

from perfbench.spans import Hook, Tracer, busy_by_name, root_time

#: Ratio metrics: name -> (numerator count, denominator count).
RATIOS = {
    "aggregation.compression": ("aggregation.members", "aggregation.aggregates"),
    "clearing.cleared_share": ("clearing.cleared", "clearing.bids"),
    "placement.placed_share": ("placement.placed", "placement.offers"),
}


def busy_metric(span_name: str) -> str:
    """``matching`` -> ``matching.busy_s``; ``session.replan`` -> ``session.replan_busy_s``."""
    return f"{span_name}_busy_s" if "." in span_name else f"{span_name}.busy_s"


def _count(**counts: Callable) -> Callable:
    """An ``after`` callback adding ``fn(args, kwargs, result)`` per count.

    Keyword names use ``__`` for the dot of the metric name.
    """

    def after(tracer: Tracer, args, kwargs, result, state) -> None:
        for key, value in counts.items():
            tracer.counts[key.replace("__", ".")] += value(args, kwargs, result)

    return after


def _one(args, kwargs, result) -> int:
    return 1


def _extracted_offers(tracer: Tracer, args, kwargs, result, state) -> None:
    # An extractor's ``extract`` may call its own ``formulate``: count the
    # outermost extraction call only.
    parent = tracer.current
    if parent is None or parent.name != "extraction":
        tracer.counts["extraction.offers"] += len(result.offers)


def _dirty_households(tracer: Tracer, args, kwargs) -> None:
    session = args[0]
    tracer.counts["session.dirty_households"] += sum(
        household.dirty for household in session.state.households
    )


def _wal_bytes(journal) -> int:
    from repro.session.persistence import WAL_NAME

    return os.path.getsize(journal.directory / WAL_NAME)


def _appended(tracer: Tracer, args, kwargs, result, size_before: int) -> None:
    tracer.counts["journal.records"] += 1
    tracer.counts["journal.bytes"] += _wal_bytes(args[0]) - size_before


def hooks() -> list[Hook]:
    """Every layer boundary the traced run records."""
    from repro.api.registry import available_extractors, get_entry
    from repro.scheduling.stochastic import improve_schedule

    improve_signature = inspect.signature(improve_schedule)

    def iterations(args, kwargs, result) -> int:
        bound = improve_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["iterations"]

    extraction = []
    for name in available_extractors():
        cls = get_entry(name).cls
        for method in ("extract", "detect", "formulate"):
            if method in vars(cls):
                extraction.append(
                    Hook(
                        f"{cls.__module__}:{cls.__qualname__}.{method}",
                        "extraction",
                        after=None if method == "detect" else _extracted_offers,
                    )
                )
    return [
        Hook("repro.simulation.dataset:generate_fleet", "simulation"),
        Hook(
            "repro.disaggregation.baseline:remove_baseline",
            "baseline",
            after=_count(baseline__calls=_one),
        ),
        Hook(
            "repro.disaggregation.matching:match_pursuit",
            "matching",
            after=_count(
                matching__calls=_one,
                matching__detections=lambda a, k, r: len(r.detections),
            ),
        ),
        *extraction,
        Hook(
            "repro.aggregation.grouping:group_offers",
            "grouping",
            after=_count(grouping__groups=lambda a, k, r: len(r)),
        ),
        Hook(
            "repro.aggregation.aggregate:aggregate_all",
            "aggregation",
            after=_count(
                aggregation__aggregates=lambda a, k, r: len(r),
                aggregation__members=lambda a, k, r: sum(x.size for x in r),
            ),
        ),
        Hook(
            "repro.aggregation.streaming:aggregate_stream",
            "aggregation",
            after=_count(
                aggregation__aggregates=lambda a, k, r: len(r),
                aggregation__members=lambda a, k, r: sum(x.size for x in r),
            ),
            generator=True,
        ),
        Hook(
            "repro.market.clearing:clear_zones",
            "clearing",
            after=_count(
                clearing__bids=lambda a, k, r: len(r.outcomes),
                clearing__cleared=lambda a, k, r: sum(o.cleared for o in r.outcomes),
            ),
        ),
        Hook(
            "repro.scheduling.greedy:greedy_schedule",
            "placement",
            after=_count(
                placement__offers=lambda a, k, r: len(a[0]),
                placement__placed=lambda a, k, r: len(r.schedules),
            ),
        ),
        Hook(
            "repro.scheduling.stochastic:improve_schedule",
            "improvement",
            after=_count(improvement__iterations=iterations),
        ),
        Hook(
            "repro.aggregation.aggregate:disaggregate_schedule",
            "schedule_disaggregation",
            after=_count(schedule_disaggregation__members=lambda a, k, r: len(r)),
        ),
        Hook("repro.session.state:FlexibilitySession.ingest", "session.ingest"),
        Hook(
            "repro.session.state:FlexibilitySession.replan",
            "session.replan",
            before=_dirty_households,
            after=_count(session__replans=_one),
        ),
        Hook("repro.session.state:FlexibilitySession.commit", "session.commit"),
        Hook(
            "repro.session.persistence:SessionJournal.append",
            "journal.append",
            before=lambda tracer, args, kwargs: _wal_bytes(args[0]),
            after=_appended,
        ),
        # Encoding the state is the first half of every snapshot.
        Hook("repro.session.persistence:encode_state", "journal.snapshot"),
        Hook(
            "repro.session.persistence:SessionJournal.write_snapshot",
            "journal.snapshot",
            after=_count(journal__snapshots=_one),
        ),
        Hook("os:fsync", None, after=_count(journal__fsyncs=_one)),
    ]


def layer_metrics(
    tracer: Tracer, run_ids: list[str], walls: list[float], counts: Counter
) -> dict[str, float]:
    """Per-operation layer metrics of the traced operations ``run_ids``.

    Busy times are self times averaged over the operations; the
    ``unaccounted.busy_s`` row is the wall time no layer span covers, so
    the busy rows add up to the mean traced wall time.  ``counts`` are one
    operation's counters (they repeat exactly across operations).
    """
    metrics: dict[str, float] = Counter()
    n = len(run_ids)
    for run_id, wall in zip(run_ids, walls):
        spans = tracer.run_spans(run_id)
        for name, busy in busy_by_name(spans).items():
            metrics[busy_metric(name)] += busy / n
        metrics["unaccounted.busy_s"] += (wall - root_time(spans)) / n
    metrics.update({key: float(value) for key, value in counts.items()})
    for name, (numerator, denominator) in RATIOS.items():
        metrics[name] = counts[numerator] / counts[denominator] if counts[denominator] else 0.0
    return dict(metrics)
