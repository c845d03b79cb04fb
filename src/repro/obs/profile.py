"""Profiling views: the one account of where a trace's time went.

Every view that turns spans into time — ``flamegraph.txt``, the
``repro dash`` table and the ``--trace`` summary — reads the span
forest :func:`span_forest` builds, so there is one parent rule and one
self-time computation.  Records are
:class:`~repro.telemetry.SpanRecord` objects, live from a session or
read back from ``trace.jsonl`` by :func:`records_from_jsonl`; the
views take them in :func:`~repro.telemetry.trace_order`, so their
output never depends on the order shards were absorbed in.

A span's parent is the latest-starting span on the same track one
level shallower whose time range contains it (on a tie, the one
recorded last).  Its self time is its duration minus its own
children's durations, clamped at zero: children that overlap each
other can sum past their parent.  Each track's spans are sorted once
by start and swept once, keeping per depth the spans that may still
contain a later one.

Each flamegraph line is ``track;ancestor;...;span count``, the count
being self time in integer microseconds; lines sort
lexicographically, so with deterministic span times the export is
byte-identical whenever the trace is.
"""

import json

from repro.telemetry import SpanRecord, trace_order

#: ``trace.jsonl`` keys, in :class:`~repro.telemetry.SpanRecord`
#: field order.
_FIELDS = ("type", "track", "seq", "name", "start_ms", "end_ms", "depth",
           "attrs")


def records_from_jsonl(path):
    """The records of the ``trace.jsonl`` at *path*, in file order.

    Raises ValueError naming the line when one is not a JSON object
    holding every field :func:`~repro.telemetry.export_jsonl` writes.
    """
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
                values = [raw[key] for key in _FIELDS]
            except KeyError as error:
                raise ValueError(
                    f"{path}:{number}: trace record lacks field {error}"
                ) from None
            except (ValueError, TypeError) as error:
                raise ValueError(
                    f"{path}:{number}: not a trace record: {error}"
                ) from None
            records.append(SpanRecord(*values))
    return records


def span_forest(records):
    """Every span of *records* with its stack and self time.

    Yields ``(record, stack, self_time)`` in trace order: *stack* is
    the ``track;ancestor;...;name`` frame string and *self_time* is in
    the span's clock units (sim milliseconds or logical ticks).
    """
    by_track = {}
    for record in trace_order(records):
        if record.kind == "span":
            by_track.setdefault(record.track, []).append(record)
    for track, spans in by_track.items():
        parents = [None] * len(spans)
        stacks = [None] * len(spans)
        # depth -> indices of the spans that may still contain a later
        # one, latest-starting last.
        open_spans = {}
        # A stable sort: spans with equal (start, depth) stay in trace
        # order, so the one recorded last wins a tie for parent.
        keys = [(span.start, span.depth) for span in spans]
        for index in sorted(range(len(spans)), key=keys.__getitem__):
            span = spans[index]
            candidates = open_spans.get(span.depth - 1, ())
            # A span ending before this one starts contains no later
            # span either.
            while candidates and spans[candidates[-1]].end < span.start:
                candidates.pop()
            parent = None
            for candidate in reversed(candidates):
                if spans[candidate].end >= span.end:
                    parent = candidate
                    break
            parents[index] = parent
            stacks[index] = (
                f"{track if parent is None else stacks[parent]};{span.name}"
            )
            open_spans.setdefault(span.depth, []).append(index)
        child_time = [0] * len(spans)
        for span, parent in zip(spans, parents):
            if parent is not None:
                child_time[parent] += span.end - span.start
        for span, stack, children in zip(spans, stacks, child_time):
            yield span, stack, max((span.end - span.start) - children, 0.0)


def flamegraph_text(records):
    """The ``flamegraph.txt`` export: collapsed stacks, sorted, in µs.

    Zero-self-time stacks are kept (count 0) so the frame inventory is
    stable across runs whose timing differs only in attribution.
    """
    totals = {}
    for _, stack, self_time in span_forest(records):
        totals[stack] = totals.get(stack, 0) + int(round(self_time * 1000))
    return "".join(f"{stack} {count}\n"
                   for stack, count in sorted(totals.items()))


def self_time_rows(records, limit=10):
    """The *limit* span names with the most self time in *records*.

    Rows carry ``name``, ``count``, ``total_self`` and ``mean_self``,
    sorted by total self time descending, then name.
    """
    totals = {}
    for span, _, self_time in span_forest(records):
        entry = totals.setdefault(span.name, [0, 0.0])
        entry[0] += 1
        entry[1] += self_time
    rows = [
        {
            "name": name,
            "count": count,
            "total_self": total,
            "mean_self": total / count,
        }
        for name, (count, total) in totals.items()
    ]
    rows.sort(key=lambda row: (-row["total_self"], row["name"]))
    return rows[:limit]


def render_self_time_rows(rows):
    """The text table of :func:`self_time_rows` *rows*, one per line."""
    if not rows:
        return "  (no spans recorded)"
    return "\n".join(
        f"  {row['name']:<28} x{row['count']:<5} "
        f"self={row['total_self']:.3f} mean={row['mean_self']:.3f}"
        for row in rows
    )
