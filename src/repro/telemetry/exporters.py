"""Exporters for :mod:`repro.telemetry` sessions.

Three deterministic-channel formats plus one advisory file:

* ``trace.jsonl`` — one JSON object per record (sorted by
  ``(track, seq)``, compact separators, sorted keys), the
  machine-greppable event log;
* ``trace.json`` — Chrome trace format (the JSON Array/Object format
  read by Perfetto and ``chrome://tracing``): tracks become threads,
  spans become complete ``"X"`` events, instants become ``"i"``;
* ``metrics.txt`` — the registry's plain-text rendering;
* ``executor.jsonl`` — the advisory channel (supervision events),
  which carries **no** byte-identity guarantee.

The first three are byte-identical across ``--workers`` counts,
repeat runs, and checkpoint resume — that property is what the
``sweep-smoke`` CI job and ``tests/test_telemetry.py`` diff for.
"""

import json
import pathlib

#: Filenames written by :func:`write_exports`, deterministic channel
#: first.  ``execution.json`` is added when an ExecutionReport is
#: passed.
EXPORT_FILENAMES = (
    "trace.jsonl", "trace.json", "metrics.txt", "executor.jsonl",
)


def _sorted_records(session):
    return sorted(session.records, key=lambda r: (r.track, r.seq))


def export_jsonl(session):
    """The JSONL event log: one compact JSON object per record."""
    lines = []
    for record in _sorted_records(session):
        lines.append(json.dumps(
            {
                "type": record.kind,
                "track": record.track,
                "seq": record.seq,
                "name": record.name,
                "start_ms": record.start,
                "end_ms": record.end,
                "depth": record.depth,
                "attrs": record.attrs,
            },
            sort_keys=True, separators=(",", ":"),
        ))
    return "".join(line + "\n" for line in lines)


def export_chrome_trace(session):
    """Chrome trace format JSON (Perfetto / ``chrome://tracing``).

    Tracks map to threads of one process (thread names via ``"M"``
    metadata events); spans become complete ``"X"`` events with
    integer microsecond ``ts``/``dur`` (sim milliseconds or logical
    ticks, times 1000); instants become ``"i"`` events with
    thread scope.
    """
    records = _sorted_records(session)
    tracks = sorted({record.track for record in records})
    tids = {track: position + 1 for position, track in enumerate(tracks)}
    events = [{
        "ph": "M", "pid": 1, "tid": 0, "name": "process_name",
        "args": {"name": "repro"},
    }]
    for track in tracks:
        events.append({
            "ph": "M", "pid": 1, "tid": tids[track],
            "name": "thread_name", "args": {"name": track},
        })
    for record in records:
        ts = int(round(record.start * 1000))
        base = {
            "pid": 1, "tid": tids[record.track], "name": record.name,
            "ts": ts, "cat": record.name.split(".", 1)[0],
            "args": record.attrs,
        }
        if record.kind == "span":
            base["ph"] = "X"
            base["dur"] = max(int(round(record.end * 1000)) - ts, 0)
        else:
            base["ph"] = "i"
            base["s"] = "t"
        events.append(base)
    return json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"},
        sort_keys=True, separators=(",", ":"),
    ) + "\n"


def export_metrics_text(session):
    """The metrics registry's sorted plain-text summary."""
    lines = session.metrics.render_lines()
    return "".join(line + "\n" for line in lines)


def export_advisory_jsonl(session):
    """The advisory channel: supervision events, occurrence order.

    Pool rebuilds, deadline hits, and checkpoint restores differ
    legitimately between runs — this export is *excluded* from every
    byte-identity guarantee.
    """
    lines = []
    for position, (name, attrs) in enumerate(session.advisory):
        lines.append(json.dumps(
            {"seq": position, "name": name, "attrs": attrs},
            sort_keys=True, separators=(",", ":"),
        ))
    return "".join(line + "\n" for line in lines)


def write_exports(session, directory, report=None):
    """Write every export for *session* into *directory*.

    Writes the four standard files (:data:`EXPORT_FILENAMES`) and,
    when *report* (an :class:`~repro.parallel.ExecutionReport`) is
    given, ``execution.json`` with its :meth:`to_dict` — the advisory
    counters in machine-readable form.  Returns the written paths.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    contents = {
        "trace.jsonl": export_jsonl(session),
        "trace.json": export_chrome_trace(session),
        "metrics.txt": export_metrics_text(session),
        "executor.jsonl": export_advisory_jsonl(session),
    }
    if report is not None:
        contents["execution.json"] = json.dumps(
            report.to_dict(), indent=2, sort_keys=True
        ) + "\n"
    paths = []
    for name, text in contents.items():
        path = directory / name
        path.write_text(text)
        paths.append(path)
    return paths


def span_self_times(session):
    """Per-span self time: duration minus direct children's durations.

    A child is a span on the same track nested one level deeper and
    contained within the parent's time range.  Quadratic per track —
    meant for reports and examples, not hot paths.  Yields
    ``(record, self_time)`` pairs; times mix sim milliseconds and
    logical ticks depending on the span's clock domain.
    """
    by_track = {}
    for record in _sorted_records(session):
        if record.kind == "span":
            by_track.setdefault(record.track, []).append(record)
    for spans in by_track.values():
        for parent in spans:
            child_time = sum(
                child.end - child.start
                for child in spans
                if child is not parent
                and child.depth == parent.depth + 1
                and child.start >= parent.start
                and child.end <= parent.end
            )
            yield parent, (parent.end - parent.start) - child_time


def top_spans_by_self_time(session, limit=10):
    """Aggregate self time by span name; the *limit* heaviest first.

    Returns dicts with ``name``, ``count``, ``total_self`` (summed
    self time in the span's clock units) and ``mean_self``, sorted by
    total self time descending (name ascending on ties, for
    determinism).
    """
    totals = {}
    for record, self_time in span_self_times(session):
        entry = totals.setdefault(record.name, [0, 0.0])
        entry[0] += 1
        entry[1] += self_time
    rows = [
        {
            "name": name,
            "count": count,
            "total_self": total,
            "mean_self": total / count if count else 0.0,
        }
        for name, (count, total) in totals.items()
    ]
    rows.sort(key=lambda row: (-row["total_self"], row["name"]))
    return rows[:limit]


def render_trace_summary(session, limit=10):
    """Human-readable session summary: top spans plus the metrics."""
    lines = [f"top {limit} spans by self-time:"]
    rows = top_spans_by_self_time(session, limit=limit)
    if not rows:
        lines.append("  (no spans recorded)")
    for row in rows:
        lines.append(
            f"  {row['name']:<28} x{row['count']:<5} "
            f"self={row['total_self']:.3f} "
            f"mean={row['mean_self']:.3f}"
        )
    metrics = export_metrics_text(session)
    if metrics:
        lines.append("")
        lines.append(metrics.rstrip("\n"))
    return "\n".join(lines)
