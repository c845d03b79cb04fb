"""Windowed rollups: folding raw telemetry into operable time series.

A :class:`Rollup` partitions trace records into fixed windows, each
backed by its own :class:`~repro.telemetry.MetricsRegistry`.  Windows
live in two domains:

* ``sim`` — fixed sim-clock windows (``floor(start_ms / window_ms)``):
  doctor/execute/collect span durations become histograms, verdict
  events become counters;
* ``round`` — one window per stream sync round, fed from
  ``stream.round.stats`` events.

A rollup is built once, from the parent session's trace records
after every shard's telemetry has been absorbed; the exports fold
them in ``trace.jsonl``'s ``(track, seq)`` order, so the exported
``rollups.jsonl`` is byte-identical across ``--workers`` counts,
repeat runs, and SIGKILL + resume.  Derived statistics
(percentiles, overhead %, availability) are computed *at render time*
from integer bucket counts and counter sums — never from floats
accumulated in record order — which is what keeps the derivation
deterministic.

Percentiles are bucket-resolution by construction: the reported pNN
is the smallest histogram bucket bound covering that rank, or null
when the rank falls in the +inf bucket.
"""

import json

from repro.telemetry import MetricsRegistry

#: Default sim-clock window width (milliseconds).
DEFAULT_WINDOW_MS = 1000.0

#: Quantiles reported for every histogram in every window.
QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))

#: Per-round batch-accounting counters mirrored from the stream.
_ROUND_STATS = (
    "batches_ingested", "batches_dropped", "batches_duplicated",
    "batches_late", "duplicates_ignored",
)


def _norm(record):
    """Normalize a record to ``(kind, name, start, end, attrs)``.

    Accepts both live :class:`~repro.telemetry.SpanRecord` objects and
    the dict form read back from ``trace.jsonl``, so rollups can be
    built in-process or offline from an export directory.
    """
    if isinstance(record, dict):
        return (
            record.get("type"), record.get("name"),
            record.get("start_ms", 0.0), record.get("end_ms", 0.0),
            record.get("attrs") or {},
        )
    return record.kind, record.name, record.start, record.end, record.attrs


def _index_key(index):
    """Sort key tolerating mixed int/str window indices."""
    if isinstance(index, bool) or not isinstance(index, (int, float)):
        return (1, str(index))
    return (0, float(index), "")


def bucket_quantile(bounds, counts, q):
    """The smallest bucket bound covering rank ``q`` (or None).

    *bounds*/*counts* come from
    :meth:`~repro.telemetry.MetricsRegistry.histogram_buckets`;
    *counts* has the +inf bucket last.  Integer cumulative counts
    against ``q * total`` keep the answer independent of observation
    and merge order.  A rank landing in the +inf bucket has no finite
    bound to report, hence None.
    """
    total = sum(counts)
    if total == 0:
        return None
    rank = q * total
    cumulative = 0
    for bound, count in zip(bounds, counts):
        cumulative += count
        if cumulative >= rank:
            return bound
    return None


def _round9(value):
    return round(value, 9)


class Rollup:
    """Fixed-window aggregation of telemetry into per-window registries."""

    def __init__(self, window_ms=DEFAULT_WINDOW_MS):
        if window_ms <= 0:
            raise ValueError(f"window_ms must be > 0, got {window_ms}")
        self.window_ms = float(window_ms)
        #: ``(domain, index) -> MetricsRegistry``
        self._windows = {}

    def window(self, domain, index):
        """The registry backing window ``(domain, index)`` (created)."""
        key = (domain, index)
        registry = self._windows.get(key)
        if registry is None:
            registry = self._windows[key] = MetricsRegistry()
        return registry

    def __len__(self):
        return len(self._windows)

    def windows(self, domain=None):
        """Sorted ``(domain, index, registry)`` triples, optionally
        restricted to one domain."""
        return [
            (dom, index, registry)
            for (dom, index), registry in sorted(
                self._windows.items(),
                key=lambda item: (item[0][0], _index_key(item[0][1])),
            )
            if domain is None or dom == domain
        ]

    # ------------------------------------------------------------ inputs

    def add_records(self, records):
        """Fold trace records (live or ``trace.jsonl`` dicts) in.

        Spans land in the ``sim`` domain window of their *start* time;
        ``stream.round.stats`` events land in the ``round`` domain.
        Unknown record names are ignored — the rollup is a view, not a
        validator.
        """
        for record in records:
            kind, name, start, end, attrs = _norm(record)
            if name == "stream.round.stats":
                self._add_round_stats(attrs)
                continue
            window = None
            if kind == "span":
                duration = max(float(end) - float(start), 0.0)
                if name == "core.action.process":
                    window = self._sim_window(start)
                    window.count("actions")
                    window.observe("doctor_ms", duration)
                    if attrs.get("hang"):
                        window.count("hangs")
                        window.observe("hang_ms", duration)
                elif name == "sim.action.execute":
                    window = self._sim_window(start)
                    window.count("executions")
                    window.observe("exec_ms", duration)
                elif name == "core.diagnoser.collect":
                    window = self._sim_window(start)
                    window.count("collections")
                    window.observe("collect_ms", duration)
            elif kind == "event":
                if name == "core.schecker.verdict":
                    verdict = attrs.get("verdict", "unknown")
                    self._sim_window(start).count(f"verdict.{verdict}")
                elif name == "core.kb.short_circuit":
                    self._sim_window(start).count("short_circuits")
                elif name == "core.degraded.enter":
                    self._sim_window(start).count("degraded_entries")
                elif name == "core.diagnoser.quarantine":
                    self._sim_window(start).count("quarantines")
        return self

    def _sim_window(self, start_ms):
        return self.window("sim", int(float(start_ms) // self.window_ms))

    def _add_round_stats(self, attrs):
        window = self.window("round", int(attrs.get("round", 0)))
        window.count("rounds")
        window.count("fleet", int(attrs.get("fleet", 0)))
        window.count("phase2_collections",
                     int(attrs.get("phase2_collections", 0)))
        window.count("kb_short_circuits",
                     int(attrs.get("kb_short_circuits", 0)))
        for key in _ROUND_STATS:
            window.count(key, int(attrs.get(key, 0)))

    # ------------------------------------------------------------ render

    def rows(self):
        """Deterministic per-window rows with derived statistics.

        Each row carries the window's raw counters, per-histogram
        ``count``/``sum``/quantiles, and a ``derived`` block
        (overhead %, ingest availability, hang rate) computed from
        integers at render time.  Rows sort by
        ``(domain, index)``.
        """
        rows = []
        for (domain, index), registry in sorted(
            self._windows.items(),
            key=lambda item: (item[0][0], _index_key(item[0][1])),
        ):
            state = registry.state()
            counters = dict(sorted(state["counters"].items()))
            histograms = {}
            for name in sorted(state["histograms"]):
                buckets = registry.histogram_buckets(name)
                total, value_sum = registry.histogram_summary(name)
                entry = {"count": total, "sum": _round9(value_sum)}
                for label, q in QUANTILES:
                    entry[label] = bucket_quantile(*buckets, q)
                histograms[name] = entry
            row = {
                "domain": domain,
                "index": index,
                "counters": counters,
                "histograms": histograms,
                "derived": self._derived(registry, counters),
            }
            rows.append(row)
        return rows

    def _derived(self, registry, counters):
        derived = {}
        exec_total, exec_sum = registry.histogram_summary("exec_ms")
        collect_total, collect_sum = registry.histogram_summary(
            "collect_ms"
        )
        if exec_total and exec_sum > 0:
            derived["overhead_pct"] = _round9(
                100.0 * collect_sum / exec_sum
            )
        ingested = counters.get("batches_ingested")
        dropped = counters.get("batches_dropped")
        if ingested is not None and dropped is not None:
            offered = ingested + dropped
            if offered:
                derived["availability"] = _round9(ingested / offered)
        if counters.get("actions"):
            derived["hang_rate"] = _round9(
                counters.get("hangs", 0) / counters["actions"]
            )
        return dict(sorted(derived.items()))

    def to_jsonl(self):
        """``rollups.jsonl`` text: one compact JSON row per window."""
        return "".join(
            json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
            for row in self.rows()
        )


def records_from_jsonl(path):
    """Load ``trace.jsonl`` records (dicts) from *path*."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def rollup_from_session(session, window_ms=DEFAULT_WINDOW_MS):
    """Build a rollup from a live telemetry session's records."""
    return Rollup(window_ms=window_ms).add_records(session.records)
