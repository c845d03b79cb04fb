"""Deterministic telemetry: tracing spans, metrics, and exporters.

The observability layer of the reproduction (see
``docs/observability.md``).  Instrumented code throughout
``src/repro`` calls ``telemetry.current()`` and records spans,
instant events, and metrics; with no session active that returns a
shared zero-allocation no-op, so telemetry costs nothing and changes
nothing unless a ``--telemetry`` run turned it on.

Determinism is the defining property: timestamps come from the sim
clock or a logical tick counter (never wall time), records live on
semantic tracks with per-track sequence numbers, and shard-collected
telemetry merges associatively — so the trace and metrics exports are
byte-identical across ``--workers`` counts, repeat runs, and
checkpoint resume.  Nondeterministic supervision events travel a
separate advisory channel with no byte-identity claim.

This package deliberately imports nothing from the rest of
``repro`` (beyond the package ``__init__`` Python always runs), so
every layer can instrument itself without import cycles.
"""

from repro import _lazy_exports

_EXPORTS = {
    ".api": ("NOOP", "SHARD_BASE_TRACK", "NoopTelemetry", "Session",
             "ShardTelemetry", "SpanRecord", "absorb_value", "activate",
             "active", "collect_shard", "current", "deactivate", "session",
             "trace_order"),
    ".exporters": ("EXPORT_FILENAMES", "export_advisory_jsonl",
                   "export_chrome_trace", "export_jsonl",
                   "export_metrics_text", "write_exports"),
    ".metrics": ("DEFAULT_BUCKETS_MS", "MetricsRegistry", "labeled"),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
