"""The crowd backend: fleet-wide ingestion, dedup, and publishing.

The server-side subsystem that closes the paper's feedback loop across
devices instead of within one: per-device Hang Bug Reports upload as
idempotent batches, the :class:`CrowdAggregator` dedupes bugs by
root-cause signature and maintains cross-device statistics, and the
merged blocking-API database plus the :class:`CrowdKnowledge`
known-bug table are published back so every device can short-circuit
straight from S-Checker to a known-bug verdict for bugs the fleet has
already paid to diagnose.

See ``docs/crowd.md`` for the pipeline walk-through and
:mod:`repro.harness.exp_crowd` for the fleet-size sweep that measures
the diagnosis-cost reduction.
"""

from repro import _lazy_exports

_EXPORTS = {
    ".aggregator": ("BugObservation", "CrowdAggregator", "CrowdBugStat",
                    "CrowdKnowledge", "KnownBug", "ReportBatch"),
    ".store": ("aggregator_from_json", "aggregator_to_json", "batch_from_dict",
               "batch_to_dict", "load_aggregator", "save_aggregator"),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
