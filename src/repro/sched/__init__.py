"""Elastic, failure-driven shard scheduling for fleet-scale sweeps.

Sits between the harnesses and :func:`repro.parallel.parallel_map`:
:class:`ElasticScheduler` runs one shard per item, or, given per-item
weights, packs each dispatch round's pending items into at most one
shard per worker with :func:`pack_by_weight` (deterministic LPT) —
stealing from stragglers past an optional deadline, resharding after
worker loss, journaling every item and every decision through the
checkpoint layer.  Scheduling never changes output bytes: every work
item is pure and results merge in key order.
"""

from repro import _lazy_exports

_EXPORTS = {
    ".scheduler": ("DEADLINE_JITTER", "MAX_IDLE_ROUNDS", "ElasticScheduler",
                   "pack_by_weight"),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
