"""Elastic, failure-driven shard scheduling for fleet-scale sweeps.

Sits between the harnesses and :func:`repro.parallel.parallel_map`:
sweeps pack their work into shards with :func:`pack_by_weight`
(deterministic LPT over per-item weights), and
:class:`ElasticScheduler` runs one shard per item — stealing shards
from stragglers past an optional deadline, resharding after worker
loss, journaling every decision through the checkpoint layer before
acting on it.  Scheduling never changes output bytes: every work item
is pure and results merge in key order.
"""

from repro.sched.scheduler import (
    DEADLINE_JITTER,
    MAX_IDLE_ROUNDS,
    ElasticScheduler,
    pack_by_weight,
)

__all__ = [
    "DEADLINE_JITTER",
    "MAX_IDLE_ROUNDS",
    "ElasticScheduler",
    "pack_by_weight",
]
