"""Process-parallel experiment execution.

The fleet-scale experiments (Table 5's 114-app study, Figure 8's
detector comparison, the seed-stability sweeps) decompose naturally at
*app* granularity: after the per-app seed derivation of
:func:`repro.harness.exp_fleet.fleet_app_seed`, every app's simulated
deployment is a pure function of (device, root seed, app), so shards
can run on any worker in any order and merge back into the exact
result a serial run produces.

:func:`parallel_map` is the one primitive: a map over work items
that runs each shard once on a supervised
:class:`concurrent.futures.ProcessPoolExecutor` with per-shard
deadlines, and returns a :class:`PartialResult` naming the shards that
stalled or died with the pool, for the elastic scheduler
(:mod:`repro.sched`) to re-dispatch.  It runs in-process, completing
every shard, when ``workers=1``, when the work is too small to shard,
or when the payload cannot cross a process boundary (non-picklable
configs).  Every degradation is accounted in an
:class:`ExecutionReport` instead of happening silently.
"""

from repro.parallel.executor import (
    ExecutionReport,
    PartialResult,
    chunk_indices,
    parallel_map,
    resolve_workers,
)

__all__ = [
    "ExecutionReport",
    "PartialResult",
    "chunk_indices",
    "parallel_map",
    "resolve_workers",
]
