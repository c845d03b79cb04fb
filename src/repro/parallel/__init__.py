"""Process-parallel experiment execution.

The fleet-scale experiments (Table 5's 114-app study, Figure 8's
detector comparison, the seed-stability sweeps) decompose naturally at
*app* granularity: after the per-app seed derivation of
:func:`repro.harness.deployment.fleet_app_seed`, every app's simulated
deployment is a pure function of (device, root seed, app), so shards
can run on any worker in any order, and a sweep builds the exact
result a serial run produces from their values in submission order.

:func:`parallel_map` is the one primitive: a map over work items
that runs each shard once on a supervised
:class:`concurrent.futures.ProcessPoolExecutor` with per-shard
deadlines, and returns a :class:`PartialResult` naming the shards that
stalled or died with the pool, for the elastic scheduler
(:mod:`repro.sched`) to re-dispatch.  It runs in-process, completing
every shard, when ``workers=1`` or when the work is too small to
shard; a shard whose payload cannot cross a process boundary
(non-picklable configs) runs in-process after the pool.  Every
degradation is accounted in an :class:`ExecutionReport` instead of
happening silently.
"""

from repro import _lazy_exports

_EXPORTS = {
    ".executor": ("ExecutionReport", "PartialResult", "parallel_map",
                  "resolve_workers"),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
