"""Fault-injection substrate.

Seeded injection of the monitoring failures a real deployment sees
(dying perf counters, refused stack sampling, torn state files):
:mod:`~repro.faults.plan` holds the fault model,
:mod:`~repro.faults.injector` the mechanics, and
:mod:`~repro.faults.errors` the exceptions the hardened runtime
absorbs, apart so that a fault-free run loads neither of the others.
``python -m repro chaos`` (:mod:`repro.harness.exp_chaos`) sweeps
fault rates and reports how much detection quality survives.
"""

from repro import _lazy_exports

_EXPORTS = {
    ".errors": ("CounterUnavailableError", "InjectedFault", "TornWriteError",
                "TraceCollectionError", "TransientCounterError"),
    ".injector": ("FaultInjector",),
    ".plan": ("FaultPlan",),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
