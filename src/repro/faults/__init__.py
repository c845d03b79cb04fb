"""Fault-injection substrate.

Deterministic, seeded injection of the monitoring failures a real
deployment sees — denied or dying perf counters, refused or truncated
stack sampling, corrupted on-device state files — plus the exception
vocabulary the hardened runtime absorbs.  See
:mod:`repro.faults.plan` for the declarative fault model and
:mod:`repro.faults.injector` for the injection mechanics; the chaos
experiment (:mod:`repro.harness.exp_chaos`, ``python -m repro chaos``)
sweeps fault rates and reports how much detection quality survives.
"""

from repro import _lazy_exports

_EXPORTS = {
    ".injector": ("CounterUnavailableError", "FaultInjector", "InjectedFault",
                  "TornWriteError", "TraceCollectionError",
                  "TransientCounterError"),
    ".plan": ("FaultPlan",),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
