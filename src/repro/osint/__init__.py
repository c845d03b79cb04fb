"""OS-level integration (the paper's future-work direction).

The paper ships Hang Doctor inside each app so developers need no OS
modification, but notes the methodology "could be generalized and
integrated into the OS as a more general framework that improves the
currently used ANR tool".  This package builds that framework:

* :class:`~repro.osint.anr.AnrWatchdog` — the stock Android baseline:
  a 5-second Application-Not-Responding dialog, which (paper §2.2)
  misses essentially every soft hang.
* :class:`~repro.osint.service.OsHangService` — a system service that
  supervises every foreground app with a per-app Hang Doctor instance,
  shares one blocking-API database across all of them, and aggregates
  a system-wide report (so one user's AndStatus hang warns the
  developer of every app that calls the same API).
"""

from repro import _lazy_exports

_EXPORTS = {
    ".anr": ("AnrEvent", "AnrWatchdog"),
    ".service": ("OsHangService", "SystemReport"),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
