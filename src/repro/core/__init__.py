"""Hang Doctor: the paper's primary contribution.

A two-phase runtime methodology for detecting and diagnosing soft
hangs, embedded in an app:

* Phase 1 — :class:`~repro.core.schecker.SChecker`: when an
  *Uncategorized* action's response time exceeds 100 ms, read three
  kernel performance-event counters (main−render differences) and
  label the action *Suspicious* only if a symptom condition fires.
* Phase 2 — :class:`~repro.core.diagnoser.Diagnoser`: for Suspicious /
  Hang-Bug actions that hang again, collect main-thread stack traces
  for the duration of the hang and attribute the root cause by
  occurrence factor; non-UI root causes are soft hang bugs.

Detected unknown blocking APIs feed the
:class:`~repro.core.blocking_db.BlockingApiDatabase` used by offline
scanners; everything is summarized for the developer in the
:class:`~repro.core.report.HangBugReport`.
"""

from repro import _lazy_exports

_EXPORTS = {
    ".adaptation": ("AdaptationResult", "BackgroundCollector",
                    "FilterAdapter"),
    ".blocking_db": ("BlockingApiDatabase",),
    ".config": ("HangDoctorConfig",),
    ".diagnoser": ("Diagnoser",),
    ".event_monitor": ("PerformanceEventMonitor",),
    ".hang_doctor": ("HangDoctor",),
    ".injector": ("AppInjector",),
    ".report": ("HangBugReport", "ReportEntry"),
    ".schecker": ("SChecker", "SymptomCheck"),
    ".states": ("ActionState", "ActionStateMachine"),
    ".trace_analyzer": ("Diagnosis", "TraceAnalyzer"),
    ".trace_collector": ("TraceCollector",),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
