"""Runtime and offline detectors.

Hang Doctor's baselines from the paper's §4.1: Timeout-based (TI),
Utilization-based with low/high thresholds (UTL/UTH), their
combinations with the timeout (UTL+TI / UTH+TI), and a
PerfChecker-style offline source scanner.  All runtime detectors share
the :class:`~repro.detectors.base.Detector` interface and are driven
over identical app sessions by :mod:`repro.detectors.runner`, with
their monitoring activity metered for the overhead model.
"""

from repro import _lazy_exports

_EXPORTS = {
    ".base": ("ActionOutcome", "Detection", "Detector", "MonitoringCost"),
    ".offline": ("OfflineDetection", "OfflineScanner"),
    ".runner": ("DetectorRun", "run_detector", "run_detectors"),
    ".timeout": ("TimeoutDetector",),
    ".utilization": ("UtilizationDetector", "UtilizationThresholds",
                     "fit_thresholds"),
    ".watchdog": ("WatchdogDetector",),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
