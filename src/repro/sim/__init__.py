"""Android-like execution simulator.

This package replaces the hardware/OS substrate the paper measured on
(LG V10 smartphone, Android runtime, Simpleperf): a discrete-event model
of an app's main thread, render thread, scheduler, memory system, and
performance-event counters.  Detection code in :mod:`repro.core` and
:mod:`repro.detectors` consumes only the artifacts a real phone would
expose — response times, counter readings, and stack-trace samples.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.base.rng": ("stream",),
    ".counters": ("ALL_EVENTS", "CounterModel", "FILTER_EVENTS",
                  "KERNEL_EVENTS", "PMU_EVENTS"),
    ".device": ("ALL_DEVICES", "DeviceProfile", "GALAXY_S3", "LG_V10",
                "NEXUS_5"),
    ".engine": ("ActionExecution", "ExecutionEngine", "InputEventExecution",
                "OperationExecution", "PERCEIVABLE_DELAY_MS"),
    ".jank": ("FrameStats", "execution_frame_stats", "frame_stats",
              "hang_frame_stats"),
    ".looper": ("DispatchRecord", "Looper", "Message"),
    ".pmu": ("PmuSampler",),
    ".stacktrace": ("Frame", "StackTrace", "StackTraceSampler",
                    "occurrence_factor"),
    ".timeline": ("MAIN_THREAD", "RENDER_THREAD", "Segment", "Timeline",
                  "WORKER_THREAD"),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
