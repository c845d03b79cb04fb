"""Performance-event monitor.

The runtime face of Simpleperf in the paper's prototype: started when
an Uncategorized action begins, stopped at its end, and read as the
main−render difference of each filter event.  All three of Hang
Doctor's filter events are kernel software events, so the readings are
exact regardless of PMU register pressure; the monitor still goes
through :class:`~repro.sim.pmu.PmuSampler` so that experiments with
larger event sets (e.g. the adaptation study) model multiplexing error
faithfully.

A :class:`~repro.faults.FaultInjector` can be attached to model the
counter substrate failing under it: reads then raise
:class:`~repro.faults.TransientCounterError` (retryable) or
:class:`~repro.faults.CounterUnavailableError` (the monitor is dead
for good — every later read fails immediately), and surviving
readings may be silently undercounted.  Failed attempts still accrue
monitored time and read counts: the syscall was paid for whether or
not it returned data.
"""

from repro.faults import CounterUnavailableError
from repro.sim.pmu import PmuSampler
from repro.sim.timeline import MAIN_THREAD, RENDER_THREAD


class PerformanceEventMonitor:
    """Reads per-action counter differences for a set of events."""

    def __init__(self, device, events, seed=0, faults=None):
        self.events = tuple(events)
        self._sampler = PmuSampler(device, self.events, seed=seed)
        self.faults = faults
        #: Permanently dead (a CounterUnavailableError was injected).
        self.unavailable = False
        #: Total milliseconds of monitored execution (for the overhead
        #: model: counting costs scale with monitored time).
        self.monitored_ms = 0.0
        #: Number of end-of-action counter reads performed.
        self.reads = 0
        #: Number of read attempts that failed (injected faults).
        self.failed_reads = 0

    def _begin_read(self, lo, hi):
        """Meter one read attempt; raise if the read fails."""
        self.monitored_ms += max(0.0, hi - lo)
        self.reads += 1
        if self.unavailable:
            self.failed_reads += 1
            raise CounterUnavailableError(
                "perf counters permanently unavailable"
            )
        if self.faults is None:
            return
        try:
            self.faults.counter_read_fault()
        except CounterUnavailableError:
            self.unavailable = True
            self.failed_reads += 1
            raise
        except Exception:
            self.failed_reads += 1
            raise

    def _corrupt(self, event, value):
        if self.faults is None:
            return value
        return self.faults.corrupt_counter_value(event, value)

    def read_differences(self, execution, start_ms=None, end_ms=None):
        """Main−render difference of every monitored event.

        By default the window is the whole action execution: S-Checker
        "conservatively counts the performance events until the end of
        the action execution" (paper §3.3.1 Discussion) because early
        samples routinely look bug-like even for UI work.
        """
        lo = execution.start_ms if start_ms is None else start_ms
        hi = execution.end_ms if end_ms is None else end_ms
        self._begin_read(lo, hi)
        values = {}
        for event in self.events:
            values[event] = self._corrupt(event, self._sampler.read_difference(
                execution.timeline, event, MAIN_THREAD, RENDER_THREAD,
                start_ms=lo, end_ms=hi,
            ))
        return values
