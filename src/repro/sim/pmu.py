"""PMU register multiplexing.

Kernel software events (context-switches, task-clock, page-faults, ...)
are counted exactly by the OS.  PMU hardware events share a small set
of counter registers (6 on the LG V10); asking for more events than
registers makes perf time-multiplex them, observing each event for only
a fraction of the interval and scaling the result — an estimate with
error that grows with the multiplexing factor.  The paper cites this
("the counting accuracy may decrease ... 37 events vs 6 registers") as
one reason to select few events, and S-Checker's final three events are
all kernel events, hence exact.
"""

from repro.base.rng import stream
from repro.sim.counters import KERNEL_EVENTS, PMU_EVENTS


class PmuSampler:
    """Reads event totals from a timeline with multiplexing error.

    Parameters
    ----------
    device: DeviceProfile (supplies the register budget).
    events: the set of events being counted *simultaneously*; the
        number of PMU events among them determines the multiplexing
        factor applied to every PMU reading.
    seed: seed for the multiplexing-noise stream.
    """

    def __init__(self, device, events, seed=0):
        unknown = [e for e in events if e not in KERNEL_EVENTS + PMU_EVENTS]
        if unknown:
            raise ValueError(f"unknown performance events: {unknown}")
        self.device = device
        self.events = tuple(events)
        self.seed = seed
        self._kernel = frozenset(e for e in self.events if e in KERNEL_EVENTS)
        self._event_set = frozenset(self.events)
        self._pmu_count = len(self.events) - len(self._kernel)
        self._reads = 0

    @property
    def multiplex_factor(self):
        """How many events share each register (1.0 = no multiplexing)."""
        if self._pmu_count <= self.device.pmu_registers:
            return 1.0
        return self._pmu_count / self.device.pmu_registers

    def read(self, timeline, thread, event, start_ms=None, end_ms=None):
        """Estimated total of *event* on *thread* over a window."""
        if event not in self._event_set:
            raise KeyError(f"event {event!r} is not being counted")
        true_value = timeline.total(thread, event, start_ms, end_ms)
        if event in self._kernel:
            return true_value
        factor = self.multiplex_factor
        if factor <= 1.0 or true_value == 0.0:
            return true_value
        self._reads += 1
        rng = stream(self.seed, "pmu", thread, event, self._reads)
        sigma = 0.05 * (factor - 1.0)
        return float(true_value * rng.lognormal(mean=0.0, sigma=sigma))

    def read_difference(self, timeline, event, minuend, subtrahend,
                        start_ms=None, end_ms=None):
        """Estimated main−render style difference for one event."""
        return self.read(timeline, minuend, event, start_ms, end_ms) - self.read(
            timeline, subtrahend, event, start_ms, end_ms
        )
