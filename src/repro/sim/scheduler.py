"""Context-switch model.

The paper's key insight is that the best soft-hang-bug discriminators
are events "dictated by OS decisions on thread scheduling rather than
the particular source code of a soft hang bug".  This module models
exactly those decisions:

* **Involuntary switches**: a thread that accumulates a scheduler
  quantum of CPU time is preempted.
* **Voluntary switches**: a thread that blocks (I/O wait for blocking
  APIs, vsync/fence waits for UI work) yields once per wait chunk.

During a soft hang bug the *main* thread is busy (many switches of both
kinds) while the render thread is starved (few).  During UI work the
main thread sleeps on vsync while the render thread wakes every frame —
the main−render difference flips sign.  That emergent behaviour, not a
hard-coded label, is what S-Checker's filter keys on.
"""

from dataclasses import dataclass

from repro.base.kinds import ApiKind
from repro.sim.timeline import RENDER_THREAD


@dataclass(frozen=True)
class SwitchCounts:
    """Voluntary/involuntary context switches for one segment."""

    voluntary: int
    involuntary: int

    @property
    def total(self):
        """All context switches (voluntary + involuntary)."""
        return self.voluntary + self.involuntary


#: Render-thread wakeups per produced frame (input fence, draw pass,
#: buffer swap) — each is a voluntary context switch, which is what
#: makes the render thread the busier switcher during UI work.
RENDER_WAKEUPS_PER_FRAME = 3.0

#: Render-thread CPU milliseconds per produced frame.  Frames (and
#: hence wakeups) scale with the render *work* an operation generates,
#: not with wall time: a render thread starved by a blocked main
#: thread produces nothing and barely switches.
RENDER_FRAME_CPU_MS = 5.0


def wait_chunk_ms(kind, thread, device, override=None):
    """Average blocked milliseconds per voluntary switch (non-render).

    Blocking I/O yields in short chunks (device ``io_wait_chunk_ms``)
    unless the API declares its own *override* (a single long block
    yields once).  The main thread's UI-related waits are paced by the
    display (one wakeup per vsync).
    """
    return _wait_chunk(kind, override, device.vsync_period_ms,
                       device.io_wait_chunk_ms)


def _wait_chunk(kind, override, vsync_ms, io_chunk_ms):
    if kind is ApiKind.UI:
        return vsync_ms
    if override is not None:
        return override
    return io_chunk_ms


def switch_rates(kind, thread, wall_ms, cpu_ms, quantum_ms, vsync_ms,
                 io_chunk_ms, chunk_override=None):
    """Poisson rates ``(involuntary, voluntary)`` of one segment's
    context switches, from device constants a per-segment caller
    resolves once (:func:`segment_switches` takes the device)."""
    cpu_ms = min(cpu_ms, wall_ms)
    involuntary = cpu_ms / quantum_ms
    if thread == RENDER_THREAD:
        frames = cpu_ms / RENDER_FRAME_CPU_MS
        return involuntary, frames * RENDER_WAKEUPS_PER_FRAME
    blocked_ms = max(0.0, wall_ms - cpu_ms)
    return involuntary, blocked_ms / _wait_chunk(
        kind, chunk_override, vsync_ms, io_chunk_ms
    )


def segment_switches(kind, thread, wall_ms, cpu_ms, device, rng, chunk_override=None):
    """Sample context switches for one segment.

    Parameters
    ----------
    kind: ApiKind of the operation driving the segment.
    thread: which thread the segment runs on.
    wall_ms / cpu_ms: wall duration and CPU time of the segment.
    device: DeviceProfile supplying quantum and wait-chunk parameters.
    rng: numpy Generator.
    """
    involuntary_rate, voluntary_rate = switch_rates(
        kind, thread, wall_ms, cpu_ms, device.sched_quantum_ms,
        device.vsync_period_ms, device.io_wait_chunk_ms, chunk_override,
    )
    involuntary = int(rng.poisson(involuntary_rate))
    voluntary = int(rng.poisson(voluntary_rate))
    return SwitchCounts(voluntary=voluntary, involuntary=involuntary)


def migrations(total, cores, rng):
    """Sample CPU migrations over *total* context switches: each one
    gives the scheduler a chance to move the thread to another of the
    device's *cores*, so more cores -> more migrations."""
    if total == 0:
        return 0
    # Migration probability swings with transient core load, which the
    # app cannot observe — a large noise source on this event.
    probability = min(0.5, 0.03 * cores * rng.lognormal(0.0, 0.6))
    return int(rng.binomial(total, probability))


def cpu_migrations(switches, device, rng):
    """Sample CPU migrations given a switch count."""
    return migrations(switches.total, device.cores, rng)
