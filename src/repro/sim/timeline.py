"""Execution timelines.

A :class:`Timeline` records what each thread of an app did during a
simulated interval as a list of :class:`Segment` objects.  A segment is
one operation's occupancy of one thread: its wall-clock span, the stack
frames active for its whole duration (a blocked operation keeps its
frames on the stack), and the performance-event counts it accrued.

Counter *queries* over arbitrary windows pro-rate each segment's counts
by overlap fraction; whole-segment totals are exact.  This supports
both end-of-action counter reads (S-Checker) and periodic sampling
(Figure 5's time series, the utilization baselines).

Queries are index-bounded: each thread keeps its sorted start array and
a running maximum of segment ends, so windowed ``total``/``cpu_ms``
reads touch only the segments that can overlap the window, and
``stack_at``/``segment_at`` stop their backward walk as soon as no
earlier segment can still cover the instant.  Unwindowed totals are
maintained incrementally on ingest and read in O(1) —
long-session monitors query totals per action, so unbounded scans were
quadratic in session length.
"""

import bisect
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Canonical thread names used across the simulator.
MAIN_THREAD = "main"
RENDER_THREAD = "render"
WORKER_THREAD = "worker"


@dataclass(frozen=True)
class Segment:
    """One operation's occupancy of one thread."""

    thread: str
    start_ms: float
    end_ms: float
    #: Stack frames active during the segment (outermost first).  Empty
    #: for synthetic idle/settle segments.
    frames: Tuple = ()
    #: Performance-event counts accrued over the whole segment.
    counts: Dict[str, float] = field(default_factory=dict)
    #: The Operation that produced the segment (None for settle work).
    op: Optional[object] = None
    #: CPU milliseconds consumed within the segment (<= wall duration).
    cpu_ms: float = 0.0

    def __post_init__(self):
        if self.end_ms < self.start_ms:
            raise ValueError(
                f"segment ends ({self.end_ms}) before it starts ({self.start_ms})"
            )

    @property
    def duration_ms(self):
        """Wall-clock duration of the segment."""
        return self.end_ms - self.start_ms

    def overlap_fraction(self, start_ms, end_ms):
        """Fraction of the segment falling inside [start, end)."""
        if self.duration_ms == 0:
            return 1.0 if start_ms <= self.start_ms < end_ms else 0.0
        lo = max(self.start_ms, start_ms)
        hi = min(self.end_ms, end_ms)
        if hi <= lo:
            return 0.0
        return (hi - lo) / self.duration_ms

    def count_in(self, event, start_ms, end_ms):
        """Pro-rated count of *event* inside [start, end)."""
        total = self.counts.get(event, 0.0)
        if total == 0.0:
            return 0.0
        return total * self.overlap_fraction(start_ms, end_ms)


def fast_segment(thread, start_ms, end_ms, frames, counts, op, cpu_ms):
    """Build a :class:`Segment` bypassing the frozen-dataclass init.

    A frozen dataclass routes every field through
    ``object.__setattr__`` and runs ``__post_init__`` validation; on
    the engine's hot path, which builds segments from already
    start-ordered rows with ``end_ms = start_ms + wall``, that is pure
    overhead.  Callers must guarantee ``end_ms >= start_ms``.
    """
    segment = _new_segment(Segment)
    segment.__dict__.update(
        thread=thread, start_ms=start_ms, end_ms=end_ms,
        frames=frames, counts=counts, op=op, cpu_ms=cpu_ms,
    )
    return segment


_new_segment = object.__new__


class Timeline:
    """Per-thread sequence of execution segments with counter queries."""

    def __init__(self):
        self._segments = {}
        self._starts = {}
        # Running max of segment ends, parallel to _starts: the window
        # lower bound for overlap queries and the early-stop bound for
        # the stack_at/segment_at backward walk.
        self._cummax_ends = {}
        # Incremental unwindowed sums (event -> total, and CPU ms).
        self._event_totals = {}
        self._cpu_totals = {}

    def add(self, segment):
        """Append a segment (segments per thread must be time-ordered)."""
        self.add_batch((segment,))
        return segment

    def add_batch(self, segments):
        """Append segments in per-thread start order.

        The one ingest path: each segment extends its thread's start
        index, running maximum of ends, event totals and CPU total.
        """
        seg_map = self._segments
        starts_map = self._starts
        cummax_map = self._cummax_ends
        totals_map = self._event_totals
        cpu_map = self._cpu_totals
        for segment in segments:
            thread = segment.thread
            per_thread = seg_map.get(thread)
            if per_thread is None:
                per_thread = seg_map[thread] = []
                starts = starts_map[thread] = []
                cummax = cummax_map[thread] = []
                totals = totals_map[thread] = {}
                cpu_map[thread] = 0.0
            else:
                starts = starts_map[thread]
                cummax = cummax_map[thread]
                totals = totals_map[thread]
            start_ms = segment.start_ms
            if starts and start_ms < starts[-1]:
                raise ValueError(
                    f"segments on {thread!r} must be added in start order"
                )
            end_ms = segment.end_ms
            per_thread.append(segment)
            starts.append(start_ms)
            if cummax and cummax[-1] > end_ms:
                cummax.append(cummax[-1])
            else:
                cummax.append(end_ms)
            for event, value in segment.counts.items():
                totals[event] = totals.get(event, 0.0) + value
            cpu_map[thread] += segment.cpu_ms

    def threads(self):
        """Names of threads that have at least one segment."""
        return sorted(self._segments)

    def segments(self, thread=None):
        """Segments of one thread, or of all threads in time order."""
        if thread is not None:
            return list(self._segments.get(thread, []))
        merged = [seg for segs in self._segments.values() for seg in segs]
        return sorted(merged, key=lambda seg: (seg.start_ms, seg.thread))

    @property
    def start_ms(self):
        """Earliest segment start (0.0 for an empty timeline)."""
        starts = [starts[0] for starts in self._starts.values() if starts]
        return min(starts) if starts else 0.0

    @property
    def end_ms(self):
        """Latest segment end (0.0 for an empty timeline)."""
        ends = [ends[-1] for ends in self._cummax_ends.values() if ends]
        return max(ends) if ends else 0.0

    def _window_slice(self, thread, lo, hi):
        """Index range of segments on *thread* that can overlap [lo, hi).

        A segment overlaps only if it starts before *hi* and ends at or
        after *lo* (``>=`` keeps zero-duration segments sitting exactly
        on the window start, which count as fully inside).  Both bounds
        come from sorted arrays, so the slice is found in O(log n).
        """
        starts = self._starts.get(thread)
        if not starts:
            return 0, 0
        upper = bisect.bisect_left(starts, hi)
        lower = bisect.bisect_left(self._cummax_ends[thread], lo, 0, upper)
        return lower, upper

    def total(self, thread, event, start_ms=None, end_ms=None):
        """Total count of *event* on *thread* within [start, end)."""
        if start_ms is None and end_ms is None:
            return self._event_totals.get(thread, {}).get(event, 0.0)
        segments = self._segments.get(thread, [])
        if not segments:
            return 0.0
        lo = self.start_ms if start_ms is None else start_ms
        hi = self.end_ms if end_ms is None else end_ms
        lower, upper = self._window_slice(thread, lo, hi)
        return sum(
            seg.count_in(event, lo, hi) for seg in segments[lower:upper]
        )

    def difference(self, event, minuend, subtrahend, start_ms=None, end_ms=None):
        """``total(minuend) - total(subtrahend)`` for one event."""
        return self.total(minuend, event, start_ms, end_ms) - self.total(
            subtrahend, event, start_ms, end_ms
        )

    def cpu_ms(self, thread, start_ms=None, end_ms=None):
        """CPU milliseconds consumed by *thread* within [start, end)."""
        if start_ms is None and end_ms is None:
            return self._cpu_totals.get(thread, 0.0)
        segments = self._segments.get(thread, [])
        if not segments:
            return 0.0
        lo = self.start_ms if start_ms is None else start_ms
        hi = self.end_ms if end_ms is None else end_ms
        lower, upper = self._window_slice(thread, lo, hi)
        return sum(
            seg.cpu_ms * seg.overlap_fraction(lo, hi)
            for seg in segments[lower:upper]
        )

    def stack_at(self, thread, time_ms):
        """Stack frames active on *thread* at *time_ms* (empty if idle)."""
        segment = self.segment_at(thread, time_ms)
        return segment.frames if segment is not None else ()

    def segment_at(self, thread, time_ms):
        """Segment active on *thread* at *time_ms*, or None."""
        segments = self._segments.get(thread, [])
        if not segments:
            return None
        starts = self._starts[thread]
        cummax = self._cummax_ends[thread]
        index = bisect.bisect_right(starts, time_ms) - 1
        # Walk backwards over overlapping candidates; the latest-started
        # segment covering the instant wins (nested/settle work).  Once
        # every earlier segment ends at or before the instant (running
        # max of ends), nothing further back can cover it.
        while index >= 0:
            if cummax[index] <= time_ms:
                return None
            segment = segments[index]
            if segment.start_ms <= time_ms < segment.end_ms:
                return segment
            index -= 1
        return None
