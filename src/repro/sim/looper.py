"""Main-thread message loop.

Android delivers user input to an app's main thread as messages on the
``Looper`` queue; input events execute one at a time in FIFO order,
which is exactly why a blocking operation freezes the UI.  On a phone,
Hang Doctor times each input event between the two lines that
``Looper.setMessageLogging`` prints when a message is dequeued and
when it finishes.

This module reproduces the queue.  The engine's queued bursts and its
``columnar=False`` reference post one :class:`Message` per input event
and drain them through a handler; each :class:`DispatchRecord` carries
the dispatch and finish times those two lines would bracket.  Other
actions drain their events inline, with the same timings, and record
them on every :class:`~repro.sim.engine.InputEventExecution`; a
process that runs only those never loads this module.
"""

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class Message:
    """One queued input event."""

    target: str
    payload: object
    enqueue_ms: float


@dataclass(frozen=True)
class DispatchRecord:
    """Timing of one processed message."""

    message: Message
    dispatch_ms: float
    finish_ms: float

    @property
    def response_time_ms(self):
        """Processing time of the message (dequeue to finish), as
        measured between the two ``setMessageLogging`` invocations."""
        return self.finish_ms - self.dispatch_ms

    @property
    def latency_ms(self):
        """End-to-end latency including time spent queued."""
        return self.finish_ms - self.message.enqueue_ms


class Looper:
    """FIFO message queue."""

    def __init__(self):
        self._queue = deque()

    def post(self, message):
        """Enqueue a message."""
        self._queue.append(message)

    def dispatch_next(self, handler, now_ms):
        """Dequeue and process one message.

        *handler(message, dispatch_ms)* performs the work and returns
        the finish time.  Returns a :class:`DispatchRecord`, or None if
        the queue is empty.
        """
        if not self._queue:
            return None
        message = self._queue.popleft()
        dispatch_ms = max(now_ms, message.enqueue_ms)
        finish_ms = handler(message, dispatch_ms)
        if finish_ms < dispatch_ms:
            raise ValueError("handler returned a finish time before dispatch")
        return DispatchRecord(
            message=message, dispatch_ms=dispatch_ms, finish_ms=finish_ms
        )

    def dispatch_all(self, handler, now_ms):
        """Drain the queue; returns the list of dispatch records."""
        records = []
        clock = now_ms
        while self._queue:
            record = self.dispatch_next(handler, clock)
            records.append(record)
            clock = record.finish_ms
        return records
