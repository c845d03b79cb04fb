"""The exception vocabulary of the fault layer.

Injected failures are :class:`InjectedFault` subclasses, which the
hardened runtime (:class:`~repro.core.hang_doctor.HangDoctor` and
friends) must absorb.  They live apart from the injector, so code that
only catches them loads no injection machinery.
"""


class InjectedFault(RuntimeError):
    """Base class for failures raised by the fault layer."""


class TransientCounterError(InjectedFault):
    """A counter read failed transiently; a retry may succeed."""


class CounterUnavailableError(InjectedFault):
    """The performance-counter substrate died permanently."""


class TraceCollectionError(InjectedFault):
    """Stack sampling was refused for one collection window."""


class TornWriteError(InjectedFault):
    """A state write died mid-stream, leaving a truncated temp file."""
