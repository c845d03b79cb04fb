"""Deterministic, seeded fault injection.

A :class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into concrete failures at the runtime's instrumentation seams.  Every
decision draws from its own keyed stream
(``stream(seed, "fault", *scope, channel, n)`` — see
:mod:`repro.base.rng`), where ``n`` counts the draws on that channel,
so:

* the same (seed, scope) injects the identical fault sequence on every
  run, for any ``--workers`` count (each app's injector is a pure
  function of its per-app seed, independent of shard assignment);
* fault draws never perturb the simulator's own streams — enabling
  injection does not change what the app under test does, only what
  the monitors observe;
* a channel whose rate is zero never draws at all, so an all-zero plan
  is a true no-op.

Injected failures are :class:`InjectedFault` subclasses, which the
hardened runtime (:class:`~repro.core.hang_doctor.HangDoctor` and
friends) must absorb: a fault may degrade monitoring, never crash it.
"""

from repro.base.rng import stream
from repro.base.frames import StackTrace
from repro.faults.plan import FaultPlan


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


class FaultInjector:
    """Draws per-decision faults from seeded streams.

    Parameters
    ----------
    plan: the :class:`FaultPlan` (validated on construction).
    seed: root seed of the fault streams.
    scope: extra stream keys (e.g. the app name) that decorrelate
        injectors sharing one root seed.
    """

    def __init__(self, plan=None, seed=0, scope=()):
        self.plan = (plan if plan is not None else FaultPlan()).validate()
        self.seed = seed
        self.scope = tuple(scope)
        #: Per-channel draw counters (also a cheap injection audit).
        self.draws = {}
        #: Per-channel count of faults actually fired.
        self.fired = {}

    # ------------------------------------------------------------- draws

    def _draw(self, channel):
        """The next uniform draw on *channel* (advances its counter)."""
        count = self.draws.get(channel, 0) + 1
        self.draws[channel] = count
        rng = stream(self.seed, "fault", *self.scope, channel, count)
        return float(rng.random())

    def _trip(self, channel, rate):
        """True when *channel* fires at *rate*; never draws at rate 0."""
        if rate <= 0.0:
            return False
        if self._draw(channel) < rate:
            self.fired[channel] = self.fired.get(channel, 0) + 1
            return True
        return False

    def _trip_keyed(self, channel, rate, keys):
        """A *keyed* trip: the decision depends only on (seed, scope,
        channel, keys), never on how many draws happened before it.

        Sequential counters (:meth:`_trip`) are right for a single
        in-order decision stream; the executor channels instead key
        each decision by shard so the verdict is identical no matter
        which worker asks, in what order, or how often other channels
        fired.  Rate 0 never draws.
        """
        if rate <= 0.0:
            return False
        self.draws[channel] = self.draws.get(channel, 0) + 1
        rng = stream(self.seed, "fault", *self.scope, channel, *keys)
        if float(rng.random()) < rate:
            self.fired[channel] = self.fired.get(channel, 0) + 1
            return True
        return False

    # ----------------------------------------------------------- counters

    def counter_read_fault(self):
        """Raise if this counter read fails (called once per attempt)."""
        if self._trip("counter-unavailable",
                      self.plan.counter_unavailable_rate):
            raise CounterUnavailableError(
                "perf counters permanently unavailable (injected)"
            )
        if self._trip("counter-transient", self.plan.counter_transient_rate):
            raise TransientCounterError(
                "transient counter read error (injected)"
            )

    def corrupt_counter_value(self, event, value):
        """Possibly undercount one reading (silent multiplexing loss)."""
        if self._trip("counter-undercount", self.plan.counter_undercount_rate):
            return value * self.plan.counter_undercount_factor
        return value

    # ------------------------------------------------------------- traces

    def trace_collection_fault(self):
        """Raise if this stack-sampling window is refused."""
        if self._trip("trace-denied", self.plan.trace_denied_rate):
            raise TraceCollectionError("stack sampling denied (injected)")

    def mangle_traces(self, traces):
        """Truncate a fraction of collected traces.

        A tripped trace loses its deepest half of frames; a trace with
        nothing left becomes *unreadable* (``frames=None``), the shape
        a real unwinder failure produces.  Untripped traces pass
        through unchanged (same objects).
        """
        if self.plan.trace_truncate_rate <= 0.0:
            return traces
        out = []
        for trace in traces:
            if not self._trip("trace-truncate", self.plan.trace_truncate_rate):
                out.append(trace)
                continue
            kept = trace.frames[: len(trace.frames) // 2]
            out.append(StackTrace(
                time_ms=trace.time_ms, frames=kept if kept else None
            ))
        return out

    # ---------------------------------------------------- report uploads

    def drop_report_batch(self):
        """True when this report-batch upload is lost in transit."""
        return self._trip("report-drop", self.plan.report_drop_rate)

    def duplicate_report_batch(self):
        """True when this report batch is delivered a second time (a
        lost ack made the device re-send); the crowd backend must
        ingest idempotently."""
        return self._trip("report-duplicate", self.plan.report_duplicate_rate)

    def delay_report_batch(self):
        """True when this report batch arrives one sync round late."""
        return self._trip("report-delay", self.plan.report_delay_rate)

    # ----------------------------------------------------------- executor

    def worker_kill_fault(self, shard):
        """True when the worker running *shard* dies.

        Keyed by shard: the same run re-decides identically for any
        worker count.  The scheduler re-scopes its injector per
        dispatch round, so a re-dispatched shard draws a fresh verdict
        instead of dying forever.
        """
        return self._trip_keyed("worker-kill", self.plan.worker_kill_rate,
                                (shard,))

    def shard_stall_fault(self, shard):
        """True when *shard* stalls for ``plan.shard_stall_seconds``
        before completing."""
        return self._trip_keyed("shard-stall", self.plan.shard_stall_rate,
                                (shard,))

    def device_churn_fault(self, kind, round_index, slot):
        """True when fleet-membership event (*kind*, *round*, *slot*)
        fires — ``kind`` is ``"leave"`` (an enrolled device departs
        before the round) or ``"join"`` (a fresh device enrolls into
        an open slot).

        Keyed by (kind, round, slot): the whole churn schedule is a
        pure function of (seed, scope, plan), so fleet membership is
        identical for any worker count, shard packing, or injected
        executor-fault schedule — which is what lets the streaming
        harness render churn in its deterministic output.
        """
        return self._trip_keyed("device-churn", self.plan.device_churn_rate,
                                (kind, round_index, slot))

    def torn_write_fault(self, label):
        """True when the state write named *label* dies mid-stream.

        Keyed by *label* so checkpoint writes decide identically
        regardless of shard completion order.
        """
        return self._trip_keyed("torn-write", self.plan.torn_write_rate,
                                (label,))

    # ------------------------------------------------------------ network

    def request_drop_fault(self, key, attempt):
        """True when request (*key*, *attempt*) vanishes in transit.

        Keyed by (request key, attempt), so the verdict is identical
        for any client concurrency or request interleaving, and a
        retried request draws a fresh verdict instead of being dropped
        forever.
        """
        return self._trip_keyed("request-drop", self.plan.request_drop_rate,
                                (key, attempt))

    def request_delay_fault(self, key, attempt):
        """In-flight delay for (*key*, *attempt*), in milliseconds.

        Returns ``plan.request_delay_ms`` when the channel trips, else
        0.0 (and at rate 0 never draws).
        """
        if self._trip_keyed("request-delay", self.plan.request_delay_rate,
                            (key, attempt)):
            return self.plan.request_delay_ms
        return 0.0

    def connection_reset_fault(self, key, attempt):
        """True when the connection for (*key*, *attempt*) is reset
        mid-exchange — after the request may already have been
        processed, so the client cannot distinguish "never arrived"
        from "ingested but the ack was lost" and must retry into an
        idempotent server."""
        return self._trip_keyed("connection-reset",
                                self.plan.connection_reset_rate,
                                (key, attempt))

    def corrupt_response(self, text, key, attempt):
        """Possibly truncate a response payload on the wire (keyed).

        A corrupted response is indistinguishable from a garbled proxy:
        the client must fail the attempt and retry.
        """
        if self._trip_keyed("response-corrupt",
                            self.plan.response_corrupt_rate,
                            (key, attempt)):
            return text[: len(text) // 2]
        return text

    # -------------------------------------------------------- persistence

    def corrupt_text(self, text):
        """Possibly truncate a persisted JSON payload (crash mid-write)."""
        draw_channel = "persistence-corrupt"
        rate = self.plan.persistence_corrupt_rate
        if rate <= 0.0:
            return text
        draw = self._draw(draw_channel)
        if draw >= rate:
            return text
        self.fired[draw_channel] = self.fired.get(draw_channel, 0) + 1
        # Reuse the draw to pick a deterministic cut point: the file
        # lost its tail when the device died mid-write.
        cut = int(draw / rate * max(0, len(text) - 1))
        return text[:cut]

    # ------------------------------------------------------------- status

    def fired_total(self):
        """Total faults fired across all channels."""
        return sum(self.fired.values())
