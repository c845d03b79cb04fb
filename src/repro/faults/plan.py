"""Fault plans: which monitoring failures to inject, and how often.

On real phones the monitoring substrate itself fails routinely:
``perf_event_open`` is denied or unavailable on many kernels, counter
reads hit transient ``EINTR``-style errors, stack sampling is refused
by SELinux policies or returns truncated frames, and on-device state
files get corrupted by crashes mid-write.  A :class:`FaultPlan` is the
declarative description of that hostile environment — one rate per
failure kind, all zero by default — consumed by
:class:`~repro.faults.injector.FaultInjector`.

A plan with every rate at zero injects nothing and draws no random
numbers, so a zero plan is byte-identical to running with no fault
layer at all.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class FaultPlan:
    """Per-subsystem fault rates (all probabilities in [0, 1])."""

    #: Per counter read: the read fails transiently (a retry may
    #: succeed — the paper prototype's Simpleperf reads occasionally
    #: return ``EINTR``/``EAGAIN``).
    counter_transient_rate: float = 0.0
    #: Per counter read: the counter file descriptor dies permanently
    #: (``perf_event_open`` revoked); every later read on the same
    #: monitor fails too.
    counter_unavailable_rate: float = 0.0
    #: Per counter value: the reading is silently undercounted, as when
    #: perf multiplexes more events than registers and extrapolates
    #: from a partial observation window.
    counter_undercount_rate: float = 0.0
    #: Multiplier applied to undercounted readings (0 <= factor < 1).
    counter_undercount_factor: float = 0.5
    #: Per trace collection: stack sampling is refused outright
    #: (ptrace/SELinux denial) — no traces come back.
    trace_denied_rate: float = 0.0
    #: Per collected trace: the unwinder returns truncated frames (the
    #: deepest half missing; fully-truncated stacks are unreadable).
    trace_truncate_rate: float = 0.0
    #: Per persistence load: the state file is corrupted (truncated
    #: JSON, as after a crash mid-write).
    persistence_corrupt_rate: float = 0.0
    #: Per report-batch upload: the batch is lost in transit (the
    #: device was offline and its retry window expired).
    report_drop_rate: float = 0.0
    #: Per report-batch upload: the batch is delivered twice (an ack
    #: was lost and the device re-sent) — ingestion must be idempotent.
    report_duplicate_rate: float = 0.0
    #: Per report-batch upload: the batch arrives one sync round late
    #: (queued behind a dead radio), after the round's database was
    #: already published.
    report_delay_rate: float = 0.0
    #: Per (dispatch round, shard): the worker process executing the
    #: shard dies outright (OOM-killed, segfaulting native code) —
    #: the pool breaks and the scheduler must reshard the work.
    worker_kill_rate: float = 0.0
    #: Per (dispatch round, shard): the shard stalls past any deadline
    #: (a livelocked worker); the supervisor must give up waiting and
    #: the scheduler must steal the work.
    shard_stall_rate: float = 0.0
    #: How long a stalled shard sleeps before completing anyway, in
    #: seconds.  Pick a value above the supervisor's deadline to force
    #: the deadline path, below it to model mere slowness.
    shard_stall_seconds: float = 0.5
    #: Per checkpoint/state write: the process dies mid-write, leaving
    #: a truncated temp file.  A crash-atomic writer must leave the
    #: destination untouched.
    torn_write_rate: float = 0.0
    #: Per (device, stream round): the device leaves the fleet before
    #: the round (battery died, app uninstalled) — and, on a separate
    #: keyed draw, a new device enrolls in its place.  Keyed by
    #: (round, device) so the churn schedule is a pure function of the
    #: seed, independent of worker count and execution order.
    device_churn_rate: float = 0.0
    #: Per (request, attempt): the HTTP request vanishes in transit —
    #: the server never sees it, the client times out and must retry.
    request_drop_rate: float = 0.0
    #: Per (request, attempt): the request is held up in flight for
    #: ``request_delay_ms`` before the server sees it.
    request_delay_rate: float = 0.0
    #: How long a delayed request sits in flight, in milliseconds.
    request_delay_ms: float = 250.0
    #: Per (request, attempt): the connection is reset mid-exchange —
    #: the client cannot tell whether the server ingested the batch,
    #: so it must retry and the server must dedupe.
    connection_reset_rate: float = 0.0
    #: Per (request, attempt): the response payload is corrupted on the
    #: wire; the client must treat it as a failure and retry.
    response_corrupt_rate: float = 0.0

    _RATE_FIELDS = (
        "counter_transient_rate",
        "counter_unavailable_rate",
        "counter_undercount_rate",
        "trace_denied_rate",
        "trace_truncate_rate",
        "persistence_corrupt_rate",
        "report_drop_rate",
        "report_duplicate_rate",
        "report_delay_rate",
        "worker_kill_rate",
        "shard_stall_rate",
        "torn_write_rate",
        "device_churn_rate",
        "request_drop_rate",
        "request_delay_rate",
        "connection_reset_rate",
        "response_corrupt_rate",
    )

    #: Channels that stress the *harness* (the supervised executor and
    #: its checkpoint writes), not the monitored runtime.  Excluded
    #: from :meth:`uniform`; hand them to the scheduler explicitly
    #: (see :class:`repro.sched.ElasticScheduler`).
    EXECUTOR_CHANNELS = (
        "worker_kill_rate",
        "shard_stall_rate",
        "torn_write_rate",
    )

    #: Channels that stress *fleet membership* (devices joining and
    #: leaving a long-lived streaming deployment — see
    #: :mod:`repro.harness.exp_stream`).  Excluded from :meth:`uniform`
    #: like the executor channels: churn reshapes the workload itself,
    #: not the monitored runtime, and belongs in a plan handed to the
    #: streaming harness.
    FLEET_CHANNELS = (
        "device_churn_rate",
    )

    #: Channels that stress the *upload network* between the serve
    #: client and the ingestion service (see :mod:`repro.serve`).
    #: Excluded from :meth:`uniform` for the same reason as the
    #: executor channels: they fault the delivery substrate, not the
    #: monitored runtime, and belong in a plan handed to
    #: :class:`repro.serve.client.ServeClient`.
    NETWORK_CHANNELS = (
        "request_drop_rate",
        "request_delay_rate",
        "connection_reset_rate",
        "response_corrupt_rate",
    )

    @property
    def any_faults(self):
        """True when at least one fault kind can fire."""
        return any(getattr(self, name) > 0.0 for name in self._RATE_FIELDS)

    def validate(self):
        """Raise ValueError on rates outside [0, 1]."""
        for name in self._RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{name} must be in [0, 1], got {value}"
                )
        if not 0.0 <= self.counter_undercount_factor < 1.0:
            raise ValueError(
                "counter_undercount_factor must be in [0, 1), got "
                f"{self.counter_undercount_factor}"
            )
        if self.shard_stall_seconds <= 0.0:
            raise ValueError(
                "shard_stall_seconds must be > 0, got "
                f"{self.shard_stall_seconds}"
            )
        if self.request_delay_ms <= 0.0:
            raise ValueError(
                f"request_delay_ms must be > 0, got {self.request_delay_ms}"
            )
        return self

    @classmethod
    def uniform(cls, rate):
        """A plan stressing every *monitored-runtime* subsystem at
        roughly one *rate*.

        Transient counter errors, trace denials/truncations,
        persistence corruption, and report-batch drops/duplicates/
        delays fire at *rate*; permanent counter death at ``rate / 4``
        (rarer in the field — one revocation kills the monitor for
        good, so an equal rate would dominate the sweep).  Three
        channel families stay at zero, pinned by
        :attr:`EXECUTOR_CHANNELS`, :attr:`NETWORK_CHANNELS`, and
        :attr:`FLEET_CHANNELS`: the executor channels
        (``worker_kill``/``shard_stall``/``torn_write``) stress the
        *harness* and belong in a plan handed to the scheduler (see
        :class:`repro.sched.ElasticScheduler`), the network channels
        (``request_drop``/``request_delay``/``connection_reset``/
        ``response_corrupt``) stress the *upload path* and belong in a
        plan handed to the serve client (see
        :class:`repro.serve.client.ServeClient`), and the fleet
        channel (``device_churn``) reshapes streaming fleet
        membership and belongs in a plan handed to
        :func:`repro.harness.exp_stream.stream_sweep`.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        return cls(
            counter_transient_rate=rate,
            counter_unavailable_rate=rate / 4.0,
            counter_undercount_rate=rate,
            trace_denied_rate=rate,
            trace_truncate_rate=rate,
            persistence_corrupt_rate=rate,
            report_drop_rate=rate,
            report_duplicate_rate=rate,
            report_delay_rate=rate,
        ).validate()

    def describe(self):
        """Compact ``kind=rate`` summary of the nonzero rates."""
        parts = [
            f"{name.replace('_rate', '')}={getattr(self, name):g}"
            for name in self._RATE_FIELDS
            if getattr(self, name) > 0.0
        ]
        return ", ".join(parts) if parts else "no faults"
