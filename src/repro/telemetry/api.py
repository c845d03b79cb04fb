"""The tracing API of :mod:`repro.telemetry`.

Design constraints (see ``docs/observability.md`` for the full story):

* **Deterministic timestamps.**  Spans inside simulated code carry the
  *sim clock* (the ``start_ms``/``end_ms`` of the execution they
  describe) via :meth:`Session.record_span`; orchestration-level spans
  with no sim time use a *logical tick clock* — a per-session counter
  that advances by one on every span boundary.  Neither ever reads
  wall time, so traces are byte-identical across repeat runs,
  ``--workers`` counts, and checkpoint resume.
* **Track-addressed records.**  Every record lands on a *track* (a
  named timeline — ``fleet/K9-mail``, ``chaos/rate0.2/AndStatus``,
  ``crowd/fleet4/d1/r0``) chosen by the code doing the work, *not* by
  the shard the scheduler happened to put it on.  Shard boundaries
  move with the worker count (Table 5 shards are worker-count slices);
  semantic tracks do not, which is what keeps exports byte-identical
  across ``--workers``.
* **Per-track sequence numbers.**  The parent session renumbers
  records per track as it absorbs shard carriers, and exporters sort
  by ``(track, seq)``; since each track's records arrive in one
  deterministic order (one carrier, or serial program order), the
  export is independent of shard completion *and* absorption order —
  including the resume case where journaled shards are absorbed
  before fresh ones.
* **Two channels.**  The records above are the *deterministic*
  channel.  Supervision events (pool rebuilds, deadline hits,
  checkpoint restores) legitimately differ run to run; they go to a
  separate *advisory* channel exported to its own file and excluded
  from every byte-identity claim.
* **Zero-allocation no-op.**  With no session active,
  :func:`current` returns a module-level singleton whose methods do
  nothing and whose context managers are cached — instrumented code
  pays one global read and one method call, allocates nothing, and
  perturbs no output.
"""

import contextlib
import operator
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.telemetry.metrics import DEFAULT_BUCKETS_MS, MetricsRegistry

#: Base track of shard sub-sessions: a sentinel the parent replaces
#: with the shard's journal key (or generated track) at absorb time.
SHARD_BASE_TRACK = ""


@dataclass
class SpanRecord:
    """One deterministic-channel record: a span or an instant event.

    Picklable by construction (builtins only) so records ride inside
    :class:`ShardTelemetry` carriers through process pools and
    checkpoint journals.
    """

    #: ``"span"`` (has duration) or ``"event"`` (instant).
    kind: str
    #: Timeline this record belongs to (semantic, not shard-derived).
    track: str
    #: Position within the track (renumbered at absorb time).
    seq: int
    #: Hierarchical dot-separated name (``core.action.process``).
    name: str
    #: Start timestamp — sim milliseconds or logical ticks.
    start: float
    #: End timestamp (== start for events).
    end: float
    #: Nesting depth of tick-clock spans at record time.
    depth: int
    #: Deterministic key/value details (builtins only).
    attrs: dict = field(default_factory=dict)


def trace_order(records):
    """*records* sorted by ``(track, seq)``, the order of ``trace.jsonl``.

    Each track's records keep their program order, and the result does
    not depend on the order shards were absorbed in, so every view that
    folds floats over it adds them in the same order.
    """
    return sorted(records, key=operator.attrgetter("track", "seq"))


@dataclass
class ShardTelemetry:
    """Everything one work item observed, shipped back beside its value.

    A checkpointed map runs each item under a fresh :class:`Session`
    (in a worker or in-process alike, so every path produces identical
    carriers) and returns this picklable carrier; the parent absorbs
    it on the item's key and unwraps ``value``.  Checkpoint journals
    store the whole carrier, so a resumed run replays the item's
    telemetry exactly.
    """

    #: The shard function's actual return value.
    value: object
    #: Deterministic-channel records, in shard program order.
    records: List[SpanRecord] = field(default_factory=list)
    #: Advisory-channel ``(name, attrs)`` events, in occurrence order.
    advisory: List[Tuple[str, dict]] = field(default_factory=list)
    #: :meth:`MetricsRegistry.state` snapshot.
    metrics_state: dict = field(default_factory=dict)


class _NoopContext:
    """Reusable do-nothing context manager (shared singleton)."""

    __slots__ = ()

    def __enter__(self):
        """Enter: nothing to set up."""
        return None

    def __exit__(self, *exc):
        """Exit: nothing to tear down; never swallows exceptions."""
        return False


_NOOP_CONTEXT = _NoopContext()


class NoopTelemetry:
    """The disabled telemetry surface: every method is a no-op.

    Shares :class:`Session`'s method names so instrumented code calls
    ``current().span(...)`` unconditionally; with telemetry off this
    allocates nothing (the context managers are module singletons) and
    records nothing, keeping every output byte-identical to an
    uninstrumented run.
    """

    __slots__ = ()

    #: False — instrumentation can skip building expensive attrs.
    enabled = False

    def track(self, name):
        """No-op track scope."""
        return _NOOP_CONTEXT

    def span(self, name, **attrs):
        """No-op tick-clock span."""
        return _NOOP_CONTEXT

    def record_span(self, name, start_ms, end_ms, **attrs):
        """No-op sim-clock span."""

    def event(self, name, time_ms=None, **attrs):
        """No-op instant event."""

    def count(self, name, n=1):
        """No-op counter increment."""

    def gauge_set(self, name, value):
        """No-op gauge set."""

    def observe(self, name, value, buckets=DEFAULT_BUCKETS_MS):
        """No-op histogram observation."""

    def advisory_event(self, name, **attrs):
        """No-op advisory event."""


#: Shared do-nothing instance returned by :func:`current` when no
#: session is active.
NOOP = NoopTelemetry()


class _TickSpan:
    """Context manager recording one logical-tick-clock span."""

    __slots__ = ("_session", "_name", "_attrs", "_start", "_depth")

    def __init__(self, session, name, attrs):
        self._session = session
        self._name = name
        self._attrs = attrs

    def __enter__(self):
        """Stamp the start tick and push one nesting level."""
        session = self._session
        self._start = session._tick()
        self._depth = session._depth
        session._depth += 1
        return self

    def __exit__(self, *exc):
        """Stamp the end tick and emit the span record."""
        session = self._session
        session._depth -= 1
        session._append(
            "span", self._name, self._start, session._tick(),
            self._depth, self._attrs,
        )
        return False


class _TrackScope:
    """Context manager routing nested records onto a named track."""

    __slots__ = ("_session", "_name")

    def __init__(self, session, name):
        self._session = session
        self._name = name

    def __enter__(self):
        """Push the track name."""
        self._session._track_stack.append(self._name)
        return self

    def __exit__(self, *exc):
        """Pop back to the enclosing track."""
        self._session._track_stack.pop()
        return False


class Session:
    """One active telemetry collection: records, metrics, advisory log.

    A session is activated with :func:`activate` (or the
    :func:`session` context manager); instrumented code reaches it via
    :func:`current`.  Worker processes run shards under their own
    sessions whose carriers the parent absorbs (see
    :func:`collect_shard` / :meth:`absorb`).
    """

    #: True — instrumentation may build detailed span attributes.
    enabled = True

    def __init__(self, base_track="main"):
        #: Deterministic-channel records in append order.
        self.records: List[SpanRecord] = []
        #: Advisory-channel ``(name, attrs)`` events.
        self.advisory: List[Tuple[str, dict]] = []
        #: The session's always-on metrics registry.
        self.metrics = MetricsRegistry()
        self._track_stack = [base_track]
        self._track_seq = {}
        self._depth = 0
        self._ticks = 0.0

    # ------------------------------------------------------------ clocks

    def _tick(self):
        """Advance and return the logical tick clock."""
        self._ticks += 1.0
        return self._ticks

    # ----------------------------------------------------------- records

    def _append(self, kind, name, start, end, depth, attrs):
        track = self._track_stack[-1]
        seq = self._track_seq.get(track, 0)
        self._track_seq[track] = seq + 1
        self.records.append(
            SpanRecord(kind=kind, track=track, seq=seq, name=name,
                       start=start, end=end, depth=depth, attrs=attrs)
        )

    def track(self, name):
        """Scope: records inside land on track *name*.

        Use semantic names derived from the work itself (app, cell,
        device/round) — never from shard indices, which move with the
        worker count.
        """
        return _TrackScope(self, name)

    def span(self, name, **attrs):
        """Tick-clock span context manager for orchestration code."""
        return _TickSpan(self, name, attrs)

    def record_span(self, name, start_ms, end_ms, **attrs):
        """Record a completed sim-clock span (explicit timestamps)."""
        self._append("span", name, float(start_ms), float(end_ms),
                     self._depth, attrs)

    def event(self, name, time_ms=None, **attrs):
        """Record an instant event at sim time *time_ms* (or the next
        logical tick when omitted)."""
        when = self._tick() if time_ms is None else float(time_ms)
        self._append("event", name, when, when, self._depth, attrs)

    # ----------------------------------------------------------- metrics

    def count(self, name, n=1):
        """Increment counter *name* by *n*."""
        self.metrics.count(name, n)

    def gauge_set(self, name, value):
        """Set gauge *name* to *value*."""
        self.metrics.gauge_set(name, value)

    def observe(self, name, value, buckets=DEFAULT_BUCKETS_MS):
        """Record one histogram observation."""
        self.metrics.observe(name, value, buckets)

    # ---------------------------------------------------------- advisory

    def advisory_event(self, name, **attrs):
        """Record a nondeterministic supervision event.

        Advisory events go to their own export and carry no
        byte-identity guarantee — pool rebuilds, deadline hits, and
        checkpoint restores legitimately differ across runs.
        """
        self.advisory.append((name, attrs))

    # ------------------------------------------------------------ shards

    def absorb(self, shard, default_track=None):
        """Fold one :class:`ShardTelemetry` carrier into this session.

        Records still on the shard's sentinel base track move to
        *default_track*; every record is renumbered with this
        session's per-track sequence counters, so absorption order
        only matters *within* a track — and each track's records
        arrive in one deterministic order by construction.
        """
        base = default_track if default_track is not None else "shard"
        for record in shard.records:
            track = record.track if record.track else base
            seq = self._track_seq.get(track, 0)
            self._track_seq[track] = seq + 1
            self.records.append(
                SpanRecord(kind=record.kind, track=track, seq=seq,
                           name=record.name, start=record.start,
                           end=record.end, depth=record.depth,
                           attrs=record.attrs)
            )
        for name, attrs in shard.advisory:
            self.advisory.append((name, attrs))
        if shard.metrics_state:
            self.metrics.merge_state(shard.metrics_state)


#: The active session, or None (module-global, single-threaded by
#: design: parent orchestration is serial, workers are processes).
_ACTIVE: Optional[Session] = None


def current():
    """The active :class:`Session`, or the shared no-op when inactive."""
    return _ACTIVE if _ACTIVE is not None else NOOP


def active():
    """True when a telemetry session is collecting."""
    return _ACTIVE is not None


def activate(new_session):
    """Install *new_session* as the active session; returns the
    previous one (pass it to :func:`deactivate` to restore)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = new_session
    return previous


def deactivate(previous=None):
    """Restore *previous* (usually :func:`activate`'s return value)."""
    global _ACTIVE
    _ACTIVE = previous


@contextlib.contextmanager
def session(base_track="main"):
    """Activate a fresh :class:`Session` for the block; yields it."""
    active_session = Session(base_track=base_track)
    previous = activate(active_session)
    try:
        yield active_session
    finally:
        deactivate(previous)


def collect_shard(fn, *args):
    """Run ``fn(*args)`` under a fresh shard session; return a carrier.

    This is the worker-side half of shard telemetry:
    :func:`~repro.checkpoint.checkpointed_map` runs each item through
    it (in workers *and* in-process, so every path produces identical
    carriers) whenever the parent had a session active, and ships the
    resulting :class:`ShardTelemetry` back for :meth:`Session.absorb`.
    """
    shard_session = Session(base_track=SHARD_BASE_TRACK)
    previous = activate(shard_session)
    try:
        value = fn(*args)
    finally:
        deactivate(previous)
    return ShardTelemetry(
        value=value,
        records=shard_session.records,
        advisory=shard_session.advisory,
        metrics_state=(
            {} if shard_session.metrics.empty()
            else shard_session.metrics.state()
        ),
    )


def absorb_value(value, default_track=None):
    """Unwrap a shard result, absorbing its telemetry if present.

    Non-carrier values pass through untouched, so the call is safe on
    every shard result regardless of whether telemetry was active when
    the shard ran (e.g. values restored from an older journal).
    """
    if isinstance(value, ShardTelemetry):
        if _ACTIVE is not None:
            _ACTIVE.absorb(value, default_track)
        return value.value
    return value
