"""Action execution engine.

Simulates what happens on an app's threads when the user performs an
action: the action's input events are posted to the main thread's
looper and processed FIFO; each operation occupies the main thread for
a sampled duration (UI work additionally feeding the render thread,
worker-offloaded calls running concurrently), accruing performance
events along the way.  The result is an :class:`ActionExecution` —
per-event response times plus a queryable :class:`Timeline` — which is
everything runtime detectors are allowed to observe.

The engine caches an :class:`~repro.sim.plan.ActionPlan` per
(app, action): frames, uarch profiles, and duration parameters are
resolved once instead of per segment.  The action model is written
once: FIFO dispatch of the input events, the layout of each sampled
operation as one counter-model row per segment, the settle and ambient
tail, and the ingest of the segments into a :class:`Timeline`.  The
two determinism universes differ only in how they draw.  Full mode
draws each segment's counts through
:meth:`~repro.sim.counters.CounterModel.segment_counts` in the
historical scalar order as it goes (byte-identical rendered outputs),
and a *monitored* projection makes the same draws while keeping only
the events its consumer reads.  Engines restricted to a
*counter_events* subset pool the per-operation draws and compute all
of an action's segment counts in one
:meth:`~repro.sim.counters.CounterModel.segment_batch` call.  See
``docs/perf.md`` for the determinism contracts.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Tuple

from repro.apps.app import ActionSpec, AppSpec, Operation
from repro.base.kinds import ApiKind
from repro.base.rng import (
    digest_prefix,
    pooled_stream,
    reseed_prefixed,
    stream,
)
from repro.sim.counters import DVFS_SIGMA, CounterModel
from repro.sim.looper import Looper, Message
from repro.sim.plan import ActionPlan
from repro.sim.timeline import (
    MAIN_THREAD,
    RENDER_THREAD,
    Segment,
    Timeline,
    WORKER_THREAD,
    fast_segment,
)
from repro.telemetry import current as telemetry

#: Human-perceivable delay threshold (ms); the paper's soft-hang bar.
PERCEIVABLE_DELAY_MS = 100.0

#: Pseudo-event recording bytes moved over the network by main-thread
#: code (from TrafficStats, not the PMU).  Fuel for the paper's
#: footnote-2 extension: any main-thread network activity during a
#: hang is a soft hang bug by definition.
NETWORK_BYTES_EVENT = "network-bytes"

#: Main-thread cost of posting work to a worker (AsyncTask dispatch).
_WORKER_DISPATCH_MS = 0.4

#: Gap between consecutive input events of one action (queue overhead).
_EVENT_GAP_MS = 0.3

#: Fraction of a UI operation's duration spent computing on the main
#: thread before the render thread receives any work.
_RENDER_LAG_SHARE = 0.4

#: Main-thread CPU share of the post-action ambient activity.
_AMBIENT_CPU_SHARE = 0.45

#: Render pages per main-thread page per unit of render share: at the
#: typical render_share of 0.6 a UI operation touches ~4x its main
#: pages render-side (textures, display lists); main-thread-heavy UI
#: work (measure/layout) touches proportionally less.
_RENDER_PAGE_FACTOR_PER_SHARE = 6.67

#: Stable microarchitectural profile of the render thread's own code.
_RENDER_UARCH = {"ipc": 1.0, "cache": 1.0, "branch": 1.0, "tlb": 1.0, "mem": 1.0}

#: Counter-model row of a worker-dispatch stub: every dispatch segment
#: has the same shape.
_WORKER_DISPATCH_PARAMS = (
    ApiKind.LIGHT, MAIN_THREAD, _WORKER_DISPATCH_MS,
    _WORKER_DISPATCH_MS * 0.9, 2, _RENDER_UARCH, None,
)


@dataclass(frozen=True)
class OperationExecution:
    """One operation's execution within an action."""

    op: Operation
    thread: str
    start_ms: float
    end_ms: float
    manifested: bool

    @property
    def duration_ms(self):
        """Wall-clock duration of the operation."""
        return self.end_ms - self.start_ms


@dataclass(frozen=True)
class InputEventExecution:
    """One input event's trip through the main thread."""

    spec: object
    enqueue_ms: float
    dispatch_ms: float
    finish_ms: float
    op_executions: Tuple[OperationExecution, ...]

    @property
    def response_time_ms(self):
        """Dequeue-to-finish processing time (what Hang Doctor measures
        via the Looper's message-logging hooks)."""
        return self.finish_ms - self.dispatch_ms

    @property
    def is_soft_hang(self):
        """True if the event's response time is user-perceivable."""
        return self.response_time_ms > PERCEIVABLE_DELAY_MS

    def dominant_op(self):
        """Main-thread operation contributing the most wall time."""
        main_ops = [oe for oe in self.op_executions if oe.thread == MAIN_THREAD]
        if not main_ops:
            return None
        return max(main_ops, key=lambda oe: oe.duration_ms)


@dataclass(frozen=True)
class ActionExecution:
    """Everything observable about one execution of a user action."""

    app: AppSpec
    action: ActionSpec
    start_ms: float
    end_ms: float
    events: Tuple[InputEventExecution, ...]
    timeline: Timeline

    @property
    def response_time_ms(self):
        """Action response time = max over its input events (paper §2.2).

        0.0 for an action with no input events — consistent with
        :attr:`has_soft_hang` being False and :meth:`hang_events` being
        empty for such an action.
        """
        return max(
            (event.response_time_ms for event in self.events), default=0.0
        )

    @property
    def has_soft_hang(self):
        """True if any input event exceeded the perceivable delay."""
        return any(event.is_soft_hang for event in self.events)

    def hang_events(self):
        """Input events whose response time exceeded 100 ms."""
        return [event for event in self.events if event.is_soft_hang]

    def bug_caused_hang(self):
        """Ground truth: is some soft hang dominated by a hang-bug op?

        Used only by the metrics layer, never by detectors.
        """
        for event in self.hang_events():
            dominant = event.dominant_op()
            if dominant is not None and dominant.op.is_hang_bug:
                return True
        return False

    def hang_bug_sites(self):
        """Ground-truth bug call sites that manifested a hang here.

        A site counts when its call individually exceeded the
        perceivable delay, or when it was the dominant operation of a
        hanging input event (a 90 ms blocking call that tips a busy
        event over 100 ms still manifested as a hang).
        """
        sites = []
        for event in self.hang_events():
            dominant = event.dominant_op()
            for oe in event.op_executions:
                is_main_bug = oe.thread == MAIN_THREAD and oe.op.is_hang_bug
                manifested_hang = (
                    oe.duration_ms > PERCEIVABLE_DELAY_MS or oe is dominant
                )
                if is_main_bug and manifested_hang:
                    if oe.op.site_id not in sites:
                        sites.append(oe.op.site_id)
        return sites

    def counter_difference(self, event, start_ms=None, end_ms=None):
        """Main−render difference of one event over a window."""
        return self.timeline.difference(
            event, MAIN_THREAD, RENDER_THREAD, start_ms, end_ms
        )


class ExecutionEngine:
    """Runs actions of an app on a simulated device.

    Each call to :meth:`run_action` uses a fresh RNG stream derived
    from (seed, app, action, execution index), so repeated executions
    vary while the whole experiment stays reproducible.
    """

    def __init__(self, device, seed=0, environment="wild",
                 counter_events=None, columnar=True, monitored=None):
        if environment not in ("wild", "lab"):
            raise ValueError(f"unknown environment {environment!r}")
        self.device = device
        self.seed = seed
        #: "wild" (real users, real content) or "lab" (a test bed with
        #: synthetic inputs, where content-dependent bugs rarely
        #: manifest -- the paper's §4.6 discussion).
        self.environment = environment
        #: Restricting *counter_events* (e.g. to
        #: :data:`repro.sim.counters.FILTER_EVENTS`) puts the counter
        #: model in lazy mode: segments carry only the requested
        #: events, and only the dependency closure of the requested PMU
        #: events is computed (none at all for kernel-only subsets) —
        #: the fast path for fleet-scale runs where only the S-Checker
        #: filter reads counters.  Timeline queries for unrequested
        #: events read as zero.
        #:
        #: *monitored* (e.g. a deployed Hang Doctor's
        #: ``config.filter_events()``) keeps the full-mode draws and
        #: segments store only those events: every kept value, timing
        #: and frame is bit-identical to the full engine's, and
        #: :data:`NETWORK_BYTES_EVENT` is still recorded.
        self.counter_model = CounterModel(
            device, events=counter_events, columnar=columnar,
            monitored=monitored,
        )
        #: ``columnar=False`` retains the historical per-segment scalar
        #: implementation end to end — the reference baseline for the
        #: bit-identity tests and the ``BENCH_*.json`` trajectory.
        self.columnar = bool(columnar)
        self._plans = {}
        self._execution_index = 0
        # Lazy columnar engines re-key one pooled generator per action
        # instead of constructing a fresh stream (the full-mode scalar
        # path keeps stream() — its derivation is part of the
        # byte-identity contract).
        self._lazy_rng = (
            pooled_stream()
            if self.columnar and counter_events is not None else None
        )
        # sha256 prefix per (app, action): the per-action re-key then
        # hashes only the execution index.  reseed_prefixed lands on the
        # same digest bytes as reseed, so this is not a universe change.
        self._reseed_prefixes = {}
        settle_ms = float(device.vsync_period_ms)
        self._settle_ms = settle_ms
        self._settle_params = (
            ApiKind.UI, RENDER_THREAD, settle_ms, settle_ms * 0.2, 4,
            _RENDER_UARCH, None,
        )

    def _plan(self, app, action):
        """Cached :class:`ActionPlan` for (app, action)."""
        key = (id(app), id(action))
        plan = self._plans.get(key)
        # The cache holds strong refs, so a live plan pins the ids; the
        # identity check guards against a stale hit all the same.
        if plan is None or plan.app is not app or plan.action is not action:
            plan = ActionPlan(app, action, self.environment)
            self._plans[key] = plan
        return plan

    def run_action(self, app, action, start_ms=0.0):
        """Execute *action* of *app* starting at *start_ms*.

        The action's input events drain inline in FIFO order, with the
        timings a :class:`~repro.sim.looper.Looper` gives; only the
        ``columnar=False`` reference still posts them to one.
        """
        self._execution_index += 1
        # columnar=False bypasses the plan cache entirely: the
        # reference path recomputes frames/uarch per segment exactly as
        # the historical hot loop did, so it stays an honest baseline
        # for the BENCH_*.json speedup trajectory.
        plan = self._plan(app, action) if self.columnar else None
        if plan is not None and self.counter_model.events is not None:
            # Lazy universe: the per-action DVFS draw moves into
            # segment_batch (and disappears when no PMU event needs
            # it), and the action stream comes from one re-keyed
            # generator instead of a fresh SeedSequence per action.
            key = (app.name, action.name)
            prefix = self._reseed_prefixes.get(key)
            if prefix is None:
                prefix = self._reseed_prefixes[key] = digest_prefix(
                    self.seed, app.name, action.name
                )
            rng = reseed_prefixed(
                self._lazy_rng, prefix, self._execution_index
            )
            return self._run_action_lazy(app, action, plan, start_ms, rng)
        rng = stream(self.seed, app.name, action.name, self._execution_index)
        # The DVFS governor holds one frequency across a short action.
        dvfs = float(rng.lognormal(mean=0.0, sigma=DVFS_SIGMA))
        segments = []
        if plan is None:
            run_op = partial(
                self._run_operation_reference, app, rng, dvfs, segments,
                action.handler_frame(app.package),
            )
        else:
            run_op = partial(self._run_operation, rng, dvfs, segments)
        events, clock = self._dispatch(action, plan, start_ms, run_op)
        # The settle marks the end of the *action* (the window S-Checker
        # accumulates counters over); the ambient activity after it
        # belongs to the app's steady state (see _ambient_rows).  Full
        # mode draws the ambient span after the settle counts.
        end_ms = clock + self._settle_ms
        self._draw_rows(
            ((clock, self._settle_params, (), None),), rng, dvfs, segments
        )
        ambient_ms = float(rng.uniform(400.0, 800.0))
        self._draw_rows(_ambient_rows(end_ms, ambient_ms), rng, dvfs, segments)
        return _execution(app, action, start_ms, end_ms, events, segments)

    def run_queued_burst(self, app, action_names, start_ms=0.0):
        """A rapid tap burst: every action's input events enqueue at
        once, then drain FIFO (paper §2.1: "events are executed, one by
        one, in their queue order" — which is why one blocking
        operation freezes everything behind it).

        Returns ``(records, timeline)``: one
        :class:`~repro.sim.looper.DispatchRecord` per input event —
        their ``latency_ms`` (enqueue to finish) shows queued events
        absorbing the delay of whatever ran before them, unlike
        ``response_time_ms`` — and the burst's :class:`Timeline`.
        """
        self._execution_index += 1
        rng = stream(self.seed, app.name, "burst", self._execution_index)
        dvfs = float(rng.lognormal(mean=0.0, sigma=DVFS_SIGMA))
        segments = []
        looper = Looper()
        for name in action_names:
            action = app.action(name)
            plan = self._plan(app, action)
            for event_spec, ops in zip(action.events, plan.events):
                looper.post(
                    Message(
                        target=f"{name}/{event_spec.name}",
                        payload=ops,
                        enqueue_ms=start_ms,
                    )
                )

        run_op = partial(self._run_operation, rng, dvfs, segments)

        def handle(message, dispatch_ms):
            clock = dispatch_ms
            scratch = []
            for op_plan in message.payload:
                clock = run_op(op_plan, clock, scratch)
            return clock

        records = looper.dispatch_all(handle, start_ms)
        telemetry().count("sim.counter.segments", len(segments))
        timeline = Timeline()
        timeline.add_batch(segments)
        return records, timeline

    def run_session(self, app, action_names, start_ms=0.0, gap_ms=2000.0):
        """Execute a sequence of actions with idle gaps between them."""
        executions = []
        clock = start_ms
        for name in action_names:
            action = app.action(name)
            execution = self.run_action(app, action, start_ms=clock)
            executions.append(execution)
            clock = execution.end_ms + gap_ms
        return executions

    # ------------------------------------------------------------------
    # The action model, shared by both universes.

    def _dispatch(self, action, plan, start_ms, run_op):
        """Run *action*'s input events one at a time in queue order.

        Every input event is enqueued at *start_ms*; each is dispatched
        when the one before it finishes.  *run_op(op, clock, op_execs)*
        executes one operation (an :class:`~repro.sim.plan.OpPlan`, or
        a raw :class:`Operation` when *plan* is None) and returns the
        new main-thread clock.  Returns the
        :class:`InputEventExecution` list and the clock at which the
        action's tail starts.
        """
        events = []

        def run_event(spec, ops, enqueue_ms, dispatch_ms):
            clock = dispatch_ms
            op_execs = []
            for op in ops:
                clock = run_op(op, clock, op_execs)
            events.append(
                InputEventExecution(
                    spec=spec, enqueue_ms=enqueue_ms,
                    dispatch_ms=dispatch_ms, finish_ms=clock,
                    op_executions=tuple(op_execs),
                )
            )
            return clock

        if plan is not None:
            # Cached plan: inline the FIFO drain.  A queue would hold one
            # message per input event, all enqueued at start_ms — the
            # timing bookkeeping below is exactly Looper.dispatch_all's
            # and involves no draws, so the draw sequence does not
            # depend on which branch runs.
            clock = start_ms
            for event_spec, ops in zip(action.events, plan.events):
                clock = run_event(event_spec, ops, start_ms, clock)
        else:
            looper = Looper()
            for event_spec in action.events:
                looper.post(
                    Message(target=event_spec.name, payload=event_spec,
                            enqueue_ms=start_ms)
                )

            def handle(message, dispatch_ms):
                spec = message.payload
                return run_event(spec, spec.operations, message.enqueue_ms,
                                 dispatch_ms)

            looper.dispatch_all(handle, start_ms)
        if not events:
            return events, start_ms
        return events, events[-1].finish_ms + _EVENT_GAP_MS

    def _op_rows(self, op_plan, clock, manifested, duration, pages,
                 op_execs, rows):
        """Lay one sampled operation out on the threads it occupies.

        Appends one ``(start_ms, params, frames, op)`` row per segment
        to *rows*, in timeline order, where *params* is the counter
        model's row ``(kind, thread, wall_ms, cpu_ms, pages, uarch,
        wait_chunk_override)``; records the :class:`OperationExecution`
        in *op_execs*; returns the new main-thread clock.  Makes no
        draws.
        """
        op = op_plan.op
        if op_plan.on_worker:
            # Main thread only pays the dispatch; the call itself runs
            # concurrently on a worker thread (AsyncTask-style).
            rows.append(
                (clock, _WORKER_DISPATCH_PARAMS, op_plan.dispatch_frames, op)
            )
            thread = WORKER_THREAD
            start = clock = clock + _WORKER_DISPATCH_MS
        else:
            thread = MAIN_THREAD
            start = clock
            clock = start + duration
        rows.append((
            start,
            (op_plan.kind, thread, duration, duration * op_plan.cpu_share,
             pages, op_plan.uarch, op_plan.wait_chunk_ms),
            op_plan.frames,
            op,
        ))
        if thread == MAIN_THREAD and op_plan.render_share > 0:
            # The render thread lags the main thread: the UI code first
            # computes (positions, display lists) and only then commits
            # frames — which is why the *early* part of a UI action
            # looks bug-like (main busy, render idle; paper Figure 5).
            render_lag = _RENDER_LAG_SHARE * duration
            render_wall = (duration - render_lag) + self.device.vsync_period_ms
            render_cpu = duration * op_plan.render_share
            render_pages = int(
                pages * _RENDER_PAGE_FACTOR_PER_SHARE * op_plan.render_share
            )
            rows.append((
                start + render_lag,
                (ApiKind.UI, RENDER_THREAD, render_wall, render_cpu,
                 render_pages, _RENDER_UARCH, None),
                (),
                op,
            ))
        op_execs.append(
            OperationExecution(
                op=op, thread=thread, start_ms=start,
                end_ms=start + duration, manifested=manifested,
            )
        )
        return clock

    # ------------------------------------------------------------------
    # Full-mode scalar draws (byte-identity contract).

    def _run_operation(self, rng, dvfs, segments, op_plan, clock, op_execs):
        """Execute one operation; returns the new main-thread clock.

        Draw-for-draw identical to the historical inline code: one
        uniform + one lognormal for the duration (the exact
        ``ApiSpec.sample_duration_ms`` sequence, with ``log_mu``
        precomputed by the plan), one lognormal for content-size page
        variance, then the counter model's per-segment draws.
        """
        manifested = bool(rng.random() < op_plan.manifest_prob)
        if manifested:
            duration = float(
                rng.lognormal(mean=op_plan.log_mu, sigma=op_plan.sigma)
            )
        else:
            jitter = rng.lognormal(mean=0.0, sigma=0.3)
            duration = max(0.05, op_plan.fast_ms * jitter)
        base_pages = op_plan.pages if manifested else op_plan.pages_fast
        # Content-size variance: how many fresh pages a call touches
        # depends on the input (bitmap size, list length), not just on
        # the API.
        pages = int(base_pages * rng.lognormal(mean=0.0, sigma=0.6))
        rows = []
        clock = self._op_rows(
            op_plan, clock, manifested, duration, pages, op_execs, rows
        )
        network_bytes = (
            op_plan.network_bytes
            if manifested and not op_plan.on_worker else 0
        )
        self._draw_rows(rows, rng, dvfs, segments, network_bytes)
        return clock

    def _draw_rows(self, rows, rng, dvfs, segments, network_bytes=0):
        """Draw each row's counts in scalar order and append its segment.

        A main-thread network call draws its byte count right after
        the counts of its own segment, the first row.
        """
        for start, params, frames, op in rows:
            counts = self._counts(params, rng, dvfs)
            if network_bytes:
                # TrafficStats-style accounting of main-thread sockets
                # (the paper's footnote-2 extension reads this).
                counts[NETWORK_BYTES_EVENT] = float(
                    network_bytes * rng.lognormal(0.0, 0.3)
                )
                network_bytes = 0
            segments.append(fast_segment(
                params[1], start, start + params[2], frames, counts, op,
                params[3],
            ))

    def _run_operation_reference(self, app, rng, dvfs, segments,
                                 handler_frame, op, clock, op_execs):
        """The historical per-segment hot loop, retained verbatim for
        ``columnar=False`` engines: frames and the uarch profile are
        recomputed per operation, durations sampled through
        ``ApiSpec.sample_duration_ms``.  Bit-identical outputs to the
        plan-based path (plans only cache what this recomputes) — the
        honest baseline the ``BENCH_*.json`` speedups are measured
        against."""
        api = op.api
        duration, manifested = api.sample_duration_ms(
            rng, environment=self.environment
        )
        base_pages = api.pages if manifested else api.pages_fast
        pages = int(base_pages * rng.lognormal(mean=0.0, sigma=0.6))
        frames = op.stack_frames(app.package, handler_frame)

        if op.on_worker:
            dispatch_end = clock + _WORKER_DISPATCH_MS
            segments.append(
                Segment(
                    thread=MAIN_THREAD,
                    start_ms=clock,
                    end_ms=dispatch_end,
                    frames=frames[:2],
                    counts=self._counts(
                        (ApiKind.LIGHT, MAIN_THREAD, _WORKER_DISPATCH_MS,
                         _WORKER_DISPATCH_MS * 0.9, 2, _RENDER_UARCH, None),
                        rng, dvfs,
                    ),
                    op=op,
                    cpu_ms=_WORKER_DISPATCH_MS * 0.9,
                )
            )
            cpu_ms = duration * api.cpu_share
            segments.append(
                Segment(
                    thread=WORKER_THREAD,
                    start_ms=dispatch_end,
                    end_ms=dispatch_end + duration,
                    frames=frames,
                    counts=self._counts(
                        (api.kind, WORKER_THREAD, duration, cpu_ms, pages,
                         api.uarch_profile(), api.wait_chunk_ms),
                        rng, dvfs,
                    ),
                    op=op,
                    cpu_ms=cpu_ms,
                )
            )
            op_execs.append(
                OperationExecution(
                    op=op,
                    thread=WORKER_THREAD,
                    start_ms=dispatch_end,
                    end_ms=dispatch_end + duration,
                    manifested=manifested,
                )
            )
            return dispatch_end

        cpu_ms = duration * api.cpu_share
        counts = self._counts(
            (api.kind, MAIN_THREAD, duration, cpu_ms, pages,
             api.uarch_profile(), api.wait_chunk_ms),
            rng, dvfs,
        )
        if api.network_bytes and manifested:
            counts[NETWORK_BYTES_EVENT] = float(
                api.network_bytes * rng.lognormal(0.0, 0.3)
            )
        segments.append(
            Segment(
                thread=MAIN_THREAD,
                start_ms=clock,
                end_ms=clock + duration,
                frames=frames,
                counts=counts,
                op=op,
                cpu_ms=cpu_ms,
            )
        )
        if api.render_share > 0:
            render_lag = _RENDER_LAG_SHARE * duration
            render_wall = (duration - render_lag) + self.device.vsync_period_ms
            render_cpu = duration * api.render_share
            render_pages = int(
                pages * _RENDER_PAGE_FACTOR_PER_SHARE * api.render_share
            )
            segments.append(
                Segment(
                    thread=RENDER_THREAD,
                    start_ms=clock + render_lag,
                    end_ms=clock + render_lag + render_wall,
                    frames=(),
                    counts=self._counts(
                        (ApiKind.UI, RENDER_THREAD, render_wall, render_cpu,
                         render_pages, _RENDER_UARCH, None),
                        rng, dvfs,
                    ),
                    op=op,
                    cpu_ms=render_cpu,
                )
            )
        op_execs.append(
            OperationExecution(
                op=op,
                thread=MAIN_THREAD,
                start_ms=clock,
                end_ms=clock + duration,
                manifested=manifested,
            )
        )
        return clock + duration

    def _counts(self, params, rng, dvfs):
        """Scalar-order counts of one segment row under the action's
        DVFS factor."""
        kind, thread, wall_ms, cpu_ms, pages, uarch, wait_chunk = params
        return self.counter_model.segment_counts(
            kind=kind,
            thread=thread,
            wall_ms=wall_ms,
            cpu_ms=cpu_ms,
            pages=pages,
            uarch=uarch,
            rng=rng,
            wait_chunk_override=wait_chunk,
            dvfs=dvfs,
        )

    # ------------------------------------------------------------------
    # Lazy-mode pooled draws.

    def _run_action_lazy(self, app, action, plan, start_ms, rng):
        """The action model with pooled draws, for lazy engines.

        All per-operation draws come from vectors pooled up front
        (manifest uniforms, duration/page/network normals, the ambient
        uniform) and every segment's counts come from one
        :meth:`CounterModel.segment_batch` call at the end — a fixed
        draw layout per (action shape, event set), reproducible per
        seed but deliberately not the full-mode scalar sequence (lazy
        mode is its own deterministic universe; see ``docs/perf.md``).
        """
        # Per-action draw pools, fixed layout: one uniform vector
        # (manifest checks | ambient span) and one standard-normal
        # vector (duration z | pages z | network z when the action has
        # network ops), consumed by operation index.
        n_ops = plan.op_count
        uniforms = rng.random(n_ops + 1).tolist()
        ambient_ms = 400.0 + 400.0 * uniforms[n_ops]
        z_pool = rng.standard_normal(
            n_ops * (3 if plan.has_network else 2)
        ).tolist()

        # One row per segment, in timeline order; the counts come from
        # one batch at the end.
        rows = []
        # Row index -> bytes of a main-thread network call; the call's
        # own row is the first one _op_rows appends for it.
        network_rows = {}
        op_cursor = [0]

        def run_op(op_plan, clock, op_execs):
            index = op_cursor[0]
            op_cursor[0] = index + 1
            dz = z_pool[index]
            manifested = uniforms[index] < op_plan.manifest_prob
            if manifested:
                duration = math.exp(op_plan.log_mu + op_plan.sigma * dz)
                base_pages = op_plan.pages
            else:
                duration = max(0.05, op_plan.fast_ms * math.exp(0.3 * dz))
                base_pages = op_plan.pages_fast
            pages = int(base_pages * math.exp(0.6 * z_pool[n_ops + index]))
            if op_plan.network_bytes and manifested and not op_plan.on_worker:
                # plan.has_network holds, so the pool has a network z.
                network_rows[len(rows)] = float(
                    op_plan.network_bytes
                    * math.exp(0.3 * z_pool[2 * n_ops + index])
                )
            return self._op_rows(
                op_plan, clock, manifested, duration, pages, op_execs, rows
            )

        events, clock = self._dispatch(action, plan, start_ms, run_op)
        end_ms = clock + self._settle_ms
        rows.append((clock, self._settle_params, (), None))
        rows.extend(_ambient_rows(end_ms, ambient_ms))

        counts_list = self.counter_model.segment_batch(
            [row[1] for row in rows], rng=rng
        )
        for index, network in network_rows.items():
            counts_list[index][NETWORK_BYTES_EVENT] = network
        segments = [
            fast_segment(
                params[1], start, start + params[2], frames, counts, op,
                params[3],
            )
            for (start, params, frames, op), counts in zip(rows, counts_list)
        ]
        return _execution(app, action, start_ms, end_ms, events, segments)


def _ambient_rows(end_ms, ambient_ms):
    """Post-action ambient activity: a main and a render row starting
    at the action's end.

    Animations, garbage collection and list prefetching belong to the
    app's steady state, not to the action, but they are visible to
    anything that monitors the process continuously (the paper's
    utilization baselines sample /proc every 100 ms around the clock,
    and their low thresholds fire on exactly this kind of ordinary busy
    window).
    """
    return (
        (end_ms, (ApiKind.UI, MAIN_THREAD, ambient_ms,
                  ambient_ms * _AMBIENT_CPU_SHARE, 60, _RENDER_UARCH, None),
         (), None),
        (end_ms, (ApiKind.UI, RENDER_THREAD, ambient_ms, ambient_ms * 0.15,
                  40, _RENDER_UARCH, None),
         (), None),
    )


def _execution(app, action, start_ms, end_ms, events, segments):
    """Ingest an action's segments and assemble its
    :class:`ActionExecution` (plus the sim telemetry block)."""
    timeline = Timeline()
    timeline.add_batch(segments)
    tel = telemetry()
    if tel.enabled:
        tel.count("sim.counter.segments", len(segments))
        tel.count("sim.actions.executed")
        tel.count("sim.events.dispatched", len(events))
        tel.record_span(
            "sim.action.execute", start_ms, end_ms,
            app=app.name, action=action.name, events=len(events),
            hang=any(event.is_soft_hang for event in events),
        )
    return ActionExecution(
        app=app,
        action=action,
        start_ms=start_ms,
        end_ms=end_ms,
        events=tuple(events),
        timeline=timeline,
    )
