"""The Hang Doctor orchestrator (paper Figure 2(a)).

Wires the runtime components together around the per-action state
machine:

* every execution's input-event response times are measured (cheap,
  always on);
* Uncategorized actions run with the performance-event monitor
  enabled; on a hang, S-Checker's filter decides Suspicious vs Normal;
* Suspicious / Hang Bug actions that hang again are traced and
  analyzed by the Diagnoser; confirmed bugs are recorded in the Hang
  Bug Report and — when the root cause is an API rather than
  self-developed code — added to the known-blocking-API database;
* Normal actions are periodically reset to Uncategorized.

HangDoctor implements the common :class:`~repro.detectors.base.Detector`
interface so it can be compared head-to-head with the baselines.

Graceful degradation: the monitoring substrate is allowed to fail
(see :mod:`repro.faults`) without ever failing the app.  Transient
counter-read errors get a bounded retry; after
``config.counter_failure_degrade_after`` consecutive reads that still
failed, Hang Doctor degrades to **timeout-only mode** — S-Checker is
bypassed and every Uncategorized hang goes straight to Suspicious,
trading the filter's false-positive pruning for survival.  Refused
trace collections are absorbed by the Diagnoser, which quarantines an
action after repeated failures.  Every degradation is recorded in the
:class:`~repro.detectors.base.MonitoringCost` of the execution and in
the Hang Bug Report; no injected fault ever raises out of
:meth:`process`.
"""

from repro.base.frames import Frame
from repro.base.rng import SeededBackoff
from repro.core.blocking_db import BlockingApiDatabase
from repro.core.config import HangDoctorConfig
from repro.core.diagnoser import Diagnoser
from repro.core.injector import AppInjector
from repro.core.report import HangBugReport
from repro.core.schecker import SChecker
from repro.core.states import ActionState, ActionStateMachine
from repro.detectors.base import ActionOutcome, Detection, Detector
from repro.faults import (
    CounterUnavailableError,
    FaultInjector,
    FaultPlan,
    TransientCounterError,
)
from repro.telemetry import MetricsRegistry
from repro.telemetry import current as telemetry


def known_bug_frame(known):
    """The root-cause frame of a crowd
    :class:`~repro.crowd.aggregator.KnownBug`, as the Diagnoser would
    have blamed it had the device traced the hang itself."""
    clazz, _, method = known.operation.rpartition(".")
    return Frame(clazz=clazz, method=method, file=known.file,
                 line=known.line)


class HangDoctor(Detector):
    """Two-phase runtime soft-hang-bug detector for one app."""

    name = "HD"

    def __init__(self, app, device, config=None, blocking_db=None, seed=0,
                 faults=None, crowd_kb=None):
        self.app = app
        self.device = device
        self.config = (config or HangDoctorConfig()).validate()
        self.blocking_db = (
            blocking_db if blocking_db is not None
            else BlockingApiDatabase.initial()
        )
        #: Crowd-synced known-bug knowledge (see :mod:`repro.crowd`):
        #: when the fleet has already diagnosed this (app, action), the
        #: Diagnoser's trace collection is skipped and the known
        #: verdict is applied directly.  None disables the path — the
        #: paper's isolated-device behaviour.
        self.crowd_kb = crowd_kb
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults, seed=seed, scope=(app.name,))
        self.faults = faults
        self.injector = AppInjector(app)
        self.machine = ActionStateMachine(
            reset_period=self.config.normal_reset_period
        )
        for row in self.injector.rows():
            self.machine.register(row.uid)
        self.schecker = SChecker(self.config, device, seed=seed,
                                 faults=faults)
        self.diagnoser = Diagnoser(self.config, app_package=app.package,
                                   faults=faults)
        self.report = HangBugReport(app.name)
        #: This doctor's always-on metrics registry — the *single*
        #: source behind the public run-counter views
        #: (:attr:`phase2_collections`, :attr:`kb_short_circuits`,
        #: :attr:`degraded`), which used to be bookkept in parallel
        #: with the telemetry stream and could drift from it.
        self.metrics = MetricsRegistry()
        self._consecutive_counter_failures = 0
        self._quarantines_reported = set()
        #: Seeded retry schedule for transient counter-read failures:
        #: the delays a real deployment would sleep between attempts,
        #: bookkept in ``cost.retry_backoff_ms`` (deterministic per
        #: seed/app, drawn only when a retry actually happens).
        self._counter_backoff = SeededBackoff(
            seed, "counter-retry", app.name, base_ms=5.0, cap_ms=200.0
        )

    # ------------------------------------------------------------------

    def _meter(self, name, n=1):
        """Increment one run counter in the single source of truth.

        The local registry backs the public view properties; an active
        telemetry session sees the very same increment, so the views
        and the exported metrics can never disagree.
        """
        self.metrics.count(name, n)
        telemetry().count(name, n)

    @property
    def degraded(self):
        """True once counters died and only the timeout remains."""
        return self.metrics.gauge_value("core.degraded.mode") > 0

    @property
    def phase2_collections(self):
        """Phase-2 trace collections actually paid for (the expensive
        half of the two-phase cost, what the crowd backend drives down
        fleet-wide)."""
        return self.metrics.counter_value("core.phase2.collections")

    @property
    def kb_short_circuits(self):
        """Phase-2 collections avoided via the crowd known-bug DB."""
        return self.metrics.counter_value("core.kb.short_circuits")

    # ------------------------------------------------------------------

    def state_of(self, action_name):
        """Current state of a named action."""
        return self.machine.state(self.injector.uid_of(action_name))

    def process(self, execution, device_id=0):
        """Observe one action execution and run the two-phase algorithm.

        Never raises on injected monitoring faults: failures degrade
        the monitoring (recorded in the outcome's cost and the report)
        while the state machine keeps running on what evidence remains.
        """
        if execution.app.package != self.app.package:
            raise ValueError(
                f"execution belongs to {execution.app.package!r}; this "
                f"Hang Doctor instance is embedded in {self.app.package!r}"
            )
        uid = self.injector.uid_of(execution.action.name)
        state = self.machine.state(uid)
        outcome = ActionOutcome()
        outcome.cost.rt_events = len(execution.events)
        hang = execution.response_time_ms > self.config.perceivable_delay_ms

        self._meter("core.actions.processed")
        if hang:
            self._meter("core.hangs.observed")
            self.metrics.observe("core.hang.response_ms",
                                 execution.response_time_ms)
            telemetry().observe("core.hang.response_ms",
                                execution.response_time_ms)
        tel = telemetry()
        if tel.enabled:
            tel.record_span(
                "core.action.process", execution.start_ms,
                execution.end_ms, action=execution.action.name,
                state=state.name, hang=hang,
            )

        if state is ActionState.UNCATEGORIZED:
            self._phase_one(uid, execution, hang, outcome)
        elif state is ActionState.NORMAL:
            self.machine.note_normal_execution(uid, time_ms=execution.end_ms)
        else:  # SUSPICIOUS or HANG_BUG
            self._phase_two(uid, state, execution, hang, outcome, device_id)
        return outcome

    # ------------------------------------------------------------------

    def _phase_one(self, uid, execution, hang, outcome):
        """S-Checker: counters were on for this Uncategorized action."""
        if self.degraded:
            # Timeout-only mode: the counters are gone, so the filter
            # cannot prune UI work; every hang goes to the Diagnoser.
            if hang:
                telemetry().event(
                    "core.schecker.verdict", execution.end_ms,
                    action=execution.action.name, verdict="timeout-only",
                )
                self.machine.transition(
                    uid, ActionState.SUSPICIOUS, "timeout-only",
                    time_ms=execution.end_ms,
                )
            return
        outcome.cost.counter_window_ms = execution.end_ms - execution.start_ms
        if not hang:
            # No soft hang: leave Uncategorized, monitor again next time.
            return
        check = self._checked_with_retry(execution, outcome)
        if check is None:
            # The read ultimately failed.  Without counter evidence the
            # hang cannot be ruled UI work, so fail conservative: hand
            # it to the Diagnoser rather than miss a bug.
            telemetry().event(
                "core.schecker.verdict", execution.end_ms,
                action=execution.action.name, verdict="read-failed",
            )
            self.machine.transition(
                uid, ActionState.SUSPICIOUS, "S-Checker (read failed)",
                time_ms=execution.end_ms,
            )
            return
        verdict = "suspicious" if check.symptomatic else "normal"
        self._meter(f"core.schecker.{verdict}")
        telemetry().event(
            "core.schecker.verdict", execution.end_ms,
            action=execution.action.name, verdict=verdict,
        )
        if check.symptomatic:
            self.machine.transition(
                uid, ActionState.SUSPICIOUS, "S-Checker",
                time_ms=execution.end_ms,
            )
        else:
            self.machine.transition(
                uid, ActionState.NORMAL, "S-Checker", time_ms=execution.end_ms
            )

    def _checked_with_retry(self, execution, outcome):
        """One S-Checker evaluation with bounded retry.

        Returns the SymptomCheck, or None when every attempt failed.
        Each attempt (including failures) is a real syscall charged to
        ``counter_reads``; a permanent failure stops retrying early.
        Each retry is preceded by a seeded backoff delay
        (:class:`~repro.base.rng.SeededBackoff`) charged to
        ``retry_backoff_ms`` — the deterministic record of what a real
        deployment would have slept.
        """
        attempts = 1 + self.config.counter_read_retries
        for attempt in range(attempts):
            try:
                check = self.schecker.check(execution)
            except TransientCounterError:
                outcome.cost.counter_reads += 1
                outcome.cost.counter_read_failures += 1
                self._meter("core.schecker.read_failures")
                if attempt + 1 < attempts:
                    outcome.cost.retry_backoff_ms += (
                        self._counter_backoff.next_ms()
                    )
                continue
            except CounterUnavailableError:
                outcome.cost.counter_reads += 1
                outcome.cost.counter_read_failures += 1
                self._meter("core.schecker.read_failures")
                break
            outcome.cost.counter_reads += 1
            self._consecutive_counter_failures = 0
            self._counter_backoff.reset()
            return check
        self._consecutive_counter_failures += 1
        if (self._consecutive_counter_failures
                >= self.config.counter_failure_degrade_after):
            self._enter_degraded_mode(execution.end_ms)
        return None

    def _enter_degraded_mode(self, time_ms):
        """Give up on counters; record it instead of crashing."""
        self.metrics.gauge_set("core.degraded.mode", 1.0)
        self._meter("core.degraded.entries")
        tel = telemetry()
        tel.gauge_set("core.degraded.mode", 1.0)
        tel.event(
            "core.degraded.enter", time_ms,
            consecutive_failures=self._consecutive_counter_failures,
        )
        self.report.note_degradation(
            "timeout-only",
            detail=(
                f"counters lost after "
                f"{self._consecutive_counter_failures} consecutive "
                f"failed reads"
            ),
            time_ms=time_ms,
        )

    def _crowd_short_circuit(self, uid, state, execution, outcome,
                             device_id):
        """Apply a fleet-diagnosed verdict instead of collecting traces.

        Returns True when the crowd knowledge base holds a confirmed
        bug for this (app, action): the action jumps straight from
        S-Checker's Suspicious verdict to Hang Bug, the known root
        cause is recorded for this manifestation (report + detection +
        blocking-API database), and no trace collection is paid for —
        the bug was already diagnosed elsewhere in the fleet.
        """
        if self.crowd_kb is None:
            return False
        known = self.crowd_kb.lookup(self.app.name, execution.action.name)
        if known is None:
            return False
        self._meter("core.kb.short_circuits")
        outcome.cost.kb_short_circuits += 1
        telemetry().event(
            "core.kb.short_circuit", execution.end_ms,
            action=execution.action.name, operation=known.operation,
        )
        if state is ActionState.SUSPICIOUS:
            self.machine.transition(uid, ActionState.HANG_BUG, "Crowd-KB",
                                    time_ms=execution.end_ms)
        outcome.detections.append(
            Detection(
                detector=self.name,
                app_name=self.app.name,
                action_name=execution.action.name,
                time_ms=execution.end_ms,
                response_time_ms=execution.response_time_ms,
                root=known_bug_frame(known),
                occurrence=known.occurrence,
                root_is_ui=False,
                is_self_developed=known.is_self_developed,
            )
        )
        self.report.record(
            operation=known.operation,
            file=known.file,
            line=known.line,
            is_self_developed=known.is_self_developed,
            response_time_ms=execution.response_time_ms,
            occurrence_factor=known.occurrence,
            device_id=device_id,
            action=execution.action.name,
        )
        if not known.is_self_developed:
            self.blocking_db.add(known.operation)
        return True

    def _phase_two(self, uid, state, execution, hang, outcome, device_id):
        """Diagnoser: trace and analyze if the timeout fires again."""
        if not hang:
            # Occasional bug: stay put, catch the next manifestation.
            return
        if state is ActionState.HANG_BUG and not self.config.trace_hang_bug_state:
            return
        if self._crowd_short_circuit(uid, state, execution, outcome,
                                     device_id):
            return
        self._meter("core.phase2.collections")
        result = self.diagnoser.diagnose(execution)
        outcome.trace_episodes.extend(
            (h.start_ms, h.end_ms) for h in result.hang_diagnoses
        )
        outcome.cost.trace_samples = result.samples
        outcome.cost.analyses = len(result.hang_diagnoses)
        outcome.cost.trace_failures = result.trace_failures
        if result.samples:
            self._meter("core.trace.samples", result.samples)
        if result.trace_failures:
            self._meter("core.trace.failures", result.trace_failures)
        tel = telemetry()
        if tel.enabled:
            tel.record_span(
                "core.diagnoser.collect", execution.start_ms,
                execution.end_ms, action=execution.action.name,
                samples=result.samples, analyses=len(result.hang_diagnoses),
                trace_failures=result.trace_failures,
            )
        if result.quarantined:
            name = execution.action.name
            if name not in self._quarantines_reported:
                self._quarantines_reported.add(name)
                tel.event("core.diagnoser.quarantine", execution.end_ms,
                          action=name)
                self.report.note_degradation(
                    "trace-quarantine", detail=name,
                    time_ms=execution.end_ms,
                )
        if result.trace_failures and not result.hang_diagnoses:
            # Every collection was refused: no evidence either way, so
            # the action keeps its state for the next manifestation.
            return
        if result.quarantined and not result.hang_diagnoses:
            return

        bug_diagnoses = result.bug_diagnoses()
        if state is ActionState.SUSPICIOUS:
            target = (
                ActionState.HANG_BUG if bug_diagnoses else ActionState.NORMAL
            )
            self.machine.transition(
                uid, target, "Diagnoser", time_ms=execution.end_ms
            )

        for hang_diag in bug_diagnoses:
            diagnosis = hang_diag.diagnosis
            outcome.detections.append(
                Detection(
                    detector=self.name,
                    app_name=self.app.name,
                    action_name=execution.action.name,
                    time_ms=execution.end_ms,
                    response_time_ms=hang_diag.response_time_ms,
                    root=diagnosis.root,
                    caller=diagnosis.caller,
                    occurrence=diagnosis.occurrence,
                    root_is_ui=False,
                    is_self_developed=diagnosis.is_self_developed,
                )
            )
            self.report.record(
                operation=diagnosis.root.qualified_name,
                file=diagnosis.root.file,
                line=diagnosis.root.line,
                is_self_developed=diagnosis.is_self_developed,
                response_time_ms=hang_diag.response_time_ms,
                occurrence_factor=diagnosis.occurrence,
                device_id=device_id,
                action=execution.action.name,
            )
            if not diagnosis.is_self_developed:
                self.blocking_db.add(diagnosis.root.qualified_name)
