"""The fault-injection layer and the runtime's graceful degradation.

The contract under test: a :class:`FaultPlan` with all rates zero is a
perfect no-op (byte-identical behavior to no fault layer at all), a
nonzero plan injects a deterministic, seed-reproducible fault
sequence, and no injected fault ever raises out of
``HangDoctor.process`` — every failure is absorbed as recorded
degradation.
"""

import pytest

from repro.base.frames import Frame, StackTrace
from repro.core.config import HangDoctorConfig
from repro.core.hang_doctor import HangDoctor
from repro.core.states import ActionState
from repro.core.trace_analyzer import TraceAnalyzer
from repro.faults import (
    CounterUnavailableError,
    FaultInjector,
    FaultPlan,
    TraceCollectionError,
    TransientCounterError,
)
from repro.sched import ElasticScheduler
from repro.sim.engine import ExecutionEngine


# ------------------------------------------------------------------ plan


def test_plan_defaults_to_no_faults():
    plan = FaultPlan()
    assert not plan.any_faults
    assert plan.describe() == "no faults"


def test_plan_validates_rates():
    with pytest.raises(ValueError, match="counter_transient_rate"):
        FaultPlan(counter_transient_rate=1.5).validate()
    with pytest.raises(ValueError, match="trace_denied_rate"):
        FaultPlan(trace_denied_rate=-0.1).validate()
    with pytest.raises(ValueError, match="counter_undercount_factor"):
        FaultPlan(counter_undercount_factor=1.0).validate()


def test_plan_uniform_scales_every_subsystem():
    plan = FaultPlan.uniform(0.2)
    assert plan.any_faults
    assert plan.counter_transient_rate == pytest.approx(0.2)
    assert plan.counter_unavailable_rate == pytest.approx(0.05)
    assert plan.trace_denied_rate == pytest.approx(0.2)
    assert plan.persistence_corrupt_rate == pytest.approx(0.2)
    assert FaultPlan.uniform(0.0) == FaultPlan(counter_undercount_factor=0.5)
    with pytest.raises(ValueError):
        FaultPlan.uniform(2.0)


# -------------------------------------------------------------- injector


def _fault_sequence(seed, scope, n=200):
    injector = FaultInjector(FaultPlan.uniform(0.3), seed=seed, scope=scope)
    sequence = []
    for _ in range(n):
        try:
            injector.counter_read_fault()
            sequence.append("ok")
        except TransientCounterError:
            sequence.append("transient")
        except CounterUnavailableError:
            sequence.append("dead")
    return sequence


def test_injector_is_deterministic_per_seed_and_scope():
    assert _fault_sequence(0, ("K9-mail",)) == _fault_sequence(0, ("K9-mail",))
    assert (_fault_sequence(0, ("K9-mail",))
            != _fault_sequence(1, ("K9-mail",)))
    assert (_fault_sequence(0, ("K9-mail",))
            != _fault_sequence(0, ("AndStatus",)))


def test_zero_rate_channels_never_draw():
    injector = FaultInjector(FaultPlan(), seed=0)
    for _ in range(50):
        injector.counter_read_fault()
        injector.trace_collection_fault()
    assert injector.corrupt_counter_value("cpu-cycles", 100.0) == 100.0
    assert injector.corrupt_text('{"a": 1}') == '{"a": 1}'
    assert injector.draws == {}
    assert injector.fired_total() == 0


def test_injector_undercount_scales_values():
    injector = FaultInjector(
        FaultPlan(counter_undercount_rate=1.0, counter_undercount_factor=0.5),
        seed=0,
    )
    assert injector.corrupt_counter_value("cpu-cycles", 80.0) == 40.0
    assert injector.fired == {"counter-undercount": 1}


def test_injector_mangles_traces_deterministically():
    frames = tuple(
        Frame(clazz="com.app.A", method=f"m{i}", file="A.java", line=i)
        for i in range(4)
    )
    traces = [StackTrace(time_ms=float(i), frames=frames) for i in range(30)]
    mangled_a = FaultInjector(
        FaultPlan(trace_truncate_rate=0.5), seed=7
    ).mangle_traces(traces)
    mangled_b = FaultInjector(
        FaultPlan(trace_truncate_rate=0.5), seed=7
    ).mangle_traces(traces)
    assert mangled_a == mangled_b
    truncated = [t for t in mangled_a if t.frames != frames]
    assert truncated  # at rate 0.5 over 30 traces some must trip
    assert all(t.frames == frames[:2] for t in truncated)


def test_injector_corrupt_text_truncates():
    injector = FaultInjector(FaultPlan(persistence_corrupt_rate=1.0), seed=0)
    text = '{"schema": 1, "app": "K9-mail", "entries": []}'
    corrupt = injector.corrupt_text(text)
    assert len(corrupt) < len(text)
    assert text.startswith(corrupt)


# ----------------------------------------------- zero-plan equivalence


def _doctor_fingerprint(doctor, executions):
    detections = []
    costs = []
    for execution in executions:
        outcome = doctor.process(execution)
        detections.extend(
            (d.action_name, d.root_name, d.time_ms, d.occurrence)
            for d in outcome.detections
        )
        costs.append((
            outcome.cost.counter_reads, outcome.cost.trace_samples,
            outcome.cost.counter_read_failures, outcome.cost.trace_failures,
        ))
    return detections, costs, doctor.report.render()


def test_zero_plan_is_byte_identical_to_no_fault_layer(device, k9):
    """The acceptance criterion behind rate-0 chaos reproducing the
    fault-free tables: an all-zero plan changes nothing at all."""
    engine = ExecutionEngine(device, seed=5)
    session = [action.name for action in k9.actions] * 6
    executions = engine.run_session(k9, session)
    plain = HangDoctor(k9, device, seed=5)
    zeroed = HangDoctor(k9, device, seed=5, faults=FaultPlan())
    assert (_doctor_fingerprint(plain, executions)
            == _doctor_fingerprint(zeroed, executions))
    assert zeroed.faults.draws == {}
    assert not zeroed.degraded
    assert not zeroed.report.degradations


# ------------------------------------------------- graceful degradation


def _run_until(doctor, engine, app, action_name, predicate, limit=60):
    action = app.action(action_name)
    for _ in range(limit):
        doctor.process(engine.run_action(app, action))
        if predicate():
            return True
    return False


def test_transient_failures_degrade_to_timeout_only(device, k9):
    config = HangDoctorConfig(counter_failure_degrade_after=1)
    doctor = HangDoctor(
        k9, device, config=config, seed=3,
        faults=FaultPlan(counter_transient_rate=1.0),
    )
    engine = ExecutionEngine(device, seed=3)
    assert _run_until(doctor, engine, k9, "open_email",
                      lambda: doctor.degraded)
    # The hang that broke the counters was not dropped: without
    # evidence to rule it UI work it went to the Diagnoser.
    assert doctor.state_of("open_email") is ActionState.SUSPICIOUS
    kinds = [record.kind for record in doctor.report.degradations]
    assert kinds == ["timeout-only"]
    assert "consecutive" in doctor.report.degradations[0].detail
    assert "timeout-only" in doctor.report.render()


def test_retry_recovers_from_occasional_transients(device, k9):
    """At a modest transient rate the bounded retry keeps the doctor
    out of degraded mode: failures are paid for (extra counter reads)
    but the checks still complete."""
    doctor = HangDoctor(
        k9, device, seed=1,
        faults=FaultPlan(counter_transient_rate=0.3),
    )
    engine = ExecutionEngine(device, seed=1)
    session = [action.name for action in k9.actions] * 12
    total_failures = 0
    for execution in engine.run_session(k9, session):
        outcome = doctor.process(execution)
        total_failures += outcome.cost.counter_read_failures
    assert total_failures > 0
    assert not doctor.degraded
    assert not doctor.report.degradations


def test_permanent_counter_death_degrades(device, k9):
    doctor = HangDoctor(
        k9, device,
        config=HangDoctorConfig(counter_failure_degrade_after=1),
        seed=9, faults=FaultPlan(counter_unavailable_rate=1.0),
    )
    engine = ExecutionEngine(device, seed=9)
    assert _run_until(doctor, engine, k9, "open_email",
                      lambda: doctor.degraded)
    assert doctor.schecker.monitor.unavailable
    # In timeout-only mode fresh Uncategorized hangs still reach the
    # Diagnoser (no counter windows are charged any more).
    assert _run_until(
        doctor, engine, k9, "search_messages",
        lambda: doctor.state_of("search_messages") is not ActionState.UNCATEGORIZED,
    )
    assert doctor.state_of("search_messages") is ActionState.SUSPICIOUS


def test_trace_denial_quarantines_the_action(device, k9):
    doctor = HangDoctor(
        k9, device, seed=13, faults=FaultPlan(trace_denied_rate=1.0),
    )
    engine = ExecutionEngine(device, seed=13)
    assert _run_until(doctor, engine, k9, "open_email",
                      lambda: doctor.diagnoser.is_quarantined("open_email"))
    assert doctor.diagnoser.quarantined_actions() == ["open_email"]
    # No evidence ever came back, so the action keeps its state rather
    # than being acquitted or convicted.
    assert doctor.state_of("open_email") is ActionState.SUSPICIOUS
    kinds = {record.kind for record in doctor.report.degradations}
    assert "trace-quarantine" in kinds
    assert len(doctor.report.degradations) == 1  # reported once, not per hang


def test_diagnoser_streak_resets_on_success(device, k9):
    """Sporadic denials below the quarantine threshold never disable
    tracing: one successful collection resets the streak."""
    doctor = HangDoctor(
        k9, device, seed=2, faults=FaultPlan(trace_denied_rate=0.1),
    )
    engine = ExecutionEngine(device, seed=2)
    failures = 0
    for _ in range(60):
        outcome = doctor.process(engine.run_action(k9, k9.action("open_email")))
        failures += outcome.cost.trace_failures
    assert failures > 0
    assert not doctor.diagnoser.is_quarantined("open_email")
    assert len(doctor.report) > 0  # diagnoses still landed


def test_no_fault_ever_raises_out_of_process(device, k9, andstatus):
    """The headline robustness property, at brutal fault rates."""
    for app in (k9, andstatus):
        engine = ExecutionEngine(device, seed=17)
        doctor = HangDoctor(app, device, seed=17,
                            faults=FaultPlan.uniform(0.8))
        session = [action.name for action in app.actions] * 8
        for execution in engine.run_session(app, session):
            doctor.process(execution)  # must never raise
        assert doctor.faults.fired_total() > 0


# -------------------------------------------------------- trace analyzer


def _frame(name):
    return Frame(clazz="com.app.Work", method=name, file="W.java", line=10)


def test_analyzer_skips_unreadable_traces():
    frames = (_frame("outer"), _frame("inner"))
    readable = [StackTrace(time_ms=float(i), frames=frames)
                for i in range(6)]
    junk = [None, StackTrace(time_ms=99.0, frames=None)]
    analyzer = TraceAnalyzer(occurrence_threshold=0.5)
    clean = analyzer.analyze(readable)
    noisy = analyzer.analyze(junk + readable + junk)
    assert noisy == clean
    assert noisy.trace_count == 6
    assert noisy.root == _frame("inner")


def test_analyzer_handles_all_unreadable():
    analyzer = TraceAnalyzer()
    diagnosis = analyzer.analyze([None, StackTrace(time_ms=0.0, frames=None)])
    assert diagnosis.root is None
    assert not diagnosis.is_hang_bug
    assert diagnosis.trace_count == 0


def test_collector_counts_refusals(device, k9):
    from repro.core.trace_collector import TraceCollector

    injector = FaultInjector(FaultPlan(trace_denied_rate=1.0), seed=0)
    collector = TraceCollector(faults=injector)
    engine = ExecutionEngine(device, seed=4)
    execution = engine.run_action(k9, k9.action("open_email"))
    with pytest.raises(TraceCollectionError):
        collector.collect(execution, execution.events[0])
    assert collector.collection_failures == 1
    assert collector.samples_collected == 0


# ------------------------------------------------- report-upload channels


def test_report_upload_channels_fire_deterministically():
    plan = FaultPlan(report_drop_rate=1.0, report_duplicate_rate=1.0,
                     report_delay_rate=1.0)
    injector = FaultInjector(plan, seed=5, scope=("upload",))
    assert injector.drop_report_batch()
    assert injector.duplicate_report_batch()
    assert injector.delay_report_batch()
    again = FaultInjector(plan, seed=5, scope=("upload",))
    assert [again.drop_report_batch() for _ in range(4)] == [True] * 4


def test_report_upload_channels_never_draw_at_rate_zero():
    injector = FaultInjector(FaultPlan(), seed=0)
    assert not injector.drop_report_batch()
    assert not injector.duplicate_report_batch()
    assert not injector.delay_report_batch()
    assert injector.draws == {}


def test_uniform_plan_covers_report_channels():
    plan = FaultPlan.uniform(0.25)
    assert plan.report_drop_rate == 0.25
    assert plan.report_duplicate_rate == 0.25
    assert plan.report_delay_rate == 0.25
    assert "report_drop=0.25" in plan.describe()


# --------------------------------------------------- executor channels


def test_plan_validates_executor_rates():
    with pytest.raises(ValueError, match="worker_kill_rate"):
        FaultPlan(worker_kill_rate=1.5).validate()
    with pytest.raises(ValueError, match="shard_stall_rate"):
        FaultPlan(shard_stall_rate=-0.1).validate()
    with pytest.raises(ValueError, match="torn_write_rate"):
        FaultPlan(torn_write_rate=2.0).validate()
    with pytest.raises(ValueError, match="shard_stall_seconds"):
        FaultPlan(shard_stall_seconds=0.0).validate()


def test_uniform_plan_keeps_executor_channels_off():
    """FaultPlan.uniform scales the *runtime's* fault surface; the
    executor channels stress the experiment harness itself and are
    only ever opted into explicitly — a chaos sweep at rate r must
    not also randomly kill its own workers."""
    plan = FaultPlan.uniform(0.8)
    assert plan.worker_kill_rate == 0.0
    assert plan.shard_stall_rate == 0.0
    assert plan.torn_write_rate == 0.0


def test_executor_channels_never_draw_at_rate_zero():
    injector = FaultInjector(FaultPlan(), seed=0)
    for shard in range(20):
        assert not injector.worker_kill_fault(shard)
        assert not injector.shard_stall_fault(shard)
    assert not injector.torn_write_fault("entry")
    assert injector.draws == {}
    assert injector.fired_total() == 0


def test_keyed_draws_independent_of_call_order():
    """The property that makes executor faults worker-count-proof:
    each shard's verdict depends only on its key, never on
    how many other draws happened first."""
    plan = FaultPlan(worker_kill_rate=0.4, shard_stall_rate=0.4)
    forward = FaultInjector(plan, seed=11)
    backward = FaultInjector(plan, seed=11)
    shards = list(range(30))
    verdicts_fwd = [forward.worker_kill_fault(s) for s in shards]
    # Interleave other channels and reverse the order on the second
    # injector; per-shard verdicts must not move.
    verdicts_bwd = []
    for s in reversed(shards):
        backward.shard_stall_fault(s)
        verdicts_bwd.append(backward.worker_kill_fault(s))
    assert verdicts_bwd[::-1] == verdicts_fwd
    assert any(verdicts_fwd) and not all(verdicts_fwd)


def test_retried_shard_draws_a_fresh_kill_verdict():
    """The scheduler re-scopes its injector per dispatch round, so a
    shard killed in round 0 draws a fresh verdict in round 1 and a
    sub-1.0 kill rate cannot loop a shard forever."""
    scheduler = ElasticScheduler(
        faults=FaultInjector(FaultPlan(worker_kill_rate=0.5), seed=1),
    )
    rounds = [scheduler._round_faults(number) for number in range(4)]
    verdicts = [
        [injector.worker_kill_fault(shard) for injector in rounds]
        for shard in range(20)
    ]
    assert any(row[0] and not row[1] for row in verdicts)


# ---------------------------------------------------- network channels


def test_channel_family_constants_pin_the_exclusion_sets():
    """The opt-in fault families, pinned so a new channel must be
    classified deliberately: executor channels stress the harness,
    network channels stress the serve client/service wire, fleet
    channels reshape stream-mode fleet membership."""
    assert FaultPlan.EXECUTOR_CHANNELS == (
        "worker_kill_rate", "shard_stall_rate", "torn_write_rate",
    )
    assert FaultPlan.NETWORK_CHANNELS == (
        "request_drop_rate", "request_delay_rate",
        "connection_reset_rate", "response_corrupt_rate",
    )
    assert FaultPlan.FLEET_CHANNELS == ("device_churn_rate",)


def test_uniform_plan_keeps_network_channels_off():
    """FaultPlan.uniform scales the runtime monitoring surface; the
    network channels belong to a plan handed to the serve client and
    must stay opt-in — a chaos sweep at rate r must not also drop its
    own crowd uploads."""
    plan = FaultPlan.uniform(0.9)
    for name in (FaultPlan.NETWORK_CHANNELS + FaultPlan.EXECUTOR_CHANNELS
                 + FaultPlan.FLEET_CHANNELS):
        assert getattr(plan, name) == 0.0, name


def test_network_channels_validate_like_the_rest():
    with pytest.raises(ValueError, match="request_drop_rate"):
        FaultPlan(request_drop_rate=1.5).validate()
    with pytest.raises(ValueError, match="response_corrupt_rate"):
        FaultPlan(response_corrupt_rate=-0.2).validate()
    with pytest.raises(ValueError, match="request_delay_ms"):
        FaultPlan(request_delay_ms=0.0).validate()


def test_network_channels_never_draw_at_rate_zero():
    injector = FaultInjector(FaultPlan(), seed=0)
    for attempt in range(5):
        assert not injector.request_drop_fault("b", attempt)
        assert injector.request_delay_fault("b", attempt) == 0.0
        assert not injector.connection_reset_fault("b", attempt)
        assert injector.corrupt_response("text", "b", attempt) == "text"
    assert injector.draws == {}


def test_network_verdicts_keyed_by_batch_and_attempt():
    """(batch_id, attempt) fully determines each verdict — independent
    of concurrency, upload order, or other channels' draws — so a
    fleet's injected fault sequence reproduces at any client count."""
    plan = FaultPlan(request_drop_rate=0.4, connection_reset_rate=0.4)
    forward = FaultInjector(plan, seed=9, scope=("serve-net",))
    backward = FaultInjector(plan, seed=9, scope=("serve-net",))
    keys = [(f"app/dev{i}/round0", a) for i in range(10) for a in range(3)]
    fwd = [forward.request_drop_fault(k, a) for k, a in keys]
    bwd = []
    for k, a in reversed(keys):
        backward.connection_reset_fault(k, a)  # interleaved other channel
        bwd.append(backward.request_drop_fault(k, a))
    assert bwd[::-1] == fwd
    assert any(fwd) and not all(fwd)
    # Attempts re-key: a batch's verdicts vary across attempts, so a
    # dropped first attempt is not a pinned-forever verdict.
    drops = FaultInjector(FaultPlan(request_drop_rate=0.6), seed=2)
    verdicts = [[drops.request_drop_fault(f"b{i}", a) for a in range(6)]
                for i in range(10)]
    assert any(True in row and False in row for row in verdicts)


def test_corrupt_response_truncates_when_tripped():
    injector = FaultInjector(FaultPlan(response_corrupt_rate=1.0), seed=0)
    text = "HTTP/1.1 200 OK\r\n\r\n{}"
    garbled = injector.corrupt_response(text, "b", 1)
    assert garbled == text[:len(text) // 2]


def test_request_delay_returns_plan_milliseconds():
    plan = FaultPlan(request_delay_rate=1.0, request_delay_ms=40.0)
    injector = FaultInjector(plan, seed=0)
    assert injector.request_delay_fault("b", 1) == 40.0


# ------------------------------------------------------ fleet channels


def test_device_churn_verdicts_keyed_by_event():
    """(kind, round, slot) fully determines each churn verdict —
    independent of draw order or other channels — so stream-mode fleet
    membership is a pure function of (seed, churn rate) and survives
    any worker count or executor-failure schedule."""
    plan = FaultPlan(device_churn_rate=0.4, worker_kill_rate=0.4)
    forward = FaultInjector(plan, seed=13, scope=("stream-churn",))
    backward = FaultInjector(plan, seed=13, scope=("stream-churn",))
    events = [(kind, r, s) for kind in ("join", "leave")
              for r in range(6) for s in range(5)]
    fwd = [forward.device_churn_fault(*event) for event in events]
    bwd = []
    for event in reversed(events):
        backward.worker_kill_fault(event[1])  # interleaved channel
        bwd.append(backward.device_churn_fault(*event))
    assert bwd[::-1] == fwd
    assert any(fwd) and not all(fwd)
    # Join and leave draw from distinct keys: the same (round, slot)
    # can join without also leaving.
    joins = [forward.device_churn_fault("join", r, s)
             for r in range(6) for s in range(5)]
    leaves = [forward.device_churn_fault("leave", r, s)
              for r in range(6) for s in range(5)]
    assert joins != leaves


def test_device_churn_never_draws_at_rate_zero():
    injector = FaultInjector(FaultPlan(), seed=0)
    for r in range(4):
        assert not injector.device_churn_fault("join", r, 0)
        assert not injector.device_churn_fault("leave", r, 0)
    assert injector.draws == {}


def test_device_churn_rate_validates_like_the_rest():
    with pytest.raises(ValueError, match="device_churn_rate"):
        FaultPlan(device_churn_rate=1.2).validate()
    with pytest.raises(ValueError, match="device_churn_rate"):
        FaultPlan(device_churn_rate=-0.1).validate()
