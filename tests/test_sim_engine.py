"""Tests for repro.sim.engine (action execution)."""

import pytest

from repro.apps import android_apis as apis
from repro.apps.app import AppSpec
from repro.apps.catalog_helpers import action, op
from repro.base.rng import stream
from repro.sim.engine import ExecutionEngine, PERCEIVABLE_DELAY_MS
from repro.sim.timeline import MAIN_THREAD, RENDER_THREAD, WORKER_THREAD

from tests.helpers import run_until


def test_response_time_is_max_over_events(engine, k9):
    execution = engine.run_action(k9, k9.action("open_email"))
    assert execution.response_time_ms == pytest.approx(
        max(e.response_time_ms for e in execution.events)
    )


def test_events_execute_in_order(engine, k9):
    execution = engine.run_action(k9, k9.action("open_email"))
    finishes = [e.finish_ms for e in execution.events]
    dispatches = [e.dispatch_ms for e in execution.events]
    assert dispatches == sorted(dispatches)
    assert all(d >= f for d, f in zip(dispatches[1:], finishes[:-1]))


def test_action_end_after_last_event(engine, k9):
    execution = engine.run_action(k9, k9.action("open_email"))
    assert execution.end_ms > execution.events[-1].finish_ms


def test_main_thread_segments_cover_operations(engine, k9):
    execution = engine.run_action(k9, k9.action("folders"))
    segments = execution.timeline.segments(MAIN_THREAD)
    op_segments = [s for s in segments if s.op is not None]
    assert len(op_segments) == len(k9.action("folders").operations())


def test_ui_operations_feed_render_thread(engine, k9):
    execution = engine.run_action(k9, k9.action("folders"))
    assert execution.timeline.cpu_ms(RENDER_THREAD) > 0.0


def test_bug_hang_detected_in_ground_truth(engine, k9):
    execution = run_until(
        engine, k9, "open_email",
        lambda ex: ex.bug_caused_hang(),
    )
    sites = execution.hang_bug_sites()
    assert any("HtmlCleaner.clean" in site for site in sites)


def test_ui_hang_is_not_bug_caused(engine, k9):
    execution = run_until(
        engine, k9, "folders", lambda ex: ex.has_soft_hang
    )
    assert not execution.bug_caused_hang()
    assert execution.hang_bug_sites() == []


def test_repeated_executions_vary(engine, k9):
    first = engine.run_action(k9, k9.action("folders"))
    second = engine.run_action(k9, k9.action("folders"))
    assert first.response_time_ms != second.response_time_ms


def test_same_seed_same_results(device, k9):
    rts_a = [
        ExecutionEngine(device, seed=5).run_action(
            k9, k9.action("folders")
        ).response_time_ms
    ]
    rts_b = [
        ExecutionEngine(device, seed=5).run_action(
            k9, k9.action("folders")
        ).response_time_ms
    ]
    assert rts_a == rts_b


def test_worker_offload_removes_main_thread_time(device, camera_app):
    resume = camera_app.action("resume")
    fixed = camera_app.fixed()
    buggy_rt = ExecutionEngine(device, seed=9).run_action(
        camera_app, resume
    ).response_time_ms
    fixed_rt = ExecutionEngine(device, seed=9).run_action(
        fixed, fixed.action("resume")
    ).response_time_ms
    assert fixed_rt < buggy_rt / 2


def test_worker_offload_runs_on_worker_thread(device, camera_app):
    fixed = camera_app.fixed()
    execution = ExecutionEngine(device, seed=9).run_action(
        fixed, fixed.action("resume")
    )
    worker_segments = execution.timeline.segments(WORKER_THREAD)
    assert worker_segments
    assert any(
        s.op is not None and s.op.api.name == "open" for s in worker_segments
    )


def test_run_session_advances_clock(engine, k9):
    executions = engine.run_session(k9, ["folders", "inbox"], gap_ms=500.0)
    assert executions[1].start_ms >= executions[0].end_ms + 500.0


def test_counter_difference_matches_timeline(engine, k9):
    execution = engine.run_action(k9, k9.action("folders"))
    direct = execution.timeline.difference(
        "context-switches", MAIN_THREAD, RENDER_THREAD,
        execution.start_ms, execution.end_ms,
    )
    assert execution.counter_difference(
        "context-switches", execution.start_ms, execution.end_ms
    ) == pytest.approx(direct)


def test_ambient_activity_exists_after_action_end(engine, k9):
    execution = engine.run_action(k9, k9.action("folders"))
    assert execution.timeline.end_ms > execution.end_ms + 100.0


def test_ambient_not_in_action_counter_window(engine, k9):
    """S-Checker's window [start, end] excludes ambient segments."""
    execution = engine.run_action(k9, k9.action("folders"))
    within = execution.timeline.total(
        MAIN_THREAD, "task-clock", execution.start_ms, execution.end_ms
    )
    total = execution.timeline.total(MAIN_THREAD, "task-clock")
    assert total > within


def test_dominant_op_is_longest_main_op(engine, k9):
    execution = run_until(
        engine, k9, "open_email", lambda ex: ex.bug_caused_hang()
    )
    hang = [e for e in execution.events if e.is_soft_hang][0]
    dominant = hang.dominant_op()
    assert dominant.duration_ms == max(
        oe.duration_ms for oe in hang.op_executions
        if oe.thread == MAIN_THREAD
    )


def test_light_action_has_no_soft_hang(device):
    quick = action(
        "quick", "onClick",
        op(apis.LOG_D, "logTap", "Main.java"),
        op(apis.PUT_EXTRA, "fillIntent", "Main.java"),
    )
    app = AppSpec(name="Tiny", package="t.app", category="Tools",
                  downloads=1, commit="abc", actions=(quick,))
    engine = ExecutionEngine(device, seed=4)
    for _ in range(10):
        execution = engine.run_action(app, quick)
        assert not execution.has_soft_hang


def test_perceivable_delay_constant_is_100ms():
    assert PERCEIVABLE_DELAY_MS == 100.0


def test_queued_burst_fifo_order(engine, k9):
    records, _ = engine.run_queued_burst(
        k9, ["folders", "inbox", "compose"]
    )
    targets = [r.message.target.split("/")[0] for r in records]
    assert targets == sorted(targets, key=["folders", "inbox",
                                           "compose"].index)


def test_queued_burst_latency_accumulates(engine, k9):
    """A hang at the head of the queue delays every event behind it —
    the paper's core mechanism (§2.1)."""
    records, _ = engine.run_queued_burst(
        k9, ["open_email", "folders", "inbox"]
    )
    last = records[-1]
    earlier_work = sum(r.response_time_ms for r in records[:-1])
    assert last.latency_ms == pytest.approx(
        earlier_work + last.response_time_ms, rel=0.01
    )
    assert last.latency_ms > last.response_time_ms


def test_queued_burst_timeline_is_contiguous(engine, k9):
    records, timeline = engine.run_queued_burst(k9, ["folders", "inbox"])
    assert timeline.end_ms >= records[-1].finish_ms
