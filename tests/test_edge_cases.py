"""Remaining edge-case coverage across modules."""

import pytest

from repro.harness.exp_fleet import Table6Result, Table6Row
from repro.harness.tables import render_table
from repro.sim.device import NEXUS_5
from repro.sim.pmu import PmuSampler
from repro.sim.timeline import MAIN_THREAD, Segment, Timeline


def test_table6_render_reports_undetected():
    result = Table6Result(
        rows=[Table6Row(app_name="X", new_bugs=1,
                        by_event={"context-switches": 0,
                                  "task-clock": 0, "page-faults": 0})],
        events=("context-switches", "task-clock", "page-faults"),
        undetected=["X/action:site"],
    )
    text = result.render()
    assert "not recognized" in text
    assert "X/action:site" in text


def test_render_table_handles_mixed_types():
    text = render_table(("a", "b"), [(1, "x"), (2.5, None)])
    assert "None" in text
    assert "2.5" in text


def test_render_table_zero_float():
    assert "0" in render_table(("v",), [(0.0,)])


def test_pmu_multiplexing_noise_grows_with_pressure():
    from repro.sim.counters import ALL_EVENTS, PMU_EVENTS

    timeline = Timeline()
    timeline.add(Segment(
        thread=MAIN_THREAD, start_ms=0, end_ms=100,
        counts={event: 1000.0 for event in ALL_EVENTS},
    ))
    # Nexus 5 has 4 registers: higher multiplexing factor than LG V10.
    tight = PmuSampler(NEXUS_5, ALL_EVENTS, seed=1)
    assert tight.multiplex_factor == pytest.approx(
        len(PMU_EVENTS) / NEXUS_5.pmu_registers
    )
    readings = [
        tight.read(timeline, MAIN_THREAD, "instructions")
        for _ in range(30)
    ]
    import numpy as np

    assert np.std(readings) > 0


def test_timeline_segments_all_threads_sorted():
    timeline = Timeline()
    timeline.add(Segment(thread="b", start_ms=10, end_ms=20))
    timeline.add(Segment(thread="a", start_ms=5, end_ms=15))
    merged = timeline.segments()
    starts = [segment.start_ms for segment in merged]
    assert starts == sorted(starts)


def test_monitoring_cost_defaults_zero():
    from repro.detectors.base import MonitoringCost

    cost = MonitoringCost()
    assert cost.rt_events == 0
    assert cost.trace_samples == 0


def test_state_short_labels_unique():
    from repro.core.states import ActionState

    labels = [state.short for state in ActionState]
    assert len(labels) == len(set(labels))


def test_corpus_generated_app_commit_is_hexish():
    from repro.apps.corpus import generate_clean_app

    app = generate_clean_app(3, seed=0)
    assert len(app.commit) == 7
    assert all(c in "0123456789abcdef" for c in app.commit)


def test_session_generator_weights_stable_per_app(k9, andstatus):
    from repro.apps.sessions import SessionGenerator

    generator = SessionGenerator(seed=1)
    first = generator.action_weights(k9)
    second = generator.action_weights(k9)
    assert (first == second).all()
    other = generator.action_weights(andstatus)
    assert len(other) == len(andstatus.actions)


def test_offline_detection_fields(k9):
    from repro.detectors.offline import OfflineScanner

    scanner = OfflineScanner()
    sticker_app = __import__(
        "repro.apps.catalog", fromlist=["get_app"]
    ).get_app("StickerCamera")
    detection = scanner.scan_app(sticker_app)[0]
    assert detection.app_name == "StickerCamera"
    assert ":" in detection.site_id


def test_watchdog_schedule_survives_session_gaps(device, k9):
    from repro.detectors.watchdog import WatchdogDetector
    from repro.sim.engine import ExecutionEngine

    engine = ExecutionEngine(device, seed=2)
    detector = WatchdogDetector(k9, block_threshold_ms=100.0,
                                interval_ms=300.0)
    executions = engine.run_session(k9, ["folders"] * 3, gap_ms=5000.0)
    for execution in executions:
        detector.process(execution)
    # The next ping is always in the future relative to processed work.
    assert detector._next_ping_ms >= executions[-1].start_ms
