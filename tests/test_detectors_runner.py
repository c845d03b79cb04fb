"""Tests for repro.detectors.runner and the cost/outcome plumbing."""

import pytest

from repro.core.hang_doctor import HangDoctor
from repro.detectors.base import ActionOutcome, MonitoringCost
from repro.detectors.runner import run_detector, run_detectors
from repro.detectors.timeout import TimeoutDetector


def test_monitoring_cost_add():
    total = MonitoringCost()
    total.add(MonitoringCost(rt_events=2, trace_samples=10))
    total.add(MonitoringCost(rt_events=3, util_samples=5))
    assert total.rt_events == 5
    assert total.trace_samples == 10
    assert total.util_samples == 5


def test_action_outcome_traced_property():
    outcome = ActionOutcome()
    assert not outcome.traced
    outcome.trace_episodes.append((0.0, 100.0))
    assert outcome.traced


def test_run_detector_aligns_outcomes(engine, k9):
    executions = engine.run_session(k9, ["folders", "inbox"], gap_ms=500.0)
    run = run_detector(TimeoutDetector(k9), executions)
    assert len(run.outcomes) == len(run.executions) == 2


def test_run_detector_aggregates_cost(engine, k9):
    executions = engine.run_session(k9, ["folders"] * 3, gap_ms=500.0)
    run = run_detector(TimeoutDetector(k9), executions)
    assert run.cost.rt_events == sum(
        o.cost.rt_events for o in run.outcomes
    )


def test_run_detectors_same_executions(device, engine, k9):
    executions = engine.run_session(k9, ["open_email"] * 5, gap_ms=500.0)
    detectors = [TimeoutDetector(k9), HangDoctor(k9, device)]
    runs = run_detectors(detectors, executions)
    assert set(runs) == {"TI", "HD"}
    assert runs["TI"].executions is not None
    assert len(runs["TI"].executions) == len(runs["HD"].executions)


def test_ti_has_no_false_negatives(engine, k9):
    """TI traces every hang, so its traced-hang FN count is zero —
    the paper uses it as the normalization base for that reason."""
    executions = engine.run_session(
        k9, ["open_email", "folders"] * 10, gap_ms=500.0
    )
    run = run_detector(TimeoutDetector(k9), executions)
    assert run.confusion().fn == 0


def test_overhead_positive(engine, k9):
    executions = engine.run_session(k9, ["open_email"] * 5, gap_ms=500.0)
    run = run_detector(TimeoutDetector(k9), executions)
    result = run.overhead()
    assert result.cpu_percent > 0
    assert result.memory_percent > 0
    assert result.average_percent == pytest.approx(
        (result.cpu_percent + result.memory_percent) / 2
    )


def test_detections_flattened(engine, k9):
    executions = engine.run_session(k9, ["folders"] * 5, gap_ms=500.0)
    run = run_detector(TimeoutDetector(k9), executions)
    assert len(run.detections) == sum(
        len(o.detections) for o in run.outcomes
    )
