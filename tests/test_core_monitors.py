"""Tests for the performance-event monitor and the app injector."""

import pytest

from repro.core.config import HangDoctorConfig
from repro.core.event_monitor import PerformanceEventMonitor
from repro.core.injector import AppInjector


# --- PerformanceEventMonitor ------------------------------------------------


def test_event_monitor_reads_differences(engine, k9):
    config = HangDoctorConfig()
    monitor = PerformanceEventMonitor(engine.device, config.filter_events())
    execution = engine.run_action(k9, k9.action("folders"))
    values = monitor.read_differences(execution)
    assert set(values) == set(config.filter_events())
    for event in config.filter_events():
        expected = execution.counter_difference(
            event, execution.start_ms, execution.end_ms
        )
        assert values[event] == pytest.approx(expected)


def test_event_monitor_accumulates_cost(engine, k9):
    monitor = PerformanceEventMonitor(engine.device, ("task-clock",))
    execution = engine.run_action(k9, k9.action("folders"))
    monitor.read_differences(execution)
    assert monitor.reads == 1
    assert monitor.monitored_ms == pytest.approx(
        execution.end_ms - execution.start_ms
    )


# --- AppInjector -------------------------------------------------------------


def test_injector_assigns_sequential_uids(k9):
    injector = AppInjector(k9)
    uids = [row.uid for row in injector.rows()]
    assert uids == list(range(1, len(k9.actions) + 1))


def test_injector_lookup_roundtrip(k9):
    injector = AppInjector(k9)
    for action in k9.actions:
        uid = injector.uid_of(action.name)
        assert injector.action_name(uid) == action.name


def test_injector_unknown_action(k9):
    with pytest.raises(KeyError):
        AppInjector(k9).uid_of("missing")


def test_injector_len(k9):
    assert len(AppInjector(k9)) == len(k9.actions)
