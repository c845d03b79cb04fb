"""Lazy-evaluation mode of the counter model.

A :class:`~repro.sim.counters.CounterModel` built with an *events*
restriction computes only the requested events: kernel-only sets skip
the PMU block (and its DVFS draw) outright, and a partial PMU set
computes just the dependency closure of the requested events with one
pooled factor draw.  These tests pin the contract: restricted keys,
strict validation, determinism per (seed, event set), and an engine
wired for filter-events-only monitoring still detecting hangs.
"""

import pytest

from repro.base.kinds import ApiKind
from repro.base.rng import stream
from repro.sim.counters import (
    ALL_EVENTS,
    CounterModel,
    FILTER_EVENTS,
    KERNEL_EVENTS,
    PMU_EVENTS,
)
from repro.sim.engine import ExecutionEngine
from repro.sim.timeline import MAIN_THREAD

NEUTRAL_UARCH = {"ipc": 1.0, "cache": 1.0, "branch": 1.0, "tlb": 1.0,
                 "mem": 1.0}


def _counts(device, events, key="lazy"):
    model = CounterModel(device, events=events)
    rng = stream("lazy-counter-test", key)
    return model.segment_counts(
        kind=ApiKind.BLOCKING, thread=MAIN_THREAD, wall_ms=300.0,
        cpu_ms=180.0, pages=900, uarch=NEUTRAL_UARCH, rng=rng,
    )


def test_default_model_returns_all_46_events(device):
    assert set(_counts(device, None)) == set(ALL_EVENTS)


def test_restricted_model_returns_exactly_requested_keys(device):
    counts = _counts(device, FILTER_EVENTS)
    assert tuple(counts) == FILTER_EVENTS
    single = _counts(device, ("instructions",))
    assert tuple(single) == ("instructions",)


def test_unknown_event_rejected_at_construction(device):
    with pytest.raises(ValueError, match="unknown performance events"):
        CounterModel(device, events=("context-switches", "no-such-event"))


def test_lazy_mode_deterministic_per_seed_and_event_set(device):
    assert _counts(device, FILTER_EVENTS, key="a") == \
        _counts(device, FILTER_EVENTS, key="a")
    assert _counts(device, FILTER_EVENTS, key="a") != \
        _counts(device, FILTER_EVENTS, key="b")


def test_kernel_values_match_full_model_draw_order(device):
    """The full-event draw order starts with the kernel block, so a
    model restricted to *all* kernel events reproduces the full
    model's kernel values exactly from the same rng state."""
    full = _counts(device, None, key="same")
    kernel = _counts(device, KERNEL_EVENTS, key="same")
    assert kernel == {event: full[event] for event in KERNEL_EVENTS}


def test_engine_with_filter_events_still_detects_hangs(device, k9):
    """A lazily-restricted engine is a different deterministic universe
    but a working one: soft hangs still occur, filter events carry
    real values, and unrequested PMU events read as zero everywhere."""
    engine = ExecutionEngine(device, seed=3, counter_events=FILTER_EVENTS)
    action = next(a for a in k9.actions if a.hang_bug_operations())
    saw_hang = False
    for _ in range(30):
        execution = engine.run_action(k9, action)
        if execution.has_soft_hang:
            saw_hang = True
            break
    assert saw_hang
    lo, hi = execution.start_ms, execution.end_ms
    assert execution.timeline.total(
        MAIN_THREAD, "context-switches", lo, hi) > 0
    for pmu_event in PMU_EVENTS[:3]:
        assert execution.timeline.total(MAIN_THREAD, pmu_event, lo, hi) == 0.0
