"""The columnar engine core and its two determinism contracts.

Full mode (``counter_events=None``) must stay *byte-identical* to the
seed's per-segment scalar implementation — the ``columnar=False``
reference path keeps that historical code, and these tests pin the
columnar path to it segment by segment and event by event.  Lazy mode
(a restricted event set) is a distinct deterministic universe: its
pooled draw layout is fixed per (seed, event set) and reproducible
run to run, but not sample-identical to the scalar path.
"""

import pytest

from repro.base.kinds import ApiKind
from repro.base.rng import stream
from repro.sim.counters import (
    ALL_EVENTS,
    CounterModel,
    DVFS_SIGMA,
    FILTER_EVENTS,
    KERNEL_EVENTS,
)
from repro.sim.engine import ActionExecution, ExecutionEngine
from repro.sim.timeline import MAIN_THREAD, Timeline

NEUTRAL_UARCH = {"ipc": 1.0, "cache": 1.0, "branch": 1.0, "tlb": 1.0,
                 "mem": 1.0}

#: (kind, thread, wall_ms, cpu_ms, pages, uarch, wait_chunk_override)
BATCH_ROWS = (
    (ApiKind.BLOCKING, MAIN_THREAD, 300.0, 180.0, 900, NEUTRAL_UARCH, None),
    (ApiKind.UI, MAIN_THREAD, 16.0, 9.0, 40, NEUTRAL_UARCH, None),
    (ApiKind.COMPUTE, "worker", 120.0, 110.0, 200, NEUTRAL_UARCH, 25.0),
    (ApiKind.LIGHT, "render", 5.0, 4.5, 2, NEUTRAL_UARCH, None),
)


class RecordingRng:
    """Delegating rng proxy that records which draw methods were hit.

    ``lognormal`` sigmas are recorded too: kernel events draw scalar
    sigmas (clock jitter, migration load factor), while the PMU block
    announces itself with the DVFS draw (``sigma=DVFS_SIGMA``) or a
    pooled array-sigma draw.
    """

    def __init__(self, rng):
        self._rng = rng
        self.calls = []
        self.lognormal_sigmas = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def wrapped(*args, **kwargs):
            self.calls.append(name)
            if name == "lognormal":
                sigma = kwargs.get("sigma", args[1] if len(args) > 1 else None)
                self.lognormal_sigmas.append(sigma)
            return method(*args, **kwargs)

        return wrapped

    def pmu_draws(self):
        """Lognormal draws attributable to DVFS or the PMU block."""
        return [
            sigma for sigma in self.lognormal_sigmas
            if not isinstance(sigma, float) or sigma == DVFS_SIGMA
        ]


def _snapshot(execution):
    """The observable surface of an execution, for equality checks."""
    return (
        execution.start_ms,
        execution.end_ms,
        execution.events,
        execution.timeline.segments(),
    )


def _run(device, *, seed, counter_events, columnar, app, count=5):
    engine = ExecutionEngine(
        device, seed=seed, counter_events=counter_events, columnar=columnar
    )
    actions = [app.actions[i % len(app.actions)] for i in range(count)]
    return [_snapshot(engine.run_action(app, action)) for action in actions]


def test_full_mode_columnar_matches_reference_bit_for_bit(device, k9):
    """The byte-identity contract: with all 46 events, the columnar
    engine replays the reference scalar draw order exactly — every
    segment field and every event timing is equal."""
    columnar = _run(device, seed=7, counter_events=None, columnar=True,
                    app=k9)
    reference = _run(device, seed=7, counter_events=None, columnar=False,
                     app=k9)
    assert columnar == reference


def test_lazy_engine_reproducible_per_seed_and_event_set(device, k9):
    """The pooled lazy universe: same (seed, event set) gives the same
    executions run to run; a different seed gives different ones."""
    first = _run(device, seed=11, counter_events=FILTER_EVENTS,
                 columnar=True, app=k9)
    second = _run(device, seed=11, counter_events=FILTER_EVENTS,
                  columnar=True, app=k9)
    other = _run(device, seed=12, counter_events=FILTER_EVENTS,
                 columnar=True, app=k9)
    assert first == second
    assert first != other


def test_segment_batch_reproducible_per_seed_and_event_set(device):
    def rows(events, key):
        model = CounterModel(device, events=events)
        return model.segment_batch(BATCH_ROWS, rng=stream("batch", key))

    assert rows(FILTER_EVENTS, "a") == rows(FILTER_EVENTS, "a")
    assert rows(FILTER_EVENTS, "a") != rows(FILTER_EVENTS, "b")


def test_segment_batch_rejects_full_model(device):
    model = CounterModel(device)
    with pytest.raises(ValueError, match="byte-identity|scalar draw order"):
        model.segment_batch(BATCH_ROWS, rng=stream("batch", 0))


@pytest.mark.parametrize("event", ALL_EVENTS)
def test_every_single_event_subset_returns_exactly_that_key(device, event):
    """Satellite guard: a model restricted to any one of the 46 events
    yields exactly that key, on both the scalar and the batch path."""
    model = CounterModel(device, events=(event,))
    counts = model.segment_counts(
        kind=ApiKind.BLOCKING, thread=MAIN_THREAD, wall_ms=300.0,
        cpu_ms=180.0, pages=900, uarch=NEUTRAL_UARCH,
        rng=stream("single", event),
    )
    assert tuple(counts) == (event,)
    rows = model.segment_batch(BATCH_ROWS, rng=stream("single", event))
    assert len(rows) == len(BATCH_ROWS)
    assert all(tuple(row) == (event,) for row in rows)


@pytest.mark.parametrize("events", [
    FILTER_EVENTS,
    KERNEL_EVENTS,
    ("context-switches",),
    ("page-faults", "minor-faults"),
])
def test_kernel_only_subsets_perform_no_pmu_draws(device, events):
    """The 37-event PMU block (and its DVFS lognormal) must not touch
    the rng when no PMU event is requested."""
    model = CounterModel(device, events=events)
    spy = RecordingRng(stream("no-pmu", str(events)))
    model.segment_counts(
        kind=ApiKind.BLOCKING, thread=MAIN_THREAD, wall_ms=300.0,
        cpu_ms=180.0, pages=900, uarch=NEUTRAL_UARCH, rng=spy,
    )
    model.segment_batch(BATCH_ROWS, rng=spy)
    assert spy.calls, "spy never saw a draw"
    assert spy.pmu_draws() == []


def test_pmu_subset_still_draws_dvfs(device):
    """Requesting even one PMU event re-enables the DVFS lognormal."""
    model = CounterModel(device, events=("instructions",))
    spy = RecordingRng(stream("yes-pmu", 0))
    model.segment_batch(BATCH_ROWS, rng=spy)
    assert spy.pmu_draws()


def test_fault_totals_only_skip_the_split_draws(device):
    """segment_counts follows segment_batch's rule: a model that wants
    only page-fault totals draws no beta and no binomial (the
    minor/major split); asking for minor faults brings both back."""

    def calls(events):
        spy = RecordingRng(stream("fault-split", str(events)))
        CounterModel(device, events=events).segment_counts(
            kind=ApiKind.BLOCKING, thread=MAIN_THREAD, wall_ms=300.0,
            cpu_ms=180.0, pages=900, uarch=NEUTRAL_UARCH, rng=spy,
        )
        return spy.calls

    totals_only = calls(FILTER_EVENTS)
    assert "poisson" in totals_only
    assert "beta" not in totals_only
    assert "binomial" not in totals_only
    split = calls(("page-faults", "minor-faults"))
    assert "beta" in split
    assert "binomial" in split


def test_action_execution_empty_event_list_response_time(device, k9):
    """Regression: an execution with no input events reports 0.0 ms
    instead of raising ``max() arg is an empty sequence``."""
    execution = ActionExecution(
        app=k9, action=k9.actions[0], start_ms=0.0, end_ms=0.0,
        events=(), timeline=Timeline(),
    )
    assert execution.response_time_ms == 0.0
    assert not execution.has_soft_hang
    assert execution.hang_events() == []
