"""Simulator throughput micro-benchmarks.

Not a paper artifact: raw performance of the substrate, so regressions
in the engine's hot path (counter sampling, segment construction) show
up in CI.  The fleet experiments run hundreds of thousands of
operations; the engine needs to stay in the tens of microseconds per
operation.
"""

import pytest

from repro.apps.catalog import get_app
from repro.core.hang_doctor import HangDoctor
from repro.sim.engine import ExecutionEngine


def test_engine_action_throughput(benchmark, device):
    app = get_app("K9-mail")
    engine = ExecutionEngine(device, seed=1)
    action = app.action("open_email")
    result = benchmark(lambda: engine.run_action(app, action))
    assert result.events


def test_engine_session_throughput(benchmark, device):
    app = get_app("AndStatus")
    engine = ExecutionEngine(device, seed=1)
    names = [a.name for a in app.actions]
    result = benchmark(lambda: engine.run_session(app, names, gap_ms=100.0))
    assert len(result) == len(names)


def test_hang_doctor_processing_throughput(benchmark, device):
    app = get_app("K9-mail")
    engine = ExecutionEngine(device, seed=1)
    executions = engine.run_session(
        app, [a.name for a in app.actions] * 4, gap_ms=100.0
    )

    def process_all():
        doctor = HangDoctor(app, device, seed=1)
        for execution in executions:
            doctor.process(execution)
        return doctor

    doctor = benchmark(process_all)
    assert doctor.report is not None


def test_counter_model_throughput(benchmark, device):
    from repro.base.kinds import ApiKind
    from repro.base.rng import stream
    from repro.sim.counters import CounterModel

    model = CounterModel(device)
    uarch = {"ipc": 1.0, "cache": 1.0, "branch": 1.0, "tlb": 1.0,
             "mem": 1.0}
    rng = stream("perf", 1)
    counts = benchmark(
        lambda: model.segment_counts(
            kind=ApiKind.BLOCKING, thread="main", wall_ms=300.0,
            cpu_ms=180.0, pages=900, uarch=uarch, rng=rng,
        )
    )
    assert len(counts) == 46


def test_counter_model_filter_only_throughput(benchmark, device):
    """The lazy fast path: only S-Checker's three filter events."""
    from repro.base.kinds import ApiKind
    from repro.base.rng import stream
    from repro.sim.counters import FILTER_EVENTS, CounterModel

    model = CounterModel(device, events=FILTER_EVENTS)
    uarch = {"ipc": 1.0, "cache": 1.0, "branch": 1.0, "tlb": 1.0,
             "mem": 1.0}
    rng = stream("perf", 2)
    counts = benchmark(
        lambda: model.segment_counts(
            kind=ApiKind.BLOCKING, thread="main", wall_ms=300.0,
            cpu_ms=180.0, pages=900, uarch=uarch, rng=rng,
        )
    )
    assert tuple(counts) == FILTER_EVENTS


def test_counter_model_lazy_speedup(device, bench_record):
    """Filter-events-only sampling must be at least 3x faster than the
    full 46-event model.  Timed with min-of-repeats so one scheduler
    hiccup on a loaded CI box cannot fail the assertion."""
    import time

    from repro.base.kinds import ApiKind
    from repro.base.rng import stream
    from repro.sim.counters import FILTER_EVENTS, CounterModel

    uarch = {"ipc": 1.0, "cache": 1.0, "branch": 1.0, "tlb": 1.0,
             "mem": 1.0}

    def best_time(model, n=3000, reps=3):
        best = float("inf")
        for rep in range(reps):
            rng = stream("perf-speedup", rep)
            started = time.perf_counter()
            for _ in range(n):
                model.segment_counts(
                    kind=ApiKind.BLOCKING, thread="main", wall_ms=300.0,
                    cpu_ms=180.0, pages=900, uarch=uarch, rng=rng,
                )
            best = min(best, time.perf_counter() - started)
        return best

    full = best_time(CounterModel(device))
    lazy = best_time(CounterModel(device, events=FILTER_EVENTS))
    speedup = full / lazy
    bench_record(
        "engine", "counter_model.lazy_speedup_x", speedup,
        unit="x", higher_is_better=True, tolerance=0.25,
    )
    assert speedup >= 3.0, (
        f"lazy counter mode only {speedup:.2f}x faster than full mode"
    )


def _best_pair_ms(device, baseline, candidate, actions=200, reps=7):
    """Best-of-repeats wall time per run_action for two engine
    configurations (``ExecutionEngine`` keyword dicts), in
    milliseconds: ``(baseline_ms, candidate_ms)``.

    A fresh engine per repeat so caches warm identically every time;
    the two configurations alternate within each repeat so load spikes
    on a busy CI box hit both sides of the ratio, and min-of-repeats
    drops any repeat that was hit anyway.
    """
    import time

    app = get_app("K9-mail")
    plan = [app.actions[i % len(app.actions)] for i in range(actions)]
    configs = (baseline, candidate)
    best = [float("inf")] * len(configs)
    for _ in range(reps):
        for index, kwargs in enumerate(configs):
            engine = ExecutionEngine(device, seed=7, **kwargs)
            started = time.perf_counter()
            for action in plan:
                engine.run_action(app, action)
            best[index] = min(best[index], time.perf_counter() - started)
    scale = 1000.0 / actions
    return best[0] * scale, best[1] * scale


def test_engine_columnar_full_mode_speedup(device, bench_record):
    """End-to-end full-mode (all 46 events) speedup of the columnar
    core over the seed-shaped reference path.  The two paths render
    byte-identical output (tests/test_columnar.py), so this ratio is a
    pure measure of the batched segment construction."""
    reference, columnar = _best_pair_ms(device, {"columnar": False}, {})
    speedup = reference / columnar
    bench_record(
        "engine", "full_mode.reference_ms_per_action", reference,
        unit="ms", higher_is_better=False, tolerance=None,
    )
    bench_record(
        "engine", "full_mode.columnar_ms_per_action", columnar,
        unit="ms", higher_is_better=False, tolerance=None,
    )
    bench_record(
        "engine", "full_mode.speedup_x", speedup,
        unit="x", higher_is_better=True, tolerance=0.25,
    )
    assert speedup >= 1.5, (
        f"columnar full mode only {speedup:.2f}x faster than reference"
    )


def test_engine_projected_speedup(device, bench_record):
    """End-to-end speedup of the deployment engines' projection
    (``monitored=FILTER_EVENTS``: full-mode draws, three stored events)
    over the full engine.  Both render the same kept values
    (tests/test_projection.py), so this ratio is a pure measure of the
    PMU arithmetic and the 43 per-segment values no longer built."""
    from repro.sim.counters import FILTER_EVENTS

    full, projected = _best_pair_ms(
        device, {}, {"monitored": FILTER_EVENTS}
    )
    speedup = full / projected
    bench_record(
        "engine", "projected.ms_per_action", projected,
        unit="ms", higher_is_better=False, tolerance=None,
    )
    bench_record(
        "engine", "projected.speedup_x", speedup,
        unit="x", higher_is_better=True, tolerance=0.25,
    )
    assert speedup >= 1.4, (
        f"projected engine only {speedup:.2f}x faster than full mode"
    )


def test_engine_columnar_filter_only_speedup(device, bench_record):
    """End-to-end filter-only (lazy, S-Checker's three events) speedup
    of the columnar core over the seed-shaped reference path — the
    fleet's hot configuration."""
    from repro.sim.counters import FILTER_EVENTS

    reference, columnar = _best_pair_ms(
        device,
        {"counter_events": FILTER_EVENTS, "columnar": False},
        {"counter_events": FILTER_EVENTS},
    )
    speedup = reference / columnar
    bench_record(
        "engine", "filter_only.reference_ms_per_action", reference,
        unit="ms", higher_is_better=False, tolerance=None,
    )
    bench_record(
        "engine", "filter_only.columnar_ms_per_action", columnar,
        unit="ms", higher_is_better=False, tolerance=None,
    )
    bench_record(
        "engine", "filter_only.speedup_x", speedup,
        unit="x", higher_is_better=True, tolerance=0.25,
    )
    assert speedup >= 3.0, (
        f"columnar filter-only mode only {speedup:.2f}x faster than reference"
    )
