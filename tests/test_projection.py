"""The *monitored* projection of the full counter universe.

An engine or counter model built with ``monitored=...`` makes every
full-mode draw in full-mode order but stores only the monitored
events.  A projection is therefore not a universe: every kept value,
every timing and every frame is bit-identical to the full model's, and
the rng leaves each call in the same state.  These tests pin that
contract at the engine level (catalog and generated apps, down to
Hang Doctor's detections) and at the counter-model level (the
bit-generator state after every call), plus the option's validation.
"""

import numpy as np
import pytest

from repro.apps import android_apis as apis
from repro.apps.app import AppSpec
from repro.apps.catalog import TABLE5_APPS
from repro.apps.catalog_helpers import action, op
from repro.apps.sessions import SessionGenerator
from repro.base.kinds import ApiKind
from repro.base.rng import stream
from repro.core.config import HangDoctorConfig
from repro.core.hang_doctor import HangDoctor
from repro.detectors.runner import run_detector
from repro.scenarios import generate_fleet
from repro.sim.counters import (
    FILTER_EVENTS,
    KERNEL_EVENTS,
    CounterModel,
)
from repro.sim.engine import NETWORK_BYTES_EVENT, ExecutionEngine
from repro.sim.timeline import MAIN_THREAD, RENDER_THREAD, WORKER_THREAD

NEUTRAL_UARCH = {"ipc": 1.0, "cache": 1.0, "branch": 1.0, "tlb": 1.0,
                 "mem": 1.0}

#: Session length per app: long enough that every app below hangs.
ACTIONS_PER_SESSION = 16

_APPS = [(app.name, app) for app in TABLE5_APPS] + [
    (entry.app.name, entry.app) for entry in generate_fleet(8, seed=3)
]


def _session(app, seed):
    generator = SessionGenerator(seed=seed)
    return generator.user_session(
        app, user_id=0, actions_per_user=ACTIONS_PER_SESSION
    ).action_names


def _assert_projection_of(full, projected, monitored):
    """*projected* executions keep exactly the monitored subset of
    *full*'s counts, with every other observable field equal."""
    assert len(full) == len(projected)
    for whole, kept in zip(full, projected):
        assert whole.start_ms == kept.start_ms
        assert whole.end_ms == kept.end_ms
        assert whole.events == kept.events
        whole_segments = whole.timeline.segments()
        kept_segments = kept.timeline.segments()
        assert len(whole_segments) == len(kept_segments)
        for a, b in zip(whole_segments, kept_segments):
            assert (a.thread, a.start_ms, a.end_ms, a.frames, a.op,
                    a.cpu_ms) == (b.thread, b.start_ms, b.end_ms,
                                  b.frames, b.op, b.cpu_ms)
            assert a.counts.get(NETWORK_BYTES_EVENT) == b.counts.get(
                NETWORK_BYTES_EVENT
            )
            expected = {event: a.counts[event] for event in monitored}
            if NETWORK_BYTES_EVENT in a.counts:
                expected[NETWORK_BYTES_EVENT] = a.counts[NETWORK_BYTES_EVENT]
            assert b.counts == expected


@pytest.mark.parametrize("name,app", _APPS, ids=[name for name, _ in _APPS])
def test_projected_engine_matches_full_engine(device, name, app):
    """Same draws, fewer values: every kept count, boundary, frame and
    timing equals the full engine's, and Hang Doctor detects the same
    bugs from either timeline."""
    seed = sum(map(ord, name))
    names = _session(app, seed)
    full = ExecutionEngine(device, seed=seed).run_session(
        app, names, gap_ms=1000.0
    )
    projected = ExecutionEngine(
        device, seed=seed, monitored=FILTER_EVENTS
    ).run_session(app, names, gap_ms=1000.0)
    _assert_projection_of(full, projected, FILTER_EVENTS)
    assert any(execution.has_soft_hang for execution in full)

    runs = [
        run_detector(HangDoctor(app, device, seed=seed), executions)
        for executions in (full, projected)
    ]
    assert runs[0].detections == runs[1].detections
    assert runs[0].outcomes == runs[1].outcomes


def _network_app():
    fetch = action(
        "fetch_feed", "onClick",
        op(apis.HTTP_EXECUTE, "downloadFeed", "FeedService.java"),
        op(apis.SET_TEXT, "showFeed", "FeedActivity.java"),
    )
    return AppSpec(name="NetApp", package="com.netapp", category="News",
                   downloads=10, commit="abc", actions=(fetch,))


def test_projected_engine_keeps_network_bytes(device):
    """The footnote-2 pseudo-event rides along with the projection, and
    the network-aware S-Checker reads the same values from it."""
    app = _network_app()
    names = ["fetch_feed"] * ACTIONS_PER_SESSION
    full = ExecutionEngine(device, seed=5).run_session(app, names)
    projected = ExecutionEngine(
        device, seed=5, monitored=FILTER_EVENTS
    ).run_session(app, names)
    _assert_projection_of(full, projected, FILTER_EVENTS)
    assert any(
        NETWORK_BYTES_EVENT in segment.counts
        for execution in projected
        for segment in execution.timeline.segments(MAIN_THREAD)
    )

    config = HangDoctorConfig(network_threshold_bytes=1000.0)
    runs = [
        run_detector(HangDoctor(app, device, config=config, seed=5),
                     executions)
        for executions in (full, projected)
    ]
    assert runs[0].detections
    assert runs[0].outcomes == runs[1].outcomes


def _shapes(count=200):
    """Deterministic segment shapes spanning the model's branches:
    every kind and thread, zero CPU, zero pages, overrides, and both
    the engine-supplied and the fallback DVFS."""
    rng = np.random.default_rng(2018)
    kinds = list(ApiKind)
    threads = (MAIN_THREAD, RENDER_THREAD, WORKER_THREAD)
    shapes = []
    for index in range(count):
        wall = float(rng.uniform(0.1, 900.0))
        cpu = 0.0 if index % 17 == 0 else float(rng.uniform(0.0, wall * 1.2))
        pages = 0 if index % 13 == 0 else int(rng.integers(1, 3000))
        uarch = {
            key: float(rng.uniform(0.3, 2.5))
            for key in ("ipc", "cache", "branch", "tlb", "mem")
        }
        shapes.append(dict(
            kind=kinds[index % len(kinds)],
            thread=threads[index % len(threads)],
            wall_ms=wall, cpu_ms=cpu, pages=pages, uarch=uarch,
            wait_chunk_override=(
                float(rng.uniform(2.0, 40.0)) if index % 5 == 0 else None
            ),
            dvfs=None if index % 3 == 0 else float(rng.lognormal(0.0, 0.7)),
        ))
    # Zero uarch multipliers take the per-value _pmu_reference fallback.
    for key in ("ipc", "mem"):
        shapes.append(dict(
            kind=ApiKind.BLOCKING, thread=MAIN_THREAD, wall_ms=300.0,
            cpu_ms=180.0, pages=900, uarch=dict(NEUTRAL_UARCH, **{key: 0.0}),
            wait_chunk_override=None, dvfs=None,
        ))
    return shapes


@pytest.mark.parametrize("monitored", [
    FILTER_EVENTS,
    ("page-faults",),
    KERNEL_EVENTS,
    FILTER_EVENTS + ("cpu-cycles", "raw-bus-access"),
])
def test_projected_counter_model_matches_full_draw_for_draw(device,
                                                            monitored):
    """Per segment: the kept values equal the full model's, and the
    bit generator ends in the same state (so every later draw is the
    full model's too)."""
    full = CounterModel(device)
    projected = CounterModel(device, monitored=monitored)
    for index, shape in enumerate(_shapes()):
        whole_rng = stream("projection", index)
        kept_rng = stream("projection", index)
        whole = full.segment_counts(rng=whole_rng, **shape)
        kept = projected.segment_counts(rng=kept_rng, **shape)
        assert kept == {event: whole[event] for event in monitored}
        assert tuple(kept) == monitored
        assert (kept_rng.bit_generator.state
                == whole_rng.bit_generator.state), shape


def test_monitored_rejects_unknown_events(device):
    with pytest.raises(ValueError, match="unknown performance events"):
        CounterModel(device, monitored=("page-faults", "gpu-busy"))


def test_monitored_rejects_an_events_universe(device):
    with pytest.raises(ValueError, match="events="):
        CounterModel(device, events=FILTER_EVENTS, monitored=FILTER_EVENTS)
    with pytest.raises(ValueError, match="events="):
        ExecutionEngine(device, counter_events=FILTER_EVENTS,
                        monitored=FILTER_EVENTS)


def test_monitored_rejects_the_reference_path(device):
    with pytest.raises(ValueError, match="columnar=False"):
        CounterModel(device, columnar=False, monitored=FILTER_EVENTS)
    with pytest.raises(ValueError, match="columnar=False"):
        ExecutionEngine(device, columnar=False, monitored=FILTER_EVENTS)
