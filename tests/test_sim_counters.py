"""Tests for repro.sim.counters (the 46-event model)."""

import dataclasses

import numpy as np
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
from repro.sim.device import LG_V10
from repro.sim.timeline import MAIN_THREAD, RENDER_THREAD
from tests.test_columnar import RecordingRng

NEUTRAL_UARCH = {"ipc": 1.0, "cache": 1.0, "branch": 1.0, "tlb": 1.0,
                 "mem": 1.0}


def counts_for(kind=ApiKind.BLOCKING, thread=MAIN_THREAD, wall=300.0,
               cpu=180.0, pages=900, key="x"):
    model = CounterModel(LG_V10)
    rng = stream("counter-test", key)
    return model.segment_counts(
        kind=kind, thread=thread, wall_ms=wall, cpu_ms=cpu, pages=pages,
        uarch=NEUTRAL_UARCH, rng=rng,
    )


def test_event_universe_has_46_events():
    assert len(ALL_EVENTS) == 46
    assert len(set(ALL_EVENTS)) == 46


def test_kernel_and_pmu_partition():
    assert set(KERNEL_EVENTS).isdisjoint(PMU_EVENTS)
    assert set(KERNEL_EVENTS) | set(PMU_EVENTS) == set(ALL_EVENTS)


def test_filter_events_are_kernel_events():
    assert set(FILTER_EVENTS) <= set(KERNEL_EVENTS)


def test_all_events_present_in_counts():
    counts = counts_for()
    assert set(counts) == set(ALL_EVENTS)


def test_counts_non_negative():
    counts = counts_for()
    assert all(value >= 0.0 for value in counts.values())


def test_task_clock_is_nanoseconds_of_cpu():
    counts = counts_for(cpu=180.0)
    assert counts["task-clock"] == pytest.approx(180.0 * 1e6, rel=0.15)


def test_cpu_clock_tracks_task_clock():
    counts = counts_for()
    assert counts["cpu-clock"] == pytest.approx(counts["task-clock"],
                                                rel=0.1)


def test_minor_major_sum_to_page_faults():
    counts = counts_for()
    assert counts["minor-faults"] + counts["major-faults"] == (
        counts["page-faults"]
    )


def test_zero_cpu_zero_cycles():
    counts = counts_for(cpu=0.0, pages=0)
    assert counts["cpu-cycles"] == 0.0
    assert counts["instructions"] == 0.0
    assert counts["task-clock"] == 0.0


def test_cpu_clamped_to_wall():
    counts = counts_for(wall=100.0, cpu=500.0)
    assert counts["task-clock"] <= 100.0 * 1e6 * 1.3


def test_instructions_scale_with_ipc_multiplier():
    fast = dict(NEUTRAL_UARCH, ipc=3.0)
    model = CounterModel(LG_V10)
    base = model.segment_counts(
        kind=ApiKind.COMPUTE, thread=MAIN_THREAD, wall_ms=200, cpu_ms=200,
        pages=10, uarch=NEUTRAL_UARCH, rng=stream("c", 1),
    )
    boosted = model.segment_counts(
        kind=ApiKind.COMPUTE, thread=MAIN_THREAD, wall_ms=200, cpu_ms=200,
        pages=10, uarch=fast, rng=stream("c", 1),
    )
    assert boosted["instructions"] > 2.0 * base["instructions"]


def test_cache_misses_scale_with_cache_multiplier():
    leaky = dict(NEUTRAL_UARCH, cache=4.0)
    model = CounterModel(LG_V10)
    base = model.segment_counts(
        kind=ApiKind.COMPUTE, thread=MAIN_THREAD, wall_ms=200, cpu_ms=200,
        pages=10, uarch=NEUTRAL_UARCH, rng=stream("c", 2),
    )
    worse = model.segment_counts(
        kind=ApiKind.COMPUTE, thread=MAIN_THREAD, wall_ms=200, cpu_ms=200,
        pages=10, uarch=leaky, rng=stream("c", 2),
    )
    assert worse["cache-misses"] > 2.0 * base["cache-misses"]


def test_blocking_main_thread_switches_exceed_starved_render():
    """The paper's core contrast: a blocked main thread switches a lot;
    a starved render thread barely runs."""
    main = counts_for(kind=ApiKind.BLOCKING, thread=MAIN_THREAD,
                      wall=400, cpu=220, key="m")
    render = counts_for(kind=ApiKind.UI, thread=RENDER_THREAD,
                        wall=400, cpu=8, pages=5, key="r")
    assert main["context-switches"] > 4 * max(render["context-switches"], 1)


def test_busy_render_thread_switches_a_lot():
    render = counts_for(kind=ApiKind.UI, thread=RENDER_THREAD,
                        wall=400, cpu=240, pages=200, key="r2")
    assert render["context-switches"] > 30


def test_wait_chunk_override_reduces_switches():
    model = CounterModel(LG_V10)
    normal = model.segment_counts(
        kind=ApiKind.BLOCKING, thread=MAIN_THREAD, wall_ms=400, cpu_ms=80,
        pages=100, uarch=NEUTRAL_UARCH, rng=stream("c", 3),
    )
    chunky = model.segment_counts(
        kind=ApiKind.BLOCKING, thread=MAIN_THREAD, wall_ms=400, cpu_ms=80,
        pages=100, uarch=NEUTRAL_UARCH, rng=stream("c", 3),
        wait_chunk_override=250.0,
    )
    assert chunky["context-switches"] < normal["context-switches"] / 3


def test_cycles_noisier_than_task_clock():
    """DVFS decorrelates cycle counts from CPU time."""
    ratios = []
    for index in range(100):
        counts = counts_for(key=f"dvfs-{index}")
        ratios.append(counts["cpu-cycles"] / counts["task-clock"])
    assert np.std(np.log(ratios)) > 0.2


class SizedRecordingRng(RecordingRng):
    """A :class:`RecordingRng` that also records how many values each
    ``standard_normal`` call draws."""

    def __init__(self, rng):
        super().__init__(rng)
        self.normal_sizes = []

    def standard_normal(self, *args, **kwargs):
        self.calls.append("standard_normal")
        normals = self._rng.standard_normal(*args, **kwargs)
        self.normal_sizes.append(np.size(normals))
        return normals


def draw_layout(model, cpu=180.0, uarch=NEUTRAL_UARCH, dvfs=1.3):
    spy = SizedRecordingRng(stream("draw-layout", cpu, dvfs))
    model.segment_counts(
        kind=ApiKind.BLOCKING, thread=MAIN_THREAD, wall_ms=300.0,
        cpu_ms=cpu, pages=900, uarch=uarch, rng=spy, dvfs=dvfs,
    )
    return spy


@pytest.mark.parametrize("dvfs,normals", [(1.3, 39), (None, 40)])
def test_kernel_projection_draws_one_normal_vector(dvfs, normals):
    """After its switch, fault and migration draws, a kernel-only
    projection draws the two clock jitters, the DVFS fallback and the
    37 PMU factors as one standard-normal vector: its only lognormal is
    the migration factor."""
    spy = draw_layout(CounterModel(LG_V10, monitored=FILTER_EVENTS),
                      dvfs=dvfs)
    assert spy.calls == [
        "poisson", "poisson",  # involuntary, voluntary switches
        "poisson", "beta", "binomial",  # page faults, major split
        "lognormal", "binomial",  # migrations
        "standard_normal",
    ]
    assert spy.normal_sizes == [normals]
    assert spy.lognormal_sigmas == [0.6]


@pytest.mark.parametrize("shape", [
    dict(cpu=0.0),
    dict(uarch=dict(NEUTRAL_UARCH, mem=0.0)),
    dict(dvfs=0.0),
])
def test_kernel_projection_without_a_positive_pmu_block_draws_scalars(shape):
    """A segment with no CPU time, a non-positive multiplier or a zero
    DVFS factor takes the full model's guarded scalar draws."""
    spy = draw_layout(CounterModel(LG_V10, monitored=FILTER_EVENTS),
                      **shape)
    assert "standard_normal" not in spy.calls
    full = draw_layout(CounterModel(LG_V10), **shape)
    assert spy.calls == full.calls
    assert spy.lognormal_sigmas == full.lognormal_sigmas


def test_kernel_projection_matches_full_model_on_an_underflowing_base():
    """On a 1 kHz device a subnormal CPU time gives a subnormal cycle
    base, which a drawn DVFS factor below 0.5 rounds to zero: the full
    model then draws no PMU factor, and the projection must not draw
    its vector either."""
    device = dataclasses.replace(LG_V10, cpu_freq_ghz=1e-6)
    full = CounterModel(device)
    projected = CounterModel(device, monitored=FILTER_EVENTS)
    for index in range(40):
        whole_rng = stream("underflow", index)
        kept_rng = stream("underflow", index)
        shape = dict(kind=ApiKind.BLOCKING, thread=MAIN_THREAD,
                     wall_ms=300.0, cpu_ms=5e-324, pages=900,
                     uarch=NEUTRAL_UARCH)
        whole = full.segment_counts(rng=whole_rng, **shape)
        kept = projected.segment_counts(rng=kept_rng, **shape)
        assert kept == {event: whole[event] for event in FILTER_EVENTS}
        assert (kept_rng.bit_generator.state
                == whole_rng.bit_generator.state), index
