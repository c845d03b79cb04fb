"""Tests for repro.sim.timeline (segments and counter queries)."""

import pytest

from repro.base.frames import Frame
from repro.sim.timeline import MAIN_THREAD, RENDER_THREAD, Segment, Timeline


def seg(thread=MAIN_THREAD, start=0.0, end=100.0, counts=None, frames=(),
        cpu=0.0):
    return Segment(
        thread=thread, start_ms=start, end_ms=end,
        counts=counts or {}, frames=frames, cpu_ms=cpu,
    )


def test_segment_rejects_negative_duration():
    with pytest.raises(ValueError):
        seg(start=10.0, end=5.0)


def test_duration():
    assert seg(start=5.0, end=25.0).duration_ms == 20.0


def test_overlap_fraction_full():
    assert seg(start=0, end=100).overlap_fraction(0, 100) == 1.0


def test_overlap_fraction_partial():
    assert seg(start=0, end=100).overlap_fraction(25, 75) == pytest.approx(0.5)


def test_overlap_fraction_disjoint():
    assert seg(start=0, end=100).overlap_fraction(200, 300) == 0.0


def test_count_in_prorates():
    segment = seg(counts={"page-faults": 40.0})
    assert segment.count_in("page-faults", 0, 50) == pytest.approx(20.0)


def test_total_full_window_is_exact():
    timeline = Timeline()
    timeline.add(seg(start=0, end=100, counts={"x": 3.0}))
    timeline.add(seg(start=100, end=200, counts={"x": 5.0}))
    assert timeline.total(MAIN_THREAD, "x") == pytest.approx(8.0)


def test_total_window_prorates_across_segments():
    timeline = Timeline()
    timeline.add(seg(start=0, end=100, counts={"x": 10.0}))
    timeline.add(seg(start=100, end=200, counts={"x": 10.0}))
    assert timeline.total(MAIN_THREAD, "x", 50, 150) == pytest.approx(10.0)


def test_total_unknown_thread_is_zero():
    assert Timeline().total("nonexistent", "x") == 0.0


def test_difference():
    timeline = Timeline()
    timeline.add(seg(thread=MAIN_THREAD, counts={"x": 10.0}))
    timeline.add(seg(thread=RENDER_THREAD, counts={"x": 4.0}))
    assert timeline.difference("x", MAIN_THREAD, RENDER_THREAD) == 6.0


def test_out_of_order_add_rejected():
    timeline = Timeline()
    timeline.add(seg(start=100, end=200))
    with pytest.raises(ValueError):
        timeline.add(seg(start=50, end=80))


def test_threads_listing():
    timeline = Timeline()
    timeline.add(seg(thread=RENDER_THREAD))
    timeline.add(seg(thread=MAIN_THREAD))
    assert timeline.threads() == [MAIN_THREAD, RENDER_THREAD]


def test_start_end_bounds():
    timeline = Timeline()
    timeline.add(seg(thread=MAIN_THREAD, start=10, end=50))
    timeline.add(seg(thread=RENDER_THREAD, start=5, end=80))
    assert timeline.start_ms == 5
    assert timeline.end_ms == 80


def test_empty_timeline_bounds():
    timeline = Timeline()
    assert timeline.start_ms == 0.0
    assert timeline.end_ms == 0.0


def test_stack_at_active_segment():
    frame = Frame("a.B", "m", "B.java", 1)
    timeline = Timeline()
    timeline.add(seg(start=0, end=100, frames=(frame,)))
    assert timeline.stack_at(MAIN_THREAD, 50.0) == (frame,)


def test_stack_at_idle_gap():
    timeline = Timeline()
    timeline.add(seg(start=0, end=100))
    assert timeline.stack_at(MAIN_THREAD, 150.0) == ()


def test_stack_at_boundary_is_half_open():
    frame = Frame("a.B", "m", "B.java", 1)
    timeline = Timeline()
    timeline.add(seg(start=0, end=100, frames=(frame,)))
    assert timeline.stack_at(MAIN_THREAD, 100.0) == ()
    assert timeline.stack_at(MAIN_THREAD, 0.0) == (frame,)


def test_stack_at_prefers_latest_started_overlapping_segment():
    outer = Frame("a.B", "outer", "B.java", 1)
    inner = Frame("a.B", "inner", "B.java", 2)
    timeline = Timeline()
    timeline.add(seg(start=0, end=200, frames=(outer,)))
    timeline.add(seg(start=50, end=100, frames=(inner,)))
    assert timeline.stack_at(MAIN_THREAD, 75.0) == (inner,)
    assert timeline.stack_at(MAIN_THREAD, 150.0) == (outer,)


def test_segment_at():
    timeline = Timeline()
    segment = timeline.add(seg(start=0, end=100))
    assert timeline.segment_at(MAIN_THREAD, 10.0) is segment
    assert timeline.segment_at(MAIN_THREAD, 150.0) is None


def test_cpu_ms_total_and_window():
    timeline = Timeline()
    timeline.add(seg(start=0, end=100, cpu=60.0))
    assert timeline.cpu_ms(MAIN_THREAD) == pytest.approx(60.0)
    assert timeline.cpu_ms(MAIN_THREAD, 0, 50) == pytest.approx(30.0)


def test_zero_duration_segment_counts():
    timeline = Timeline()
    timeline.add(seg(start=10, end=10, counts={"x": 5.0}))
    assert timeline.total(MAIN_THREAD, "x") == 5.0
