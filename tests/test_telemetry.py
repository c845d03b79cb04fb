"""The telemetry subsystem and its determinism guarantees.

The contract under test, straight from the observability docs: with no
session active every instrumented call is a zero-allocation no-op and
every output is byte-identical to an uninstrumented run; with a
session active the three deterministic exports (``trace.jsonl``,
``trace.json``, ``metrics.txt``) are byte-identical across repeat
runs, ``--workers`` counts, and kill-and-resume — only the advisory
channel may differ.
"""

import json

import pytest

from repro.core.hang_doctor import HangDoctor
from repro.checkpoint import ShardJournal, checkpointed_map, run_key
from repro.detectors.runner import run_detector
from repro.harness.exp_chaos import chaos_sweep
from repro.parallel import ExecutionReport, parallel_map
from repro.sched import ElasticScheduler
from repro.sim.engine import ExecutionEngine
from repro.telemetry import (
    EXPORT_FILENAMES,
    MetricsRegistry,
    NOOP,
    Session,
    ShardTelemetry,
    active,
    collect_shard,
    current,
    export_chrome_trace,
    export_jsonl,
    export_metrics_text,
    session,
    write_exports,
)


def _traced_square(x):
    """Module-level shard function (picklable) that records telemetry."""
    tel = current()
    with tel.track(f"sq/{x}"):
        tel.count("sq.calls")
        tel.record_span("sq.compute", float(x), float(x) + 1.0, x=x)
    return x * x


def _square(x):
    return x * x


def _dies_late(x):
    """Fail shards past the second — an interrupt mid-sweep."""
    if x >= 2:
        raise RuntimeError(f"interrupted at {x}")
    return _traced_square(x)


def _exports(active_session):
    """The deterministic-channel export bytes, as one tuple."""
    return (
        export_jsonl(active_session),
        export_chrome_trace(active_session),
        export_metrics_text(active_session),
    )


# ------------------------------------------------------------- no-op


def test_current_is_shared_noop_when_inactive():
    assert not active()
    assert current() is NOOP
    assert current().enabled is False


def test_noop_context_managers_are_cached_singletons():
    tel = current()
    assert tel.span("a", k=1) is tel.span("b")
    assert tel.track("x") is tel.track("y")
    with tel.track("t"):
        with tel.span("s"):
            tel.count("c")
            tel.event("e", time_ms=1.0)
            tel.record_span("r", 0.0, 1.0)
            tel.gauge_set("g", 1)
            tel.observe("h", 5.0)
            tel.advisory_event("a")


def test_noop_never_swallows_exceptions():
    with pytest.raises(ValueError, match="through"):
        with current().span("s"):
            raise ValueError("through")


# ----------------------------------------------------------- session


def test_session_activates_and_restores():
    with session() as outer:
        assert active()
        assert current() is outer
        with session() as inner:
            assert current() is inner
        assert current() is outer
    assert not active()


def test_record_span_uses_sim_clock_and_current_track():
    with session() as tel:
        with tel.track("fleet/K9-mail"):
            tel.record_span("sim.action.execute", 10.0, 25.5, hang=True)
    (record,) = tel.records
    assert record.kind == "span"
    assert record.track == "fleet/K9-mail"
    assert (record.start, record.end) == (10.0, 25.5)
    assert record.attrs == {"hang": True}


def test_tick_spans_nest_and_never_read_wall_time():
    with session() as tel:
        with tel.span("outer"):
            with tel.span("inner"):
                pass
    inner, outer = tel.records
    assert inner.name == "inner" and inner.depth == 1
    assert outer.name == "outer" and outer.depth == 0
    assert outer.start < inner.start < inner.end < outer.end
    assert outer.end == 4.0  # four boundaries, one tick each


def test_events_default_to_tick_clock():
    with session() as tel:
        tel.event("at", time_ms=12.5)
        tel.event("ticked")
    timed, ticked = tel.records
    assert timed.start == timed.end == 12.5
    assert ticked.start == ticked.end == 1.0


def test_seq_is_per_track():
    with session() as tel:
        tel.event("a")
        with tel.track("other"):
            tel.event("b")
        tel.event("c")
    seqs = {(r.track, r.name): r.seq for r in tel.records}
    assert seqs == {("main", "a"): 0, ("other", "b"): 0, ("main", "c"): 1}


# ----------------------------------------------------------- metrics


def test_metrics_counters_gauges_histograms():
    reg = MetricsRegistry()
    reg.count("a.b")
    reg.count("a.b", 4)
    reg.gauge_set("g", 1)
    reg.observe("h", 3.0, buckets=(1, 5))
    reg.observe("h", 100.0, buckets=(1, 5))
    assert reg.counter_value("a.b") == 5
    assert reg.counter_value("missing") == 0
    assert reg.gauge_value("g") == 1
    assert reg.gauge_value("unset", default=7.0) == 7.0
    assert reg.histogram_summary("h") == (2, 103.0)
    assert reg.histogram_summary("missing") == (0, 0.0)
    assert "h count=2 sum=103 le1=0 le5=1 inf=1" in reg.render_lines()


def test_metrics_merge_is_commutative_and_associative():
    def build(counts):
        reg = MetricsRegistry()
        for name, n in counts:
            reg.count(name, n)
            reg.observe("h", n)
            reg.gauge_set("flag", n % 2)
        return reg

    a = build([("x", 1), ("y", 2)])
    b = build([("x", 10)])
    c = build([("z", 5)])
    ab_c = build([])
    ab_c.merge_state(a.state())
    ab_c.merge_state(b.state())
    ab_c.merge_state(c.state())
    c_ba = build([])
    c_ba.merge_state(c.state())
    c_ba.merge_state(b.state())
    c_ba.merge_state(a.state())
    assert ab_c.render_lines() == c_ba.render_lines()
    assert ab_c.counter_value("x") == 11
    assert ab_c.gauge_value("flag") == 1  # max, not last-write


def test_metrics_merge_rejects_bucket_mismatch():
    a = MetricsRegistry()
    a.observe("h", 1.0, buckets=(1, 2))
    b = MetricsRegistry()
    b.observe("h", 1.0, buckets=(1, 5))
    with pytest.raises(ValueError, match="bucket"):
        a.merge_state(b.state())


def test_metrics_render_is_sorted_and_stable():
    reg = MetricsRegistry()
    reg.count("z.last")
    reg.count("a.first", 2)
    lines = reg.render_lines()
    assert lines.index("a.first 2") < lines.index("z.last 1")
    assert reg.render_lines() == lines


# ------------------------------------------------------------ shards


def test_collect_shard_returns_carrier_and_restores_state():
    assert not active()
    carrier = collect_shard(_traced_square, 3)
    assert not active()
    assert isinstance(carrier, ShardTelemetry)
    assert carrier.value == 9
    assert [r.track for r in carrier.records] == ["sq/3"]


def test_absorb_renumbers_per_track_and_fills_base_track():
    with session() as tel:
        tel.event("before")  # main seq 0
        shard = ShardTelemetry(value=None)
        sub = Session(base_track="")
        sub.event("on-base")
        sub.event("on-base")
        shard.records = sub.records
        tel.absorb(shard, default_track="main")
    assert [(r.track, r.seq) for r in tel.records] == [
        ("main", 0), ("main", 1), ("main", 2),
    ]


def test_absorb_order_does_not_change_export():
    carriers = [collect_shard(_traced_square, x) for x in (1, 2, 3)]
    with session() as forward:
        for carrier in carriers:
            forward.absorb(carrier)
    with session() as backward:
        for carrier in reversed(carriers):
            backward.absorb(carrier)
    assert _exports(forward) == _exports(backward)


# ----------------------------------------------- executor integration


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_checkpointed_map_telemetry_identical_across_workers(workers):
    with session() as tel:
        assert checkpointed_map(_traced_square, [1, 2, 3], ["a", "b", "c"],
                                workers=workers).values == {0: 1, 1: 4, 2: 9}
        exports = _exports(tel)
    with session() as serial:
        for x in (1, 2, 3):
            _traced_square(x)
    assert exports == _exports(serial)


def test_parallel_map_without_session_returns_plain_values():
    assert parallel_map(_traced_square, [2], workers=2).values == {0: 4}


def test_executor_advisory_events_mirror_the_report():
    closure = lambda x: x + 1  # noqa: E731 - deliberately unpicklable
    with session() as tel:
        report = ExecutionReport()
        parallel_map(closure, [1, 2], workers=2, report=report)
    names = [name for name, _ in tel.advisory]
    assert "executor.serial-fallback" in names
    assert report.serial_fallbacks == 1


# --------------------------------------------- checkpoint integration


def test_journal_key_isolates_telemetry_runs(tmp_path):
    """A journal written without telemetry must not feed a telemetry
    run (its entries carry no spans) — and vice versa."""
    items, keys = [0, 1], ["a", "b"]
    plain = ShardJournal(tmp_path, run_key("m", 0)).open()
    checkpointed_map(_traced_square, items, keys, plain)
    with session():
        observed = ShardJournal(tmp_path, run_key("m", 0)).open(resume=True)
        assert observed.completed(keys) == []


def test_interrupted_map_resumes_with_identical_exports(tmp_path):
    items, keys = [0, 1, 2, 3], ["a", "b", "c", "d"]
    with session() as reference:
        checkpointed_map(_traced_square, items, keys, None, workers=2)
        expected = _exports(reference)
    with session():
        journal = ShardJournal(tmp_path, run_key("m", 1)).open()
        with pytest.raises(RuntimeError, match="interrupted"):
            checkpointed_map(_dies_late, items, keys, journal, workers=1)
    with session() as resumed_session:
        journal = ShardJournal(tmp_path, run_key("m", 1)).open(resume=True)
        report = ExecutionReport()
        result = ElasticScheduler(workers=2, journal=journal,
                                  report=report).map(
            _traced_square, items, keys)
        assert result == [x * x for x in items]
        assert report.checkpoint_hits == 2  # shards 0/1 came from disk
        assert _exports(resumed_session) == expected


# ----------------------------------------------- sweep-level identity


@pytest.fixture(scope="module")
def chaos_kwargs():
    return dict(seed=0, rates=(0.0, 0.2), apps=("K9-mail",), users=1,
                actions_per_user=10)


@pytest.fixture(scope="module")
def chaos_observed(device, chaos_kwargs):
    with session() as tel:
        result = chaos_sweep(device, workers=1, **chaos_kwargs)
    return result.render(), _exports(tel)


def test_chaos_disabled_telemetry_is_byte_identical(
    device, chaos_kwargs, chaos_observed
):
    plain = chaos_sweep(device, workers=1, **chaos_kwargs)
    assert plain.render() == chaos_observed[0]


@pytest.mark.parametrize("workers", [2, 4])
def test_chaos_exports_byte_identical_across_workers(
    device, chaos_kwargs, chaos_observed, workers
):
    with session() as tel:
        result = chaos_sweep(device, workers=workers, **chaos_kwargs)
    assert result.render() == chaos_observed[0]
    assert _exports(tel) == chaos_observed[1]


def test_chaos_exports_byte_identical_across_resume(
    device, chaos_kwargs, chaos_observed, tmp_path
):
    """Journal half the sweep, then resume under a fresh session: the
    restored carriers replay the journaled shards' telemetry and the
    exports match an uninterrupted run's bytes."""
    with session():
        chaos_sweep(device, workers=2, checkpoint=tmp_path, **chaos_kwargs)
        journal = ShardJournal(
            tmp_path,
            run_key("chaos", device.name, 0, chaos_kwargs["rates"],
                    chaos_kwargs["apps"], 1, 10),
        ).open(resume=True)
        keys = [f"{rate!r}|K9-mail" for rate in chaos_kwargs["rates"]]
        assert journal.completed(keys) == keys
        journal._entry_path(keys[1]).unlink()  # lose one shard
    with session() as tel:
        resumed = chaos_sweep(device, workers=2, checkpoint=tmp_path,
                              resume=True, **chaos_kwargs)
    assert resumed.render() == chaos_observed[0]
    assert _exports(tel) == chaos_observed[1]
    assert resumed.execution.checkpoint_hits == 1


# ----------------------------------------------------- single sources


def test_hang_doctor_fields_are_metric_views(device, k9):
    """Satellite: degraded / phase2_collections / kb_short_circuits
    are views over the doctor's always-on registry, not shadow state."""
    engine = ExecutionEngine(device, seed=11)
    doctor = HangDoctor(k9, device, seed=11)
    names = [action.name for action in k9.actions] * 6
    run_detector(doctor, engine.run_session(k9, names, gap_ms=1000.0))
    reg = doctor.metrics
    assert doctor.phase2_collections \
        == reg.counter_value("core.phase2.collections")
    assert doctor.kb_short_circuits \
        == reg.counter_value("core.kb.short_circuits")
    assert doctor.degraded == (reg.gauge_value("core.degraded.mode") > 0)
    assert doctor.phase2_collections > 0
    assert reg.counter_value("core.actions.processed") == len(names)


def test_execution_report_to_dict_round_trips():
    report = ExecutionReport(shards=3, worker_crashes=1,
                             events=["worker-crash: pool broke"])
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["shards"] == 3
    assert payload["worker_crashes"] == 1
    assert payload["degraded"] is True
    assert payload["events"] == ["worker-crash: pool broke"]


# ---------------------------------------------------------- exporters


def test_chrome_trace_is_valid_and_loadable():
    with session() as tel:
        with tel.track("t1"):
            tel.record_span("a.b", 1.0, 2.5)
            tel.event("a.mark", time_ms=2.0)
    data = json.loads(export_chrome_trace(tel))
    events = data["traceEvents"]
    assert {e["ph"] for e in events} == {"M", "X", "i"}
    (span,) = [e for e in events if e["ph"] == "X"]
    assert (span["ts"], span["dur"]) == (1000, 1500)
    (instant,) = [e for e in events if e["ph"] == "i"]
    assert instant["s"] == "t"
    names = [e for e in events if e["ph"] == "M"]
    assert {e["args"]["name"] for e in names} == {"repro", "t1"}


def test_write_exports_creates_all_files(tmp_path):
    with session() as tel:
        tel.count("c")
        tel.advisory_event("executor.retry", shard=1)
    report = ExecutionReport(shards=1)
    paths = write_exports(tel, tmp_path / "out", report=report)
    written = sorted(p.name for p in paths)
    assert written == sorted(EXPORT_FILENAMES + ("execution.json",))
    advisory = (tmp_path / "out" / "executor.jsonl").read_text()
    assert json.loads(advisory)["name"] == "executor.retry"
    assert json.loads(
        (tmp_path / "out" / "execution.json").read_text()
    )["shards"] == 1
