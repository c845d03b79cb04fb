"""The ops plane: exposition, rollups, SLO/burn-rate alerts, profiling.

The contract under test, from ISSUE 10 and ``docs/observability.md``:
Prometheus exposition renders any registry deterministically with
cumulative histogram buckets; rollups merge associatively and render
byte-identically regardless of input order; SLO evaluation flags
exhausted error budgets and emits deterministic multi-window
burn-rate alerts; the collapsed-stack export reconstructs span
ancestry; and the three ops files are byte-stable.
"""

import json

import pytest

from repro.harness.exp_stream import stream_sweep
from repro.obs import (
    DEFAULT_OBJECTIVES,
    OBS_FILENAMES,
    Rollup,
    alerts_to_jsonl,
    bucket_quantile,
    evaluate_slos,
    flamegraph_text,
    records_from_jsonl,
    render_dash,
    render_prometheus,
    render_slo_table,
    rollup_from_session,
    self_time_rows,
    split_labels,
    write_obs_exports,
)
from repro.telemetry import (
    MetricsRegistry,
    SpanRecord,
    labeled,
    session,
    trace_order,
    write_exports,
)


# -------------------------------------------------------------- labels


def test_labeled_is_canonical_and_sorted():
    a = labeled("serve.http.requests", status="2xx", route="/healthz")
    b = labeled("serve.http.requests", route="/healthz", status="2xx")
    assert a == b == "serve.http.requests{route=/healthz,status=2xx}"
    assert labeled("plain") == "plain"


def test_labeled_rejects_delimiter_characters():
    with pytest.raises(ValueError):
        labeled("m", bad="a,b")
    with pytest.raises(ValueError):
        labeled("m", **{"k=": "v"})


def test_split_labels_round_trips():
    name = labeled("core.hangs", app="K9-mail", device="lg-v10")
    base, labels = split_labels(name)
    assert base == "core.hangs"
    assert labels == {"app": "K9-mail", "device": "lg-v10"}
    assert split_labels("no.labels") == ("no.labels", {})


# ---------------------------------------------------------- exposition


def test_render_prometheus_counters_gauges_and_order():
    a = MetricsRegistry()
    a.count("z.last", 2)
    a.count("a.first", 1)
    a.gauge_set("mid.gauge", 1.5)
    b = MetricsRegistry()
    b.gauge_set("mid.gauge", 1.5)
    b.count("a.first", 1)
    b.count("z.last", 2)
    text = render_prometheus(a)
    assert text == render_prometheus(b)  # insertion order is invisible
    lines = text.splitlines()
    assert lines[0] == "# TYPE a_first counter"
    assert lines[1] == "a_first 1"
    assert "# TYPE mid_gauge gauge" in lines
    assert "mid_gauge 1.5" in lines
    assert lines[-1] == "z_last 2"


def test_render_prometheus_histogram_is_cumulative():
    registry = MetricsRegistry()
    for value in (0.5, 3.0, 3.0, 9999.0):
        registry.observe("core.hang.response_ms", value)
    text = render_prometheus(registry)
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    by_name = dict(l.rsplit(" ", 1) for l in lines)
    assert by_name['core_hang_response_ms_bucket{le="1"}'] == "1"
    assert by_name['core_hang_response_ms_bucket{le="5"}'] == "3"
    assert by_name['core_hang_response_ms_bucket{le="5000"}'] == "3"
    assert by_name['core_hang_response_ms_bucket{le="+Inf"}'] == "4"
    assert by_name["core_hang_response_ms_count"] == "4"
    assert by_name["core_hang_response_ms_sum"] == "10005.5"
    # +Inf comes last in the bucket series.
    buckets = [l for l in lines if "_bucket" in l]
    assert buckets[-1].startswith(
        'core_hang_response_ms_bucket{le="+Inf"}'
    )


def test_render_prometheus_labeled_series_group_into_one_family():
    registry = MetricsRegistry()
    registry.count(labeled("http.requests", route="/b", status="2xx"), 2)
    registry.count(labeled("http.requests", route="/a", status="5xx"), 1)
    text = render_prometheus(registry)
    assert text.count("# TYPE http_requests counter") == 1
    assert 'http_requests{route="/a",status="5xx"} 1' in text
    assert 'http_requests{route="/b",status="2xx"} 2' in text
    # Series sort by label string: /a before /b.
    assert text.index('route="/a"') < text.index('route="/b"')


def test_render_prometheus_rejects_mixed_family_types():
    registry = MetricsRegistry()
    registry.count("thing", 1)
    registry.gauge_set("thing", 2.0)
    with pytest.raises(ValueError):
        render_prometheus(registry)


# ----------------------------------------------------------- quantiles


def test_bucket_quantile_ranks_and_inf():
    bounds = (1.0, 2.0, 5.0)
    # counts: 2 in le=1, 1 in le=2, 1 in le=5, 0 in +inf
    assert bucket_quantile(bounds, (2, 1, 1, 0), 0.50) == 1.0
    assert bucket_quantile(bounds, (2, 1, 1, 0), 0.75) == 2.0
    assert bucket_quantile(bounds, (2, 1, 1, 0), 0.99) == 5.0
    # A rank landing in the +inf bucket has no finite bound.
    assert bucket_quantile(bounds, (0, 0, 0, 4), 0.50) is None
    assert bucket_quantile(bounds, (0, 0, 0, 0), 0.50) is None


# ------------------------------------------------------------- rollups


def _session_records():
    with session() as tel:
        with tel.track("app/demo"):
            tel.record_span("sim.action.execute", 100.0, 400.0)
            tel.record_span("core.action.process", 100.0, 400.0,
                            hang=True)
            tel.record_span("core.diagnoser.collect", 150.0, 250.0)
            tel.event("core.schecker.verdict", 400.0,
                      verdict="suspicious")
            tel.event("core.kb.short_circuit", 1500.0, action="a")
            tel.record_span("sim.action.execute", 1200.0, 1300.0)
            tel.record_span("core.action.process", 1200.0, 1300.0,
                            hang=False)
            tel.event("stream.round.stats", 0.0, round=0, fleet=3,
                      phase2_collections=2, kb_short_circuits=1,
                      batches_ingested=9, batches_dropped=1,
                      batches_duplicated=0, batches_late=0,
                      duplicates_ignored=0)
    return tel.records


def test_rollup_windows_spans_and_events():
    rollup = Rollup(window_ms=1000.0).add_records(_session_records())
    rows = {(r["domain"], r["index"]): r for r in rollup.rows()}
    sim0 = rows[("sim", 0)]
    assert sim0["counters"]["actions"] == 1
    assert sim0["counters"]["hangs"] == 1
    assert sim0["counters"]["collections"] == 1
    assert sim0["counters"]["verdict.suspicious"] == 1
    assert sim0["histograms"]["doctor_ms"]["count"] == 1
    assert sim0["histograms"]["exec_ms"]["sum"] == 300.0
    # collect 100 ms over exec 300 ms.
    assert sim0["derived"]["overhead_pct"] == pytest.approx(100 / 3)
    sim1 = rows[("sim", 1)]
    assert sim1["counters"]["short_circuits"] == 1
    assert sim1["counters"]["actions"] == 1
    assert "hangs" not in sim1["counters"]
    round0 = rows[("round", 0)]
    assert round0["counters"]["batches_ingested"] == 9
    assert round0["derived"]["availability"] == 0.9
    with pytest.raises(ValueError):
        Rollup(window_ms=0)


def test_rollup_offline_from_trace_jsonl(tmp_path):
    records = _session_records()
    with session() as tel:
        tel.records.extend(records)
    write_exports(tel, tmp_path)
    offline = records_from_jsonl(tmp_path / "trace.jsonl")
    assert Rollup().add_records(offline).to_jsonl() == \
        Rollup().add_records(records).to_jsonl()


def test_stream_session_round_windows_count_each_round_once(device):
    """A stream session's trace alone feeds the round domain: one
    window per sync round, counting that round once."""
    with session() as tel:
        result = stream_sweep(device, seed=3, rounds=2, fleet_size=2,
                              apps=("K9-mail",), actions_per_round=8,
                              workers=1)
    rows = [row for row in rollup_from_session(tel).rows()
            if row["domain"] == "round"]
    assert [row["index"] for row in rows] == [0, 1]
    for row, entry in zip(rows, result.rounds):
        assert row["counters"]["rounds"] == 1
        assert row["counters"]["fleet"] == len(entry.fleet) == 2
        assert row["counters"]["phase2_collections"] \
            == entry.phase2_collections


# ----------------------------------------------------------------- SLO


def test_slo_budget_exhaustion_and_exit_semantics():
    rollup = Rollup()
    # 10 rounds, all batches dropped: availability is 0 against a
    # 95% target — the budget is gone.
    for index in range(10):
        window = rollup.window("round", index)
        window.count("batches_ingested", 0)
        window.count("batches_dropped", 10)
    statuses, alerts = evaluate_slos(rollup)
    by_name = {s["objective"]: s for s in statuses}
    availability = by_name["ingest-availability"]
    assert availability["exhausted"]
    assert availability["bad"] == 100
    assert availability["allowed_bad"] == pytest.approx(5.0)
    assert availability["budget_remaining"] == pytest.approx(-95.0)
    # 100% failure burns 20x the availability budget: page alerts on
    # every window once the long window fills.
    assert alerts
    assert all(a["severity"] == "page" for a in alerts
               if a["objective"] == "ingest-availability")
    # Objectives with no windows report no-data, never exhausted.
    assert by_name["detection-latency"]["total"] == 0
    assert not by_name["detection-latency"]["exhausted"]


def test_slo_healthy_rollup_has_no_alerts():
    rollup = Rollup()
    for index in range(10):
        window = rollup.window("round", index)
        window.count("batches_ingested", 100)
        window.count("batches_dropped", 0)
    statuses, alerts = evaluate_slos(rollup)
    assert alerts == []
    assert not any(s["exhausted"] for s in statuses)
    table = render_slo_table(statuses)
    assert "ingest-availability" in table
    assert "EXHAUSTED" not in table


def test_slo_burn_alerts_are_deterministic_and_sorted():
    rollup = Rollup()
    for index in range(8):
        window = rollup.window("round", index)
        window.count("batches_ingested", 0 if index < 4 else 100)
        window.count("batches_dropped", 10 if index < 4 else 0)
    _, alerts = evaluate_slos(rollup)
    again = evaluate_slos(rollup)[1]
    assert alerts_to_jsonl(alerts) == alerts_to_jsonl(again)
    indices = [a["index"] for a in alerts]
    assert indices == sorted(indices)
    for alert in alerts:
        assert alert["burn_short"] >= 3.0
        assert alert["burn_long"] >= 3.0


def test_slo_latency_objective_splits_on_bucket_bounds():
    rollup = Rollup()
    window = rollup.window("sim", 0)
    for value in (50.0, 150.0, 900.0, 900.0):
        window.observe("doctor_ms", value)
    statuses, _ = evaluate_slos(rollup, objectives=(
        {"name": "lat", "kind": "latency", "domain": "sim",
         "histogram": "doctor_ms", "threshold_ms": 200.0,
         "target": 0.5},
    ))
    assert statuses[0]["good"] == 2
    assert statuses[0]["bad"] == 2
    assert not statuses[0]["exhausted"]


# ------------------------------------------------------------ profiling


def test_collapse_stacks_reconstructs_ancestry():
    with session() as tel:
        with tel.track("work"):
            with tel.span("outer"):
                with tel.span("inner"):
                    pass
    lines = flamegraph_text(tel.records).splitlines()
    stacks = [line.rsplit(" ", 1)[0] for line in lines]
    assert "work;outer" in stacks
    assert "work;outer;inner" in stacks
    assert lines == sorted(lines)


def test_flamegraph_counts_are_self_time_microseconds():
    records = [
        SpanRecord("span", "t", 0, "parent", 0.0, 10.0, 0),
        SpanRecord("span", "t", 1, "child", 2.0, 5.0, 1),
        SpanRecord("event", "t", 2, "e", 1.0, 1.0, 0),
    ]
    text = flamegraph_text(records)
    assert "t;parent 7000\n" in text        # 10 ms - 3 ms child
    assert "t;parent;child 3000\n" in text
    assert "t;e" not in text                # events carry no stack
    rows = self_time_rows(records)
    assert rows[0] == {"name": "parent", "count": 1,
                       "total_self": 7.0, "mean_self": 7.0}


# ------------------------------------------------------------- exports


def test_write_obs_exports_is_byte_stable(tmp_path):
    with session() as tel:
        tel.records.extend(_session_records())
    first = tmp_path / "a"
    second = tmp_path / "b"
    write_obs_exports(first, tel)
    write_obs_exports(second, tel)
    for name in OBS_FILENAMES:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    rows = [json.loads(line) for line in
            (first / "rollups.jsonl").read_text().splitlines()]
    assert {row["domain"] for row in rows} == {"round", "sim"}


def test_write_obs_exports_ignores_absorption_order(tmp_path):
    """Shards are absorbed in an order that follows the worker count;
    float sums in the rollup and the self-time table must not, so
    every view folds session records in trace order, as the exports
    and an offline rebuild from ``trace.jsonl`` do."""
    durations = (1e16, 1.0, 1.0)  # summed in reverse, the 1.0s survive
    with session() as tel:
        for index, duration in enumerate(durations):
            with tel.track(f"app/{index}"):
                tel.record_span("core.action.process", 0.0, duration)
    forward = tel.records
    with session() as reversed_tel:
        reversed_tel.records.extend(reversed(forward))
    write_exports(tel, tmp_path / "a")
    write_obs_exports(tmp_path / "a", session=tel)
    write_obs_exports(tmp_path / "b", session=reversed_tel)
    for name in OBS_FILENAMES:
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()
    offline = records_from_jsonl(tmp_path / "a" / "trace.jsonl")
    for run in (tel, reversed_tel):
        assert rollup_from_session(run).to_jsonl() \
            == (tmp_path / "a" / "rollups.jsonl").read_text()
        assert flamegraph_text(run.records) \
            == (tmp_path / "a" / "flamegraph.txt").read_text()
        assert self_time_rows(run.records) == self_time_rows(offline)


def test_records_from_jsonl_names_a_line_missing_a_field(tmp_path):
    with session() as tel:
        tel.records.extend(_session_records())
    write_exports(tel, tmp_path)
    path = tmp_path / "trace.jsonl"
    lines = path.read_text().splitlines()
    assert records_from_jsonl(path) == trace_order(tel.records)
    broken = json.loads(lines[2])
    del broken["depth"]
    lines[2] = json.dumps(broken)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"trace\.jsonl:3: .*'depth'"):
        records_from_jsonl(path)


def test_render_dash_sections(tmp_path):
    with session() as tel:
        tel.records.extend(_session_records())
    write_exports(tel, tmp_path)
    text = render_dash(tmp_path)
    assert "-- SLOs --" in text
    assert "-- rollup windows" in text
    assert "-- top spans by self time --" in text
    assert render_dash(tmp_path) == text  # pure function of the bytes


def test_render_dash_empty_directory(tmp_path):
    text = render_dash(tmp_path)
    assert "no windows" in text
    assert "(no spans recorded)" in text
