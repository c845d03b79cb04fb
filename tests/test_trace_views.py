"""Every view of a trace: pinned CLI digests and fixture traces.

A telemetry run renders three views of its spans: ``flamegraph.txt``,
the ``repro dash`` page and the ``--trace`` summary on stdout.  Each
``sweep-smoke`` config below pins the sha256 of all three, so a change
to how spans become time (parents, self time, fold order, row format)
cannot move a rendered byte without failing here.  The dash page names
its directory, so every run writes its exports under the fixed name
``tel``.

The CLI traces hold no nested spans, so fixture traces cover the span
forest itself: ties, zero-length spans, shared endpoints, overlapping
and overrunning children, sim spans under tick spans, unclosed spans,
event-only tracks and an empty session.
"""

import hashlib

import pytest

from repro.cli import main
from repro.obs import (
    flamegraph_text,
    records_from_jsonl,
    render_self_time_rows,
    self_time_rows,
)
from repro.telemetry import (
    SpanRecord,
    collect_shard,
    current,
    session,
    write_exports,
)

#: name -> (CLI arguments, sha256 of flamegraph.txt, of the ``repro
#: dash`` page, of the ``--telemetry tel --trace`` stdout).
CONFIGS = {
    "chaos": (
        "chaos --quick --seed 0",
        "a19edafbfb145e478c67b67bd01ca73cf566cb3b44b7bb76386719dc414b8708",
        "c130c27c17d65253fee180e4537c17e0f81b89ddd3dd2112624d419b282a0637",
        "ede6e66c826b727f47f294fbf0253816268e772409b3e67336ec55d7b7b077cd",
    ),
    "crowd": (
        "crowd --quick --seed 0",
        "2332000dab32d7d83257bf0525c2afc66ab48a40bdd622845c00ab7f42c1a3c3",
        "a69697476684075c40abe7a9abdea67a199d82f42eb44af7cd93139c639fa237",
        "ee2b9102f18cff0e67b032541178e6209e83ff95fd3b9c8a7c3f9a1251f4689c",
    ),
    "scenarios": (
        "scenarios --quick --seed 0",
        "47753de3d854ecaa2db384eba16dee6e9dca505aec6917bf5d059a2f5bb8e421",
        "c74a093db49d71abc7efe75f6152c4615d20e885751e7d47a822260265080c20",
        "e4f9392a403f0846426153e1841490bf8a7272961585e53bf424c4ca8b3c56c9",
    ),
    "stream": (
        "stream --quick --seed 0 --churn-rate 0.2",
        "27de92001c769acc05151c50dfd8bc550450cad0f5f5ab47e232587bfde566e3",
        "eb022cc44c845ae0af342dc543ddb85b114f16cf214c58cabdcee841ff02cd1c",
        "115bfb1d49ce3cafa9ae965ba77f704a6afb2ec5cdc5be712236993f6de6cf72",
    ),
    "fleet": (
        "fleet --users 1 --actions 10 --fleet-size 22",
        "340cf321441b748c0024979bfb1496c33df095554f6fc31e396a8bdf59721409",
        "0e5d0654a043caf086bf4e134e39a212cf3304a9241527494e1b53de3252b717",
        "ed031f9ad9503a6151a8ab1e054a2df9620a09f829629d73ea3c1a3886d27186",
    ),
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_views_match_pinned_digests(name, capsys, tmp_path,
                                          monkeypatch):
    args, flamegraph, dash, trace = CONFIGS[name]
    monkeypatch.chdir(tmp_path)
    assert main(args.split() + ["--telemetry", "tel", "--trace"]) == 0
    trace_out = capsys.readouterr().out
    assert main(["dash", "tel"]) == 0
    dash_out = capsys.readouterr().out
    assert _sha((tmp_path / "tel" / "flamegraph.txt").read_bytes()) \
        == flamegraph
    assert _sha(dash_out.encode("utf-8")) == dash
    assert _sha(trace_out.encode("utf-8")) == trace


def test_trace_summary_is_the_self_time_table_of_trace_jsonl(capsys,
                                                              tmp_path,
                                                              monkeypatch):
    """``--trace`` prints the rows ``self_time_rows`` finds in the
    run's own ``trace.jsonl``, then ``metrics.txt``."""
    monkeypatch.chdir(tmp_path)
    args = "stream --quick --seed 0 --churn-rate 0.2 --telemetry tel --trace"
    assert main(args.split()) == 0
    summary = capsys.readouterr().out.split(
        "\ntop 10 spans by self-time:\n", 1)[1]
    table = render_self_time_rows(
        self_time_rows(records_from_jsonl(tmp_path / "tel" / "trace.jsonl"))
    )
    metrics = (tmp_path / "tel" / "metrics.txt").read_text()
    assert summary == f"{table}\n\n{metrics}"


# -------------------------------------------------------- fixture traces


def _spans(*specs):
    """Span records on track ``t``, one ``(name, start, end, depth)``
    each, numbered in the order given."""
    return [SpanRecord("span", "t", seq, name, start, end, depth)
            for seq, (name, start, end, depth) in enumerate(specs)]


def _empty_session():
    with session() as tel:
        pass
    return tel.records


def _event_only_track():
    with session() as tel:
        with tel.track("events-only"):
            tel.event("e.one", 1.0)
            tel.event("e.two", 2.0)
    return tel.records


def _unclosed_tick_span():
    """A span still open when its shard is collected emits no record:
    the carrier holds only completed spans."""
    def shard(x):
        tel = current()
        tel.span("left.open").__enter__()  # never exited
        tel.record_span("closed", 0.0, 4.0)
        return x

    carrier = collect_shard(shard, 5)
    assert carrier.value == 5
    assert [r.name for r in carrier.records] == ["closed"]
    with session() as tel:
        tel.absorb(carrier, default_track="t")
    return tel.records


def _sim_span_under_tick_span():
    """A sim-clock span recorded inside a tick-clock span is one level
    deeper, but the tick range does not contain its sim times."""
    with session() as tel:
        with tel.track("t"):
            with tel.span("tick"):
                tel.record_span("sim", 100.0, 250.0)
    return tel.records


def _nested_tick_spans():
    with session() as tel:
        with tel.track("t"):
            with tel.span("outer"):
                with tel.span("mid"):
                    with tel.span("inner"):
                        pass
    return tel.records


#: case -> (records builder, flamegraph lines, ``(name, count,
#: total_self)`` rows).
FIXTURES = {
    "children-subtracted": (
        lambda: _spans(("parent", 0.0, 10.0, 0), ("child", 2.0, 5.0, 1)),
        ["t;parent 7000", "t;parent;child 3000"],
        [("parent", 1, 7.0), ("child", 1, 3.0)],
    ),
    "empty-session": (_empty_session, [], []),
    "event-only-track": (_event_only_track, [], []),
    "zero-length-spans": (
        # Zero-length spans attribute zero self time and subtract
        # nothing from their parents.
        lambda: _spans(("outer", 0.0, 10.0, 0), ("instant", 5.0, 5.0, 1),
                       ("point", 3.0, 3.0, 0)),
        ["t;outer 10000", "t;outer;instant 0", "t;point 0"],
        [("outer", 1, 10.0), ("instant", 1, 0.0), ("point", 1, 0.0)],
    ),
    "ties": (
        # c lies in a and b alike: the one recorded last is its parent,
        # and only its time loses c's.  Equal totals sort by name.
        lambda: _spans(("a", 0.0, 10.0, 0), ("b", 0.0, 10.0, 0),
                       ("c", 2.0, 5.0, 1), ("d", 20.0, 27.0, 0)),
        ["t;a 10000", "t;b 7000", "t;b;c 3000", "t;d 7000"],
        [("a", 1, 10.0), ("b", 1, 7.0), ("d", 1, 7.0), ("c", 1, 3.0)],
    ),
    "siblings-sharing-an-endpoint": (
        # z lies in x and y alike: the latest-starting one is its parent.
        lambda: _spans(("p", 0.0, 10.0, 0), ("c1", 0.0, 5.0, 1),
                       ("c2", 5.0, 10.0, 1), ("x", 20.0, 25.0, 0),
                       ("y", 25.0, 30.0, 0), ("z", 25.0, 25.0, 1)),
        ["t;p 0", "t;p;c1 5000", "t;p;c2 5000", "t;x 5000", "t;y 5000",
         "t;y;z 0"],
        [("c1", 1, 5.0), ("c2", 1, 5.0), ("x", 1, 5.0), ("y", 1, 5.0),
         ("p", 1, 0.0), ("z", 1, 0.0)],
    ),
    "overlapping-children": (
        # 6 + 6 ms of children in a 10 ms parent: its self time clamps
        # at zero instead of reading -2.
        lambda: _spans(("p", 0.0, 10.0, 0), ("c1", 0.0, 6.0, 1),
                       ("c2", 4.0, 10.0, 1)),
        ["t;p 0", "t;p;c1 6000", "t;p;c2 6000"],
        [("c1", 1, 6.0), ("c2", 1, 6.0), ("p", 1, 0.0)],
    ),
    "child-overrunning-its-parent": (
        # Not contained, so not a child: both keep their whole time.
        lambda: _spans(("p", 0.0, 10.0, 0), ("c", 5.0, 15.0, 1)),
        ["t;c 10000", "t;p 10000"],
        [("c", 1, 10.0), ("p", 1, 10.0)],
    ),
    "sim-span-under-tick-span": (
        _sim_span_under_tick_span,
        ["t;sim 150000", "t;tick 1000"],
        [("sim", 1, 150.0), ("tick", 1, 1.0)],
    ),
    "nested-tick-spans": (
        _nested_tick_spans,
        ["t;outer 2000", "t;outer;mid 2000", "t;outer;mid;inner 1000"],
        [("mid", 1, 2.0), ("outer", 1, 2.0), ("inner", 1, 1.0)],
    ),
    "unclosed-tick-span": (
        _unclosed_tick_span,
        ["t;closed 4000"],
        [("closed", 1, 4.0)],
    ),
}


@pytest.mark.parametrize("case", sorted(FIXTURES))
def test_span_forest_fixture(case, tmp_path):
    """Each fixture trace gives the expected flamegraph and self-time
    table, and the same again once read back from ``trace.jsonl``."""
    build, flamegraph, rows = FIXTURES[case]
    records = build()
    assert flamegraph_text(records) == "".join(f"{line}\n"
                                               for line in flamegraph)
    table = self_time_rows(records)
    assert [(row["name"], row["count"], row["total_self"])
            for row in table] == rows
    for row in table:
        assert row["mean_self"] == row["total_self"] / row["count"]
    lines = render_self_time_rows(table).splitlines()
    if rows:
        assert [line.split()[0] for line in lines] \
            == [name for name, _, _ in rows]
    else:
        assert lines == ["  (no spans recorded)"]
    with session() as tel:
        tel.records.extend(records)
    write_exports(tel, tmp_path)
    offline = records_from_jsonl(tmp_path / "trace.jsonl")
    assert flamegraph_text(offline) == flamegraph_text(records)
    assert self_time_rows(offline) == table
