"""Every engine path, pinned by digest.

:class:`~repro.sim.engine.ExecutionEngine` simulates one action model
(FIFO input-event dispatch, operations laid out on the main, render and
worker threads, a settle and ambient tail) under two determinism
universes: full mode draws each segment's counts in scalar order, lazy
mode pools its draws per action.  A *monitored* projection of the full
universe and the ``columnar=False`` reference make five configurations.

Each configuration pins the sha256 of every :class:`ActionExecution`
field over a fixed corpus: every input event's enqueue, dispatch and
finish times and its operation executions, and every segment's thread,
span, frames, counts, operation site and CPU time.  Each app runs a
session, then one action on a caller's looper that already holds a
queued input event (more operations than the action's plan, so lazy
mode extends its pooled draws), then a queued burst.  A lazy-universe
value may change only as a documented universe change
(``docs/perf.md``), so a refactor of the engine must leave all five
digests where they are.  Full mode and the reference share one digest:
that is the bit-identity contract.
"""

import hashlib

import pytest

from repro.apps import android_apis as apis
from repro.apps.app import AppSpec
from repro.apps.catalog import TABLE5_APPS, get_app
from repro.apps.catalog_helpers import action, op
from repro.apps.sessions import SessionGenerator
from repro.scenarios import generate_fleet
from repro.sim.counters import FILTER_EVENTS
from repro.sim.engine import ExecutionEngine
from repro.sim.looper import Looper, Message

#: Session length per app.
ACTIONS_PER_SESSION = 16

#: Actions per queued burst (the app's first ones, in catalog order).
BURST_ACTIONS = 3

#: name -> (ExecutionEngine options, sha256 over the whole corpus).
CONFIGS = {
    "full": (
        {},
        "3c9949c03dc90713ff5a336388b2a42271d97afe5caad96d071e401fd93937af",
    ),
    "projected": (
        dict(monitored=FILTER_EVENTS),
        "37b85345a1f26197ce7b22fdc508cd553f27507ddfc32b854ac53d0a055bd704",
    ),
    "lazy": (
        dict(counter_events=FILTER_EVENTS),
        "95c494f70b5f0e8f26ca08036dd1f9bc1a981a9c02f34133479c6fa59644564b",
    ),
    "lazy-pmu": (
        dict(counter_events=(
            "context-switches", "instructions", "cache-misses",
        )),
        "0ead294958c572cc54e872cdb20f3044c12ab7b9e1899c72c961c06d0930179d",
    ),
    "reference": (
        dict(columnar=False),
        "3c9949c03dc90713ff5a336388b2a42271d97afe5caad96d071e401fd93937af",
    ),
}


def _network_app():
    """One action whose main thread calls the network (footnote 2)."""
    fetch = action(
        "fetch_feed", "onClick",
        op(apis.HTTP_EXECUTE, "downloadFeed", "FeedService.java"),
        op(apis.SET_TEXT, "showFeed", "FeedActivity.java"),
    )
    return AppSpec(name="NetApp", package="com.netapp", category="News",
                   downloads=10, commit="abc", actions=(fetch,))


#: Catalog apps, generated default-mix apps, a main-thread network app
#: and an app whose bugs moved to worker threads.
APPS = (
    list(TABLE5_APPS)
    + [entry.app for entry in generate_fleet(8, seed=3)]
    + [_network_app(), get_app("A Better Camera").fixed()]
)


def _seed(app):
    return sum(map(ord, app.name))


def _session(app):
    generator = SessionGenerator(seed=_seed(app))
    return generator.user_session(
        app, user_id=0, actions_per_user=ACTIONS_PER_SESSION
    ).action_names


def _site(operation):
    return None if operation is None else operation.site_id


def _timeline_record(timeline):
    """Every segment, per thread in ingest order."""
    return [
        (
            thread,
            [
                (segment.start_ms, segment.end_ms, repr(segment.frames),
                 sorted(segment.counts.items()), _site(segment.op),
                 segment.cpu_ms)
                for segment in timeline.segments(thread)
            ],
        )
        for thread in timeline.threads()
    ]


def _execution_record(execution):
    """Every observable field of one :class:`ActionExecution`."""
    return (
        execution.app.name,
        execution.action.name,
        execution.start_ms,
        execution.end_ms,
        [
            (
                event.spec.name, event.enqueue_ms, event.dispatch_ms,
                event.finish_ms,
                [
                    (_site(oe.op), oe.thread, oe.start_ms, oe.end_ms,
                     oe.manifested)
                    for oe in event.op_executions
                ],
            )
            for event in execution.events
        ],
        _timeline_record(execution.timeline),
    )


def _burst_record(records, timeline):
    return (
        [
            (record.message.target, record.message.enqueue_ms,
             record.dispatch_ms, record.finish_ms)
            for record in records
        ],
        _timeline_record(timeline),
    )


def _engine(device, app, options):
    return ExecutionEngine(device, seed=_seed(app), **options)


def _corpus_digest(device, options):
    sha = hashlib.sha256()
    for app in APPS:
        engine = _engine(device, app, options)
        executions = engine.run_session(app, _session(app), gap_ms=1000.0)
        clock = executions[-1].end_ms + 1000.0
        looper = Looper()
        queued = app.actions[-1].events[0]
        looper.post(Message(target=queued.name, payload=queued,
                            enqueue_ms=clock))
        executions.append(engine.run_action(app, app.actions[0],
                                            start_ms=clock, looper=looper))
        for execution in executions:
            sha.update(repr(_execution_record(execution)).encode("utf-8"))
        burst = [spec.name for spec in app.actions[:BURST_ACTIONS]]
        records, timeline = engine.run_queued_burst(app, burst)
        sha.update(repr(_burst_record(records, timeline)).encode("utf-8"))
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_engine_path_matches_pinned_digest(device, name):
    options, digest = CONFIGS[name]
    assert _corpus_digest(device, options) == digest


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_caller_looper_matches_private_queue(device, name):
    """A caller-supplied looper with no printers drains exactly as the
    engine's private queue does: same draws, same timings, same
    segments."""
    options, _ = CONFIGS[name]
    for app in TABLE5_APPS:
        private = _engine(device, app, options)
        caller = _engine(device, app, options)
        clock = 0.0
        for action_name in _session(app):
            spec = app.action(action_name)
            expected = private.run_action(app, spec, start_ms=clock)
            actual = caller.run_action(app, spec, start_ms=clock,
                                       looper=Looper())
            assert _execution_record(actual) == _execution_record(expected)
            clock = expected.end_ms + 1000.0
