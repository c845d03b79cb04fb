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
session, then a queued burst.  A lazy-universe
value may change only as a documented universe change
(``docs/perf.md``), so a refactor of the engine must leave all five
digests where they are.  Full mode and the reference share one digest:
that is the bit-identity contract.

Below the engine, every per-segment :class:`CounterModel` entry point is
pinned the same way: the full model, four *monitored* projections and
four lazy ``events=`` models, each over the projection suite's segment
shapes plus edge shapes the engine never produces (no CPU time, a
subnormal one, CPU above or equal to wall time, non-positive pages,
zero and negative uarch multipliers, with and without a DVFS factor).
Each digest covers every returned key in order, every value as
``float.hex``, and the bit-generator state after every call, so a
rewrite of the kernel block they share must leave all nine in place.
"""

import hashlib

import pytest

from repro.apps import android_apis as apis
from repro.apps.app import AppSpec
from repro.apps.catalog import TABLE5_APPS, get_app
from repro.apps.catalog_helpers import action, op
from repro.apps.sessions import SessionGenerator
from repro.base.kinds import ApiKind
from repro.base.rng import stream
from repro.scenarios import generate_fleet
from repro.sim.counters import FILTER_EVENTS, KERNEL_EVENTS, CounterModel
from repro.sim.engine import ExecutionEngine
from repro.sim.timeline import MAIN_THREAD, RENDER_THREAD, WORKER_THREAD
from tests.test_projection import NEUTRAL_UARCH, _shapes

#: Session length per app.
ACTIONS_PER_SESSION = 16

#: Actions per queued burst (the app's first ones, in catalog order).
BURST_ACTIONS = 3

#: name -> (ExecutionEngine options, sha256 over the whole corpus).
CONFIGS = {
    "full": (
        {},
        "df9b728db9e1ed3b65c5dc4eb1edb1553a4cc9d092950a9706ffdf189bc1ca8e",
    ),
    "projected": (
        dict(monitored=FILTER_EVENTS),
        "04f3611eb35b2e0112d66dc255e6ad547e1e88b9a4efa271a8f1ad92b62103cf",
    ),
    "lazy": (
        dict(counter_events=FILTER_EVENTS),
        "03ef0e3961d6ff519b10bca108514e46fccbc088547670f5a61ffa28758d79bf",
    ),
    "lazy-pmu": (
        dict(counter_events=(
            "context-switches", "instructions", "cache-misses",
        )),
        "2bf9e4badd74034a149e5aa6996f60310b97ec67156e613e6b2a7ebf21b832e3",
    ),
    "reference": (
        dict(columnar=False),
        "df9b728db9e1ed3b65c5dc4eb1edb1553a4cc9d092950a9706ffdf189bc1ca8e",
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


#: name -> (CounterModel options, sha256 over every segment shape).
SEGMENT_MODELS = {
    "full": (
        {},
        "1473d417cf276d32bd89dc7fdaa195586cb3f2c071c2c794443034a2135d3928",
    ),
    "projected-filter": (
        dict(monitored=FILTER_EVENTS),
        "25d4c903b888253b66f4f0f96093a200c4267d5ea639b4a043167dcad80bc0d0",
    ),
    "projected-page-faults": (
        dict(monitored=("page-faults",)),
        "83a3cb18c4697f2c96056a114d766130146ff742123d7a76df50b62ea4e5b41e",
    ),
    "projected-kernel": (
        dict(monitored=KERNEL_EVENTS),
        "40b1be624c185a9be045cf735143df91a1e46d26f091292ff26c28de5664b569",
    ),
    "projected-pmu": (
        dict(monitored=FILTER_EVENTS + ("cpu-cycles", "raw-bus-access")),
        "570b892cf78cd264a3af040e45733dcffe6f8106febcebb990275a87aacf3658",
    ),
    "lazy-filter": (
        dict(events=FILTER_EVENTS),
        "6679f97dad9bb131724880eadbf4a60da2fed076bbde8fb03e1c309a6e174240",
    ),
    "lazy-kernel": (
        dict(events=KERNEL_EVENTS),
        "b34132299c493f0bef1fb6d0e6c904d7cfb6b4cd42c2794433b26583f2814150",
    ),
    "lazy-fault-split": (
        dict(events=("page-faults", "minor-faults")),
        "c410959b8a3bd1690a68981fac90ef9fb75b0c56589b322f7bce815a3af1b3cc",
    ),
    "lazy-pmu": (
        dict(events=("context-switches", "instructions", "cache-misses")),
        "64602cedd0192d40bb666906f92b57f4ef9d12915988081ff53563454e85a18b",
    ),
}


def _edge_shapes():
    """Inputs at the model's guards, on every kind and thread, with the
    engine's DVFS factor and with the per-segment fallback draw."""
    base = dict(wall_ms=300.0, cpu_ms=180.0, pages=900, uarch=NEUTRAL_UARCH,
                wait_chunk_override=None)
    edits = (
        dict(cpu_ms=0.0),
        dict(cpu_ms=5e-324),
        dict(cpu_ms=450.0),
        dict(cpu_ms=300.0),
        dict(pages=-5),
        dict(pages=0),
        dict(uarch=dict(NEUTRAL_UARCH, cache=0.0)),
        dict(uarch=dict(NEUTRAL_UARCH, branch=-0.5)),
    )
    return [
        dict(base, kind=kind, thread=thread, dvfs=dvfs, **edit)
        for edit in edits
        for dvfs in (None, 1.3)
        for kind in ApiKind
        for thread in (MAIN_THREAD, RENDER_THREAD, WORKER_THREAD)
    ]


def _segment_digest(model):
    sha = hashlib.sha256()
    for index, shape in enumerate(_shapes() + _edge_shapes()):
        rng = stream("segment-pin", index)
        counts = model.segment_counts(rng=rng, **shape)
        record = (
            [(event, float(value).hex()) for event, value in counts.items()],
            rng.bit_generator.state,
        )
        sha.update(repr(record).encode("utf-8"))
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(SEGMENT_MODELS))
def test_segment_counts_match_pinned_digest(device, name):
    options, digest = SEGMENT_MODELS[name]
    assert _segment_digest(CounterModel(device, **options)) == digest
