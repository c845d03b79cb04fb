"""Elastic-scheduler overhead and stream-mode perf trajectory.

Not a paper artifact: the elastic scheduler (:mod:`repro.sched`) adds
a dispatch-round loop and journaling hooks between the harnesses and
the executor, and the sweeps pack their shards with
:func:`~repro.sched.pack_by_weight`; these benchmarks keep that price
visible.  The gated entry is a same-machine *ratio* — elastic
dispatch over a plain ``parallel_map`` of the identical workload — so
it travels across machines; absolute timings are informational.
"""

import time

from repro.harness.exp_stream import stream_sweep
from repro.parallel import parallel_map
from repro.sched import ElasticScheduler, pack_by_weight

PACK_SIZE = 1000


def _best_seconds(thunk, reps=3):
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - started)
    return best


def test_pack_by_weight_throughput(bench_record):
    """Packing 1000 weighted items should stay sub-millisecond-ish —
    it runs once per dispatch round."""
    weights = [1.0 + (i % 6) * 0.25 for i in range(PACK_SIZE)]

    def pack():
        groups = pack_by_weight(weights, 8)
        assert sum(len(g) for g in groups) == PACK_SIZE

    seconds = _best_seconds(pack)
    bench_record(
        "stream", "sched.pack_1k_ms", seconds * 1000.0,
        unit="ms", higher_is_better=False, tolerance=None,
    )


def _busy(n):
    total = 0
    for i in range(n):
        total += i * i
    return total


def test_scheduler_dispatch_overhead_ratio(bench_record):
    """Elastic dispatch vs a plain parallel_map of the same workload,
    same worker count — the scheduler's loop and accounting are
    everything the ratio pays for.  Same-machine ratio, so it
    gates the trajectory."""
    items = [20_000] * 48
    keys = [f"i{n}" for n in range(len(items))]

    plain = _best_seconds(
        lambda: parallel_map(_busy, items, workers=2)
    )

    def elastic():
        ElasticScheduler(workers=2).map(_busy, items, keys)

    sched = _best_seconds(elastic)
    ratio = sched / plain if plain > 0 else float("inf")
    bench_record(
        "stream", "sched.dispatch_overhead_ratio", ratio,
        unit="x", higher_is_better=False, tolerance=1.0,
    )
    bench_record(
        "stream", "sched.dispatch_48_shards_s", sched,
        unit="s", higher_is_better=False, tolerance=None,
    )


def test_stream_round_trajectory(device, bench_record, archive):
    """Wall time per stream round at the quick-preset scale."""
    started = time.perf_counter()
    result = stream_sweep(device, seed=5, rounds=3, fleet_size=2,
                          churn_rate=0.25, apps=("K9-mail",),
                          actions_per_round=8, workers=2)
    seconds = time.perf_counter() - started
    archive("stream_quick", result.render())
    assert len(result.rounds) == 3
    bench_record(
        "stream", "stream.round_ms", seconds * 1000.0 / 3,
        unit="ms", higher_is_better=False, tolerance=None,
    )
