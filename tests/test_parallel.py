"""The parallel experiment runner and its equivalence guarantees.

Covers the executor primitive itself, the supervisor's failure paths
(worker crashes and deadlines hand shards back unfinished), the
per-app seed derivation of the fleet study, the remaining run merge,
and the headline guarantee: sharding an experiment across worker
processes changes nothing about its output.
"""

import math
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.apps.corpus import build_corpus
from repro.detectors.base import MonitoringCost
from repro.detectors.runner import DetectorRun
from repro.harness.deployment import fleet_app_seed
from repro.harness.exp_comparison import figure8, fit_utilization_thresholds
from repro.harness.exp_fleet import Table5Result, _table5_shape, table5
from repro.harness.exp_stability import fleet_stability
from repro.parallel import (
    ExecutionReport,
    PartialResult,
    parallel_map,
    resolve_workers,
)
from repro.sched import ElasticScheduler, pack_by_weight
from repro.sim.engine import ExecutionEngine
from repro.telemetry import current, export_jsonl, session


# ---------------------------------------------------------------- executor


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _boom_processy(x):
    raise RuntimeError(f"worker process could not fork item {x}")


def test_resolve_workers_defaults_to_cpu_count():
    assert resolve_workers(None) >= 1
    assert resolve_workers(0) == resolve_workers(None)
    assert resolve_workers(3) == 3
    with pytest.raises(ValueError):
        resolve_workers(-1)


def test_parallel_map_preserves_order():
    items = list(range(20))
    expected = dict(enumerate(_square(i) for i in items))
    assert parallel_map(_square, items, workers=1).values == expected
    assert parallel_map(_square, items, workers=4).values == expected


def test_parallel_map_falls_back_on_unpicklable_work():
    closure = lambda x: x + 1  # noqa: E731 - deliberately not module-level
    assert parallel_map(closure, [1, 2, 3], workers=4).values \
        == {0: 2, 1: 3, 2: 4}


def test_parallel_map_propagates_task_errors():
    with pytest.raises(ValueError, match="boom"):
        parallel_map(_boom, [1, 2], workers=1)
    with pytest.raises(ValueError, match="boom"):
        parallel_map(_boom, [1, 2], workers=2)


def test_parallel_map_propagates_processy_shard_errors():
    """Regression: shard exceptions whose message mentions pool-ish
    words ("process", "fork") used to be string-matched as pool
    startup failures and swallowed into the serial fallback — which
    then re-raised a *different* invocation's error.  Shard errors now
    cross the pool tagged in a sentinel, so the original exception
    propagates no matter what its message says."""
    with pytest.raises(RuntimeError, match="could not fork item"):
        parallel_map(_boom_processy, [1, 2], workers=2)


def test_resolve_workers_rejects_non_integers():
    assert resolve_workers("3") == 3
    for bad in ("x", 2.5, [2]):
        with pytest.raises((ValueError, TypeError)):
            resolve_workers(bad)


def test_parallel_map_workers_exceeding_item_count():
    assert parallel_map(_square, [7], workers=8).values == {0: 49}
    assert parallel_map(_square, [], workers=4).values == {}


# --------------------------------------------------------- supervision


def _die_in_worker(x):
    """Crash the hosting process — but only when it *is* a worker, so
    an in-process run completes the shard."""
    if x == 13 and multiprocessing.parent_process() is not None:
        os._exit(87)
    return x * x


def _stall_in_worker(x):
    """Outlive any sane deadline — in a worker; instant in-process."""
    if x == 2 and multiprocessing.parent_process() is not None:
        time.sleep(60.0)
    return x * x


def _ordered_boom(x):
    """Item 0's failure finishes *last* so out-of-order completion is
    exercised; the supervisor must still raise item 0's error."""
    if x == 0:
        time.sleep(0.3)
    raise ValueError(f"boom {x}")


def test_shard_failure_raised_in_submission_order():
    """When several shards fail, the *first submitted* failure wins
    even when a later shard's error arrives earlier."""
    with pytest.raises(ValueError, match="boom 0"):
        parallel_map(_ordered_boom, [0, 1, 2], workers=3)


def test_serial_fallback_is_reported_not_silent():
    closure = lambda x: x + 1  # noqa: E731 - deliberately unpicklable
    report = ExecutionReport()
    assert parallel_map(closure, [1, 2], workers=2,
                        report=report).values == {0: 2, 1: 3}
    assert report.serial_fallbacks == 1
    assert report.degraded
    assert any("serial" in event for event in report.events)


class _Unpicklable(int):
    """An int that refuses to cross a process boundary."""

    def __reduce__(self):
        raise TypeError("deliberately unpicklable")


def test_unpicklable_item_runs_in_process_beside_pooled_ones():
    """The pool ships every shard it can; the one it cannot runs
    in-process after the pool shuts down, in one serial fallback."""
    report = ExecutionReport()
    partial = parallel_map(_square, [2, _Unpicklable(3), 4], workers=2,
                           report=report)
    assert partial.values == {0: 4, 1: 9, 2: 16}
    assert partial.unfinished == ()
    assert report.pool_attempts == 1
    assert report.serial_fallbacks == 1


def test_on_result_hook_fires_per_shard_with_original_index():
    seen = {}
    parallel_map(_square, [3, 4, 5], workers=2,
                 on_result=lambda i, v: seen.setdefault(i, v))
    assert seen == {0: 9, 1: 16, 2: 25}
    seen.clear()
    parallel_map(_square, [3, 4], workers=1,
                 on_result=lambda i, v: seen.setdefault(i, v))
    assert seen == {0: 9, 1: 16}


def test_execution_report_merge_and_describe():
    clean = ExecutionReport()
    assert not clean.degraded
    assert "clean" in clean.describe()
    report = ExecutionReport(shards=4, worker_crashes=1, checkpoint_hits=2,
                             events=["worker-crash: pool broke"])
    assert report.degraded
    text = report.describe()
    assert "worker crash" in text or "crash" in text
    assert "pool broke" in text


def _traced_die_in_worker(x):
    """Crash the worker on item 13 *after* it recorded telemetry in a
    doomed process; only the records of the run that finishes it reach
    the parent."""
    tel = current()
    with tel.track(f"work/{x}"):
        tel.count("work.calls")
        if x == 13 and multiprocessing.parent_process() is not None:
            os._exit(87)
        tel.record_span("work.compute", float(x), float(x) + 1.0)
    return x * x


def test_telemetry_unperturbed_by_worker_crashes():
    """Supervision noise (crashes, reshards, re-dispatch rounds) lands
    on the advisory channel only: the deterministic export equals a
    clean serial run's even when workers died mid-sweep."""
    items = list(range(20))
    keys = [f"k{x}" for x in items]
    with session() as clean:
        assert ElasticScheduler(workers=1).map(
            _traced_die_in_worker, items, keys) == [x * x for x in items]
    report = ExecutionReport()
    with session() as crashed:
        result = ElasticScheduler(workers=4, report=report).map(
            _traced_die_in_worker, items, keys)
    assert result == [x * x for x in items]
    assert report.worker_crashes >= 1
    assert export_jsonl(crashed) == export_jsonl(clean)
    assert any(name == "executor.worker-crash"
               for name, _ in crashed.advisory)


def _gone(pid):
    """True once *pid* has exited; a zombie awaiting its reaper counts."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _wait_until_gone(pids, timeout):
    """The pids still running after up to *timeout* seconds."""
    end = time.monotonic() + timeout
    while True:
        alive = [pid for pid in pids if not _gone(pid)]
        if not alive or time.monotonic() > end:
            return alive
        time.sleep(0.1)


def _recorded_pids(directory, count, timeout=10.0):
    end = time.monotonic() + timeout
    while True:
        pids = [int(path.name) for path in directory.iterdir()]
        if len(pids) >= count or time.monotonic() > end:
            return pids
        time.sleep(0.05)


def _kill_leftovers(pids):
    for pid in pids:
        if not _gone(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def _record_pid_then_stall(directory):
    """Record the worker's pid, then stall — in a worker only."""
    if multiprocessing.parent_process() is not None:
        (pathlib.Path(directory) / str(os.getpid())).touch()
        time.sleep(60.0)
    return directory


_KILLED_PARENT_SCRIPT = textwrap.dedent("""
    import os
    import pathlib
    import sys
    import time

    from repro.parallel import parallel_map


    def record_pid_then_stall(directory):
        (pathlib.Path(directory) / str(os.getpid())).touch()
        time.sleep(60.0)


    if __name__ == "__main__":
        parallel_map(record_pid_then_stall, [sys.argv[1]] * 2, workers=2)
""")


@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="reads process states from /proc")
def test_pool_workers_exit_when_their_parent_is_killed(tmp_path):
    """A SIGKILLed parent shuts nothing down; its workers notice that
    their parent is gone and exit instead of blocking for good."""
    script = tmp_path / "sweep.py"
    script.write_text(_KILLED_PARENT_SCRIPT)
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    source_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source_root, os.environ.get("PYTHONPATH")])))
    parent = subprocess.Popen([sys.executable, str(script), str(pid_dir)],
                              env=env)
    pids = []
    try:
        pids = _recorded_pids(pid_dir, 2)
        assert len(pids) == 2
        parent.kill()
        parent.wait(timeout=5)
        assert _wait_until_gone(pids, 5.0) == []
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait(timeout=5)
        _kill_leftovers(pids)


@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="reads process states from /proc")
def test_stalled_shards_workers_are_killed(tmp_path):
    """An abandoned stalled shard would keep its worker running, and
    the interpreter's exit would wait for it: its worker is killed."""
    pids = []
    try:
        partial = parallel_map(_record_pid_then_stall, [str(tmp_path)] * 2,
                               workers=2, deadline=0.5)
        assert partial.stalled == (0, 1)
        pids = [int(path.name) for path in tmp_path.iterdir()]
        assert len(pids) == 2
        assert _wait_until_gone(pids, 5.0) == []
    finally:
        _kill_leftovers(pids)


# ------------------------------------------------------- per-app seeding


def test_fleet_app_seed_distinct_per_app_and_root():
    assert fleet_app_seed(0, "K9-mail") != fleet_app_seed(0, "AndStatus")
    assert fleet_app_seed(0, "K9-mail") != fleet_app_seed(1, "K9-mail")
    assert fleet_app_seed(3, "GenApp-001") == fleet_app_seed(3, "GenApp-001")


def test_distinct_apps_draw_distinct_noise(device, k9):
    """Regression: the fleet once seeded every app's engine with the
    same root seed, cross-correlating all 114 apps' RNG streams."""
    action = k9.actions[0]
    engine_a = ExecutionEngine(device, seed=fleet_app_seed(0, "K9-mail"))
    engine_b = ExecutionEngine(device, seed=fleet_app_seed(0, "AndStatus"))
    times_a = [engine_a.run_action(k9, action).response_time_ms
               for _ in range(5)]
    times_b = [engine_b.run_action(k9, action).response_time_ms
               for _ in range(5)]
    assert times_a != times_b


# ------------------------------------------------------- result paths


def test_table5_missed_offline_percent_nan_when_empty():
    empty = Table5Result(rows=[], apps_tested=4, clean_apps_flagged=0,
                         new_blocking_apis=[])
    assert math.isnan(empty.missed_offline_percent)
    assert "n/a of detected bugs" in empty.render()


def test_detector_run_merge_sums_costs_in_order():
    run_a = DetectorRun(detector_name="HD", executions=["e1"],
                        outcomes=["o1"],
                        cost=MonitoringCost(rt_events=2, trace_samples=5))
    run_b = DetectorRun(detector_name="HD", executions=["e2"],
                        outcomes=["o2"],
                        cost=MonitoringCost(rt_events=3, analyses=1))
    merged = DetectorRun.merge([run_a, run_b])
    assert merged.executions == ["e1", "e2"]
    assert merged.outcomes == ["o1", "o2"]
    assert merged.cost.rt_events == 5
    assert merged.cost.trace_samples == 5
    assert merged.cost.analyses == 1
    with pytest.raises(ValueError):
        DetectorRun.merge([run_a, DetectorRun(detector_name="TI")])
    with pytest.raises(ValueError):
        DetectorRun.merge([])


# -------------------------------------------- parallel-equals-serial


@pytest.fixture(scope="module")
def small_fleet_serial(device):
    return table5(device, seed=0, users=1, actions_per_user=10,
                  corpus_size=22, workers=1)


@pytest.mark.parametrize("workers", [2, 4])
def test_table5_parallel_equals_serial(device, small_fleet_serial, workers):
    parallel = table5(device, seed=0, users=1, actions_per_user=10,
                      corpus_size=22, workers=workers)
    assert parallel.render() == small_fleet_serial.render()
    # The rendered count hides the order of the runtime discoveries.
    assert parallel.new_blocking_apis == small_fleet_serial.new_blocking_apis


def test_table5_repeated_runs_deterministic(device, small_fleet_serial):
    again = table5(device, seed=0, users=1, actions_per_user=10,
                   corpus_size=22, workers=1)
    assert again.render() == small_fleet_serial.render()


def test_table5_plan_balances_session_weight():
    """Table 5's 2-worker plan at the paper's size (seed 7, 5 users x
    80 actions): the groups partition the corpus and their session
    weights are balanced.  Contiguous halves read 1.48 here, because
    the 16 heavy catalog apps are corpus indices 0-15."""
    apps = build_corpus(seed=7)
    shapes = [_table5_shape(app, users=5, actions_per_user=80)
              for app in apps]
    weights = [users * actions for users, actions in shapes]
    groups = pack_by_weight(weights, 2)
    assert sorted(i for group in groups for i in group) == \
        list(range(len(apps)))
    loads = [sum(weights[i] for i in group) for group in groups]
    assert len(loads) == 2
    assert max(loads) / (sum(loads) / len(loads)) <= 1.01


def test_figure8_parallel_equals_serial(device):
    thresholds = fit_utilization_thresholds(device, seed=5, runs_per_case=2)
    kwargs = dict(seed=5, users=1, actions_per_user=8,
                  app_names=("K9-mail", "AndStatus"), thresholds=thresholds)
    serial = figure8(device, workers=1, **kwargs)
    parallel = figure8(device, workers=2, **kwargs)
    assert parallel.render() == serial.render()


def test_fleet_stability_parallel_equals_serial(device):
    kwargs = dict(seeds=(1, 2), users=1, actions_per_user=8,
                  corpus_size=22)
    serial = fleet_stability(device, workers=1, **kwargs)
    parallel = fleet_stability(device, workers=2, **kwargs)
    assert parallel.render() == serial.render()
    assert parallel.seeds == (1, 2)


# ------------------------------------------- unfinished shards


def _sleepy_square(x):
    """Slow-but-progressing work: every shard takes real time but
    none of them is stalled."""
    if multiprocessing.parent_process() is not None:
        time.sleep(0.6)
    return x * x


def _stall_one_sleep_rest(x):
    """Item 0 stalls outright; the rest are merely slow."""
    if multiprocessing.parent_process() is not None:
        time.sleep(60.0 if x == 0 else 0.6)
    return x * x


def test_reclaim_serial_path_completes_everything():
    partial = parallel_map(_square, [1, 2, 3], workers=1)
    assert isinstance(partial, PartialResult)
    assert partial.values == {0: 1, 1: 4, 2: 9}
    assert partial.unfinished == ()


def test_reclaim_returns_crashed_shards_unfinished():
    """Worker-death casualties go back to the caller instead of to a
    rebuilt pool: exactly one attempt runs."""
    report = ExecutionReport()
    partial = parallel_map(_die_in_worker, list(range(20)), workers=4,
                           report=report)
    assert 13 in partial.crashed
    assert all(partial.values[i] == i * i for i in partial.values)
    assert report.pool_attempts == 1
    assert report.in_process_shards == 0


def test_reclaim_returns_stalled_shards_unfinished():
    report = ExecutionReport()
    partial = parallel_map(_stall_in_worker, list(range(4)), workers=2,
                           deadline=1.0, report=report)
    assert partial.stalled == (2,)
    assert set(partial.values) == {0, 1, 3}
    assert report.deadline_hits == 1
    assert report.in_process_shards == 0


def test_reclaim_propagates_task_errors():
    with pytest.raises(ValueError, match="boom"):
        parallel_map(_boom, [1, 2], workers=2)


def test_deadline_measured_from_submission_not_drain_order():
    """Regression: the drain loop waits on futures in index order, and
    the per-shard deadline used to start ticking only when a shard's
    *turn* came — so a slow-but-progressing pool granted a stalled
    shard one fresh deadline per earlier slow shard.  The deadline now
    measures from submission: the stalled shard times out once, about
    one deadline after the map started, no matter how many slow shards
    drained before it."""
    report = ExecutionReport()
    start = time.monotonic()
    partial = parallel_map(_stall_one_sleep_rest, list(range(4)),
                           workers=4, deadline=1.2, report=report)
    elapsed = time.monotonic() - start
    assert partial.stalled == (0,)
    assert set(partial.values) == {1, 2, 3}
    assert report.deadline_hits == 1
    # Old behaviour: item 0 is first in drain order, gets a full 1.2s,
    # times out, then items 1..3 drain — fine.  But reverse the stall
    # and every slow shard's wait would have extended the stalled
    # one's budget.  The submission-measured deadline bounds the whole
    # call near one deadline (plus slack for pool startup).
    assert elapsed < 5.0
    assert any("since submission" in event for event in report.events)


def test_slow_but_progressing_pool_grants_one_deadline_total():
    """The sharper half of the regression: the *stalled* shard drains
    last, after three slow shards, and must still be declared stalled
    — its elapsed time already exceeds the deadline when its turn
    comes, so the wait is (near) zero rather than a fresh 1.2s."""
    report = ExecutionReport()
    start = time.monotonic()
    partial = parallel_map(_stall_last_sleep_rest, list(range(4)),
                           workers=4, deadline=1.2, report=report)
    elapsed = time.monotonic() - start
    assert partial.stalled == (3,)
    assert report.deadline_hits == 1
    # With drain-order deadlines this would take ~0.6 (slow shards)
    # + 1.2 (fresh deadline for the stalled one) at minimum, and the
    # stalled shard historically got up to three extra grants.  From
    # submission it is ~max(0.6, 1.2) + startup slack.
    assert elapsed < 3.0


def _stall_last_sleep_rest(x):
    """Highest index stalls; earlier indices are slow, so the stalled
    shard's turn in the index-ordered drain comes last."""
    if multiprocessing.parent_process() is not None:
        time.sleep(60.0 if x == 3 else 0.6)
    return x * x


def test_report_new_counters_round_trip_and_describe():
    report = ExecutionReport(steals=2, reshards=3, churn_events=4)
    payload = report.to_dict()
    assert payload["steals"] == 2
    assert payload["reshards"] == 3
    assert payload["churn_events"] == 4
    text = report.describe()
    assert "stolen" in text
    assert "resharded" in text
    assert "churn" in text
    # Scheduling activity is advisory: it never flips degraded.
    assert not report.degraded
