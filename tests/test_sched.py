"""The elastic shard scheduler and continuous fleet mode.

The headline guarantees under test: weight packing is a deterministic
partition, the scheduler's output equals a plain serial map under any
injected kill/stall storm (failure schedules change timing, never
bytes), every steal/reshard decision is journaled before it is acted
on, the round loop packs one shard per worker without a deadline or
any benchmark file, and ``stream_sweep`` renders byte-identically
across worker counts, executor storms, checkpoint resume — and
reproduces the crowd sweep's aggregate bit-for-bit when churn and
faults are off.
"""

import builtins
import math
import multiprocessing
import os
import pathlib
import re
import time

import pytest

from repro.checkpoint import ShardJournal, run_key
from repro.cli import main
from repro.faults import FaultInjector, FaultPlan
from repro.harness.exp_crowd import crowd_sweep
from repro.harness.exp_stream import StreamResult, stream_sweep
from repro.parallel import ExecutionReport
from repro.sched import ElasticScheduler, pack_by_weight

# ------------------------------------------------------------- packing


def test_pack_by_weight_partitions_ascending():
    for count in (0, 1, 5, 7, 40):
        for bins in (1, 2, 4, 13):
            weights = [1.0 + (i % 5) for i in range(count)]
            groups = pack_by_weight(weights, bins)
            flat = sorted(i for group in groups for i in group)
            assert flat == list(range(count))
            for group in groups:
                assert list(group) == sorted(group)
            if count:
                assert len(groups) <= min(bins, count)
            else:
                assert groups == []


def test_pack_by_weight_is_deterministic():
    weights = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    assert pack_by_weight(weights, 3) == pack_by_weight(weights, 3)


def test_pack_by_weight_balances_heavy_items():
    # One heavy item gets a bin of its own; light items share.
    assert pack_by_weight([3.0, 1.0, 1.0, 1.0], 2) == [(0,), (1, 2, 3)]
    # Uniform weights degrade to near-equal counts.
    groups = pack_by_weight([1.0] * 10, 3)
    sizes = sorted(len(g) for g in groups)
    assert max(sizes) - min(sizes) <= 1


def test_pack_by_weight_load_spread_beats_contiguous_split():
    """The point of weighted packing: with skewed weights, the max
    bin load stays close to the ideal (total / bins), which a
    contiguous count-based split cannot promise."""
    weights = [5.0 if i % 7 == 0 else 1.0 for i in range(35)]
    groups = pack_by_weight(weights, 5)
    loads = [sum(weights[i] for i in group) for group in groups]
    ideal = sum(weights) / 5
    assert max(loads) <= ideal + max(weights)


def test_pack_by_weight_rejects_bad_bins():
    with pytest.raises(ValueError, match="bins"):
        pack_by_weight([1.0], 0)
    assert pack_by_weight([], 0) == []


# ----------------------------------------------------------- scheduler


def _cube(x):
    return x ** 3


def _die_on_17(x):
    if x == 17 and multiprocessing.parent_process() is not None:
        os._exit(87)
    return x ** 3


def _stall_on_2(x):
    if x == 2 and multiprocessing.parent_process() is not None:
        time.sleep(60.0)
    return x ** 3


def test_scheduler_map_matches_serial():
    items = list(range(15))
    expected = [_cube(x) for x in items]
    keys = [f"k{i}" for i in items]
    for workers in (1, 2, 4):
        sched = ElasticScheduler(workers=workers)
        assert sched.map(_cube, items, keys) == expected


def test_scheduler_map_validates_inputs():
    sched = ElasticScheduler(workers=1)
    with pytest.raises(ValueError, match="one key per item"):
        sched.map(_cube, [1, 2], ["only"])
    with pytest.raises(ValueError, match="unique"):
        sched.map(_cube, [1, 2], ["same", "same"])


@pytest.mark.parametrize("deadline", [0.0, -1.0, math.nan, math.inf])
def test_scheduler_rejects_deadline_not_positive_finite(deadline):
    """A deadline of 0, below 0 or NaN would steal every shard and run
    the work in-process; inf overflows the executor's timeout."""
    with pytest.raises(ValueError,
                       match=re.escape(f"got {deadline!r}")):
        ElasticScheduler(workers=2, deadline=deadline)


def test_stream_cli_rejects_deadline_not_positive_finite(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["stream", "--quick", "--deadline", "nan"])
    assert exit_info.value.code == 2
    assert "--deadline" in capsys.readouterr().err


def test_for_sweep_rejects_bad_deadline_before_opening_journal(tmp_path):
    """Opening a journal without resume clears it, so a rejected call
    must fail before that."""
    journal = ShardJournal(tmp_path, run_key("sched-early")).open()
    journal.record({"kept": 1})
    with pytest.raises(ValueError, match="deadline"):
        ElasticScheduler.for_sweep("sched-early", checkpoint=tmp_path,
                                   deadline=0.0)
    assert len(list(journal.shards_dir.iterdir())) == 1


def test_scheduler_output_survives_kill_storm():
    """Injected worker kills reshard work across dispatch rounds; the
    result equals a serial map and the reshards are accounted."""
    items = list(range(24))
    expected = [_cube(x) for x in items]
    plan = FaultPlan(worker_kill_rate=0.5)
    report = ExecutionReport()
    sched = ElasticScheduler(
        workers=3, report=report,
        faults=FaultInjector(plan, seed=5, scope=("storm",)),
    )
    assert sched.map(_cube, items, [f"k{i}" for i in items]) == expected
    assert report.reshards >= 1
    assert sched.dispatch_rounds >= 2


def test_scheduler_steals_from_real_straggler():
    """A genuinely stalled worker blows the seeded deadline; its shard
    is stolen and re-dispatched whole, and because the stall verdict is
    worker-only, the re-dispatch completes it."""
    items = list(range(6))
    expected = [_cube(x) for x in items]
    report = ExecutionReport()
    sched = ElasticScheduler(workers=3, report=report, deadline=1.0)
    result = sched.map(_stall_on_2, items, [f"k{i}" for i in items])
    # _stall_on_2 only stalls in a worker process; the steal sends
    # item 2 to a later dispatch where it may stall again, and after
    # MAX_IDLE_ROUNDS the fallback completes it in-process.
    assert result == expected
    assert report.steals >= 1
    assert report.deadline_hits >= 1


def test_scheduler_journals_decisions_before_acting(tmp_path):
    """The write-ahead contract: the reassignment log carries every
    assignment and reshard, assignments strictly before the
    steal/reshard they produced."""
    report = ExecutionReport()
    journal = ShardJournal(tmp_path, run_key("sched-test")).open()
    plan = FaultPlan(worker_kill_rate=0.5)
    sched = ElasticScheduler(
        workers=3, report=report, journal=journal,
        faults=FaultInjector(plan, seed=5, scope=("storm",)),
    )
    items = list(range(24))
    assert sched.map(_cube, items, [f"k{i}" for i in items]) \
        == [_cube(x) for x in items]
    records = journal.reassignments()
    kinds = [record["kind"] for record in records]
    assert kinds[0] == "assign"
    assert "reshard" in kinds
    # Every resharded item was named in a prior assignment.
    assigned = set()
    for record in records:
        if record["kind"] == "assign":
            for shard in record["shards"]:
                assigned.update(shard)
        elif record["kind"] in ("steal", "reshard"):
            assert set(record["items"]) <= assigned


def test_scheduler_resumes_from_journal(tmp_path):
    report = ExecutionReport()
    journal = ShardJournal(tmp_path, run_key("sched-resume")).open()
    items = list(range(8))
    keys = [f"k{i}" for i in items]
    expected = [_cube(x) for x in items]
    first = ElasticScheduler(workers=2, journal=journal, report=report)
    assert first.map(_cube, items, keys) == expected
    resumed = ShardJournal(tmp_path, run_key("sched-resume"),
                           report=report).open(resume=True)
    second = ElasticScheduler(workers=2, journal=resumed, report=report)
    assert second.map(_cube, items, keys) == expected
    assert report.checkpoint_hits >= len(items)


def test_scheduler_resume_packs_only_pending_items(tmp_path):
    """Journaled items restore before the first round packs, so a
    resume's one round packs the pending items alone into one shard
    per worker.  Here the journal holds the first shard of a killed
    2-worker run: items 0, 2, 4 and 6."""
    items = list(range(8))
    keys = [f"k{i}" for i in items]
    ShardJournal(tmp_path, run_key("sched-pending")).open().record(
        {keys[i]: _cube(i) for i in (0, 2, 4, 6)})
    journal = ShardJournal(tmp_path, run_key("sched-pending")).open(
        resume=True)
    report = ExecutionReport()
    sched = ElasticScheduler(workers=2, journal=journal, report=report)
    assert sched.map(_cube, items, keys, weights=[1.0] * 8) \
        == [_cube(x) for x in items]
    (assign,) = [record for record in journal.reassignments()
                 if record["kind"] == "assign"]
    assert len(assign["shards"]) == 2
    assert sorted(key for shard in assign["shards"] for key in shard) \
        == ["k1", "k3", "k5", "k7"]
    assert report.shards == 2
    assert report.checkpoint_hits == 4


def test_scheduler_worker_crash_recovery_without_injection():
    """A real (non-injected) worker death reshards instead of
    serializing: output is unchanged and the report says what
    happened."""
    items = list(range(24))
    expected = [_cube(x) for x in items]
    report = ExecutionReport()
    sched = ElasticScheduler(workers=3, report=report)
    assert sched.map(_die_on_17, items, [f"k{i}" for i in items]) \
        == expected
    assert report.worker_crashes >= 1
    assert report.reshards >= 1


class _EntrySeesLog(ShardJournal):
    """A journal noting, as each shard result lands, which decisions
    the reassignment log already holds."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.logged_before = {}

    def record(self, entries):
        for key in entries:
            self.logged_before[str(key)] = [
                record["kind"] for record in self.reassignments()
            ]
        return super().record(entries)


def test_scheduler_escape_hatch_runs_doomed_shards_in_process(tmp_path):
    """Shards whose worker always dies leave every pooled round idle
    (two of them, since a lone shard already runs in-process); after
    MAX_IDLE_ROUNDS the scheduler logs a fallback, then runs them
    in-process and counts them there."""
    report = ExecutionReport()
    journal = _EntrySeesLog(tmp_path, run_key("sched-hatch")).open()
    sched = ElasticScheduler(workers=2, report=report, journal=journal)
    assert sched.map(_die_on_17, [17, 17], ["a", "b"]) == [17 ** 3] * 2
    assert report.in_process_shards == 2
    assert report.worker_crashes >= 2
    assert sched.dispatch_rounds == 3
    fallback = journal.reassignments()[-1]
    assert fallback == {"kind": "fallback", "items": ["a", "b"]}
    for key in ("a", "b"):
        assert "fallback" in journal.logged_before[key]


# ----------------------------------------------------------- streaming


QUICK = dict(rounds=3, fleet_size=2, apps=("K9-mail",),
             actions_per_round=8)


@pytest.fixture(scope="module")
def stream_serial(device):
    return stream_sweep(device, seed=5, churn_rate=0.25, workers=1,
                        **QUICK)


@pytest.fixture()
def benchmarks_unreadable(monkeypatch):
    """Every read of a file with a ``benchmarks`` path component fails,
    as it does in an install that ships no benchmark baselines."""
    read_text = pathlib.Path.read_text
    real_open = builtins.open

    def refuse(path):
        if "benchmarks" in pathlib.Path(path).parts:
            raise OSError(f"no benchmark file in this install: {path}")

    def guarded_read_text(self, *args, **kwargs):
        refuse(self)
        return read_text(self, *args, **kwargs)

    def guarded_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            refuse(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "read_text", guarded_read_text)
    monkeypatch.setattr(builtins, "open", guarded_open)


def _journal_entries(directory):
    return len(list((pathlib.Path(directory) / "shards").iterdir()))


def test_round_loop_packs_without_deadline_or_benchmarks(
        device, stream_serial, benchmarks_unreadable, tmp_path):
    """The round loop packs each round into at most one shard per
    worker by itself: at workers 1 the stream journals one entry per
    round, and crowd one per round and fleet size on top of its
    baseline's one per device round."""
    stream = stream_sweep(device, seed=5, churn_rate=0.25, workers=1,
                          checkpoint=tmp_path / "stream", **QUICK)
    assert _journal_entries(tmp_path / "stream") == QUICK["rounds"]
    assert stream.render() == stream_serial.render()
    crowd = crowd_sweep(device, seed=5, fleet_sizes=(2, 3), rounds=2,
                        apps=("K9-mail",), actions_per_round=8,
                        workers=1, checkpoint=tmp_path / "crowd")
    assert _journal_entries(tmp_path / "crowd") == 3 * 2 + 2 * 2
    assert crowd.render() == crowd_sweep(
        device, seed=5, fleet_sizes=(2, 3), rounds=2, apps=("K9-mail",),
        actions_per_round=8, workers=2,
    ).render()


@pytest.mark.parametrize("workers", [2, 4])
def test_stream_parallel_equals_serial(device, stream_serial, workers):
    parallel = stream_sweep(device, seed=5, churn_rate=0.25,
                            workers=workers, **QUICK)
    assert parallel.render() == stream_serial.render()


def test_stream_output_identical_under_executor_storm(device,
                                                      stream_serial):
    """The acceptance criterion: any seeded kill/stall schedule leaves
    rendered output byte-identical to the zero-fault run."""
    stormed = stream_sweep(device, seed=5, churn_rate=0.25, workers=2,
                           worker_kill_rate=0.4, shard_stall_rate=0.4,
                           **QUICK)
    assert stormed.render() == stream_serial.render()
    assert stormed.execution.reshards + stormed.execution.steals >= 1


def test_stream_churn_schedule_is_seeded_data(device):
    """Churn draws from the keyed fleet channel: the membership
    schedule repeats per seed, differs across seeds, and lands in the
    rendered series."""
    once = stream_sweep(device, seed=9, churn_rate=0.5, workers=1,
                        **QUICK)
    again = stream_sweep(device, seed=9, churn_rate=0.5, workers=1,
                         **QUICK)
    other = stream_sweep(device, seed=10, churn_rate=0.5, workers=1,
                         **QUICK)
    assert once.render() == again.render()
    schedules = [(r.fleet, r.joined, r.left) for r in once.rounds]
    assert schedules != [(r.fleet, r.joined, r.left)
                         for r in other.rounds]
    assert any(r.joined or r.left for r in once.rounds)
    assert once.execution.churn_events \
        == sum(len(r.joined) + len(r.left) for r in once.rounds)


def test_stream_fleet_never_empties(device):
    result = stream_sweep(device, seed=2, churn_rate=0.95, workers=1,
                          **QUICK)
    assert all(len(r.fleet) >= 1 for r in result.rounds)


def test_stream_publish_cadence(device):
    """publish_every > 1 holds the snapshot between refreshes: the
    known-bug count a non-publish round runs with equals the previous
    round's."""
    result = stream_sweep(device, seed=5, publish_every=2, workers=1,
                          rounds=4, fleet_size=2, apps=("K9-mail",),
                          actions_per_round=8)
    for entry in result.rounds:
        assert entry.published == (entry.round_index % 2 == 0)
    for prev, this in zip(result.rounds, result.rounds[1:]):
        if not this.published:
            assert this.known_bugs == prev.known_bugs
            assert this.blocking_apis == prev.blocking_apis


def test_stream_reproduces_crowd_cell_bit_for_bit(device):
    """Acceptance criterion: with churn and executor faults zero and a
    static fleet, the stream's aggregate equals the crowd sweep's cell
    for the same fleet size, field for field."""
    stream = stream_sweep(device, seed=3, rounds=2, fleet_size=2,
                          apps=("K9-mail",), actions_per_round=8,
                          workers=2)
    crowd = crowd_sweep(device, seed=3, fleet_sizes=(2,), rounds=2,
                        apps=("K9-mail",), actions_per_round=8,
                        workers=1)
    cell = crowd.cell(2)
    assert stream.final_summary() == {
        "phase2_collections": cell.phase2_collections,
        "kb_short_circuits": cell.kb_short_circuits,
        "bugs_detected": cell.bugs_detected,
        "known_bugs": cell.known_bugs,
        "new_blocking_apis": cell.new_blocking_apis,
        "batches_ingested": cell.batches_ingested,
        "batches_dropped": cell.batches_dropped,
        "batches_duplicated": cell.batches_duplicated,
        "batches_late": cell.batches_late,
        "duplicates_ignored": cell.duplicates_ignored,
    }


def test_stream_resume_is_byte_identical(device, tmp_path):
    """A checkpointed stream resumes from its journal and renders the
    same bytes; the resumed run restores at least one shard instead of
    recomputing everything."""
    kwargs = dict(seed=5, churn_rate=0.25, workers=2, **QUICK)
    clean = stream_sweep(device, **kwargs)
    first = stream_sweep(device, checkpoint=str(tmp_path), **kwargs)
    assert first.render() == clean.render()
    resumed = stream_sweep(device, checkpoint=str(tmp_path),
                           resume=True, **kwargs)
    assert resumed.render() == clean.render()
    assert resumed.execution.checkpoint_hits >= 1


def test_stream_run_key_excludes_executor_knobs(device, tmp_path):
    """Failure-schedule independence of resume: a journal written
    under one storm serves a resume under a different storm (or none),
    because executor knobs shape timing, never output."""
    kwargs = dict(seed=5, churn_rate=0.25, workers=2, **QUICK)
    stormed = stream_sweep(device, checkpoint=str(tmp_path),
                           worker_kill_rate=0.4, **kwargs)
    calm = stream_sweep(device, checkpoint=str(tmp_path), resume=True,
                        **kwargs)
    assert calm.render() == stormed.render()
    assert calm.execution.checkpoint_hits >= 1


def test_stream_validates_parameters(device):
    with pytest.raises(ValueError, match="fleet_size"):
        stream_sweep(device, fleet_size=0)
    with pytest.raises(ValueError, match="rounds"):
        stream_sweep(device, rounds=0)
    with pytest.raises(ValueError, match="publish_every"):
        stream_sweep(device, publish_every=0)
    with pytest.raises(ValueError, match="churn_rate"):
        stream_sweep(device, churn_rate=1.5)
    with pytest.raises(ValueError, match="worker_kill_rate"):
        stream_sweep(device, worker_kill_rate=-0.1)
    with pytest.raises(ValueError, match="resume requires"):
        stream_sweep(device, resume=True)


def test_stream_result_render_mentions_series_and_aggregate(device,
                                                            stream_serial):
    text = stream_serial.render()
    assert "Stream - " in text
    assert "aggregate:" in text
    assert isinstance(stream_serial, StreamResult)
    assert stream_serial.device_rounds \
        == sum(len(r.fleet) for r in stream_serial.rounds)
