"""The shard journal and the resume invariants it guarantees.

The contract under test, straight from the substrate docs: a
checkpointed run renders byte-identically to an uncheckpointed one, an
interrupted-and-resumed run renders byte-identically to an
uninterrupted one (for any worker count, even with executor faults
injected), and a journal never serves stale shards to a
differently-parameterized sweep.
"""

import pickle

import pytest

from repro.checkpoint import JOURNAL_SCHEMA, ShardJournal, checkpointed_map, run_key
from repro.faults import FaultInjector, FaultPlan
from repro.harness.exp_chaos import chaos_sweep
from repro.parallel import ExecutionReport
from repro.telemetry import current, export_jsonl, session


def _triple(x):
    return x * 3


def _traced_triple(x):
    """Picklable shard function that records telemetry on its base
    track — the journal key names the track at absorb time."""
    tel = current()
    tel.count("triple.calls")
    tel.record_span("triple.compute", float(x), float(x) + 1.0)
    return x * 3


def _triple_dies_late(x):
    """Fail every shard past the fifth — an interrupt mid-sweep."""
    if x >= 5:
        raise RuntimeError(f"interrupted at {x}")
    return x * 3


# ----------------------------------------------------------- journal


def test_journal_round_trip(tmp_path):
    journal = ShardJournal(tmp_path, run_key("exp", 0)).open()
    assert journal.record("a", {"v": 1})
    assert journal.record("b", [1, 2, 3])
    assert journal.load("a") == (True, {"v": 1})
    assert journal.load("b") == (True, [1, 2, 3])
    assert journal.load("missing") == (False, None)
    assert journal.completed(["a", "missing", "b"]) == ["a", "b"]


def test_journal_resume_keeps_matching_run_key(tmp_path):
    key = run_key("exp", "LG_V10", 7)
    ShardJournal(tmp_path, key).open().record("s", 42)
    resumed = ShardJournal(tmp_path, key).open(resume=True)
    assert resumed.load("s") == (True, 42)


def test_journal_resets_on_run_key_mismatch(tmp_path):
    """Any changed sweep parameter changes the run key, and stale
    shards must never leak into the differently-parameterized run."""
    ShardJournal(tmp_path, run_key("exp", 7)).open().record("s", 42)
    other = ShardJournal(tmp_path, run_key("exp", 8)).open(resume=True)
    assert other.load("s") == (False, None)


def test_journal_without_resume_always_starts_empty(tmp_path):
    key = run_key("exp", 0)
    ShardJournal(tmp_path, key).open().record("s", 42)
    fresh = ShardJournal(tmp_path, key).open(resume=False)
    assert fresh.load("s") == (False, None)


def test_journal_treats_corruption_as_missing(tmp_path):
    journal = ShardJournal(tmp_path, run_key("exp", 0)).open()
    journal.record("s", 42)
    path = journal._entry_path("s")
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    assert journal.load("s") == (False, None)
    path.write_bytes(pickle.dumps(("someone-else", 99)))
    assert journal.load("s") == (False, None)  # mislabeled entry


def test_run_key_sensitive_to_every_part():
    base = run_key("chaos", "LG_V10", 0, (0.0, 0.2))
    assert base == run_key("chaos", "LG_V10", 0, (0.0, 0.2))
    assert base != run_key("chaos", "LG_V10", 1, (0.0, 0.2))
    assert base != run_key("chaos", "Nexus_5", 0, (0.0, 0.2))
    assert base != run_key("fleet", "LG_V10", 0, (0.0, 0.2))


def test_torn_write_leaves_existing_entry_intact(tmp_path):
    """The crash-atomic contract: a write that dies mid-stream never
    clobbers the previous good entry, and is accounted, not raised."""
    key = run_key("exp", 0)
    ShardJournal(tmp_path, key).open().record("s", "old")
    report = ExecutionReport()
    torn = ShardJournal(
        tmp_path, key,
        faults=FaultInjector(FaultPlan(torn_write_rate=1.0), seed=0),
        report=report,
    ).open(resume=True)
    assert not torn.record("s", "new")
    assert torn.load("s") == (True, "old")
    assert report.torn_writes == 1
    # The simulated crash leaves exactly what a real one would: a
    # truncated temp file beside the still-intact destination.
    litter = list(torn.shards_dir.glob("*.tmp.*"))
    assert len(litter) == 1
    entry = torn._entry_path("s")
    assert litter[0].stat().st_size < entry.stat().st_size


def test_journal_schema_mismatch_resets(tmp_path):
    key = run_key("exp", 0)
    journal = ShardJournal(tmp_path, key).open()
    journal.record("s", 42)
    manifest = journal.manifest_path.read_text()
    journal.manifest_path.write_text(
        manifest.replace(str(JOURNAL_SCHEMA), str(JOURNAL_SCHEMA + 1), 1)
    )
    assert ShardJournal(tmp_path, key).open(resume=True).load("s") == (
        False, None,
    )


# ---------------------------------------------------- checkpointed_map


def test_checkpointed_map_validates_keys():
    with pytest.raises(ValueError, match="one key per item"):
        checkpointed_map(_triple, [1, 2], ["a"], None)
    with pytest.raises(ValueError, match="unique"):
        checkpointed_map(_triple, [1, 2], ["a", "a"], None)


def test_checkpointed_map_without_journal_is_plain_map():
    assert checkpointed_map(_triple, [1, 2, 3], ["a", "b", "c"],
                            None, workers=2) == [3, 6, 9]


@pytest.mark.parametrize("workers", [1, 3])
def test_interrupted_map_resumes_byte_identically(tmp_path, workers):
    """Kill a sweep mid-run (here: shards past the fifth raise), then
    resume — completed shards come back from the journal and the merged
    result equals an uninterrupted run's exactly."""
    items = list(range(9))
    keys = [f"i{x}" for x in items]
    key = run_key("map", workers)
    journal = ShardJournal(tmp_path, key).open()
    with pytest.raises(RuntimeError, match="interrupted"):
        checkpointed_map(_triple_dies_late, items, keys, journal,
                         workers=workers)
    assert journal.completed(keys) == keys[:5]  # partial progress landed
    report = ExecutionReport()
    resumed = ShardJournal(tmp_path, key).open(resume=True)
    result = checkpointed_map(_triple, items, keys, resumed,
                              workers=workers, report=report)
    assert result == [_triple(x) for x in items]
    assert report.checkpoint_hits == 5


def test_checkpointed_map_traces_identically_with_and_without_journal(
    tmp_path,
):
    """Journal keys become telemetry tracks even when no journal is
    attached, so turning checkpointing on or off never changes the
    trace bytes."""
    items, keys = [1, 2, 3], ["k1", "k2", "k3"]
    with session() as unjournaled:
        checkpointed_map(_traced_triple, items, keys, None, workers=2)
    journal = ShardJournal(tmp_path, run_key("t", 0)).open()
    with session() as journaled:
        checkpointed_map(_traced_triple, items, keys, journal, workers=2)
    assert export_jsonl(journaled) == export_jsonl(unjournaled)
    assert {record.track for record in journaled.records} == set(keys)


def test_journal_key_carries_telemetry_marker(tmp_path):
    """A journal written with telemetry active stores carriers, one
    written without stores bare values — the run key keeps the two
    modes from consuming each other's entries."""
    key = run_key("t", 1)
    plain = ShardJournal(tmp_path, key).open()
    with session():
        observed = ShardJournal(tmp_path, key).open()
    assert observed.key != plain.key
    assert observed.key.endswith("+telemetry")


def test_checkpoint_restore_advisory_event_emitted(tmp_path):
    items, keys = [1, 2], ["a", "b"]
    with session():
        journal = ShardJournal(tmp_path, run_key("t", 2)).open()
        checkpointed_map(_traced_triple, items, keys, journal, workers=1)
    with session() as resumed:
        journal = ShardJournal(tmp_path, run_key("t", 2)).open(resume=True)
        checkpointed_map(_traced_triple, items, keys, journal, workers=1)
    names = [name for name, _ in resumed.advisory]
    assert names.count("checkpoint.restore") == 2


# ------------------------------------------------ sweep-level invariants


@pytest.fixture(scope="module")
def chaos_reference(device):
    return chaos_sweep(device, seed=0, rates=(0.0, 0.2),
                       apps=("K9-mail",), users=1, actions_per_user=10)


def test_chaos_checkpointed_equals_uncheckpointed(
    device, chaos_reference, tmp_path
):
    checkpointed = chaos_sweep(device, seed=0, rates=(0.0, 0.2),
                               apps=("K9-mail",), users=1,
                               actions_per_user=10, workers=2,
                               checkpoint=tmp_path)
    assert checkpointed.render() == chaos_reference.render()
    resumed = chaos_sweep(device, seed=0, rates=(0.0, 0.2),
                          apps=("K9-mail",), users=1, actions_per_user=10,
                          workers=2, checkpoint=tmp_path, resume=True)
    assert resumed.render() == chaos_reference.render()
    assert resumed.execution.checkpoint_hits == 2
    assert resumed.execution.shards == 0  # nothing re-ran


def test_chaos_resume_requires_checkpoint(device):
    with pytest.raises(ValueError, match="resume requires"):
        chaos_sweep(device, seed=0, rates=(0.0,), apps=("K9-mail",),
                    users=1, actions_per_user=10, resume=True)


@pytest.mark.parametrize("workers", [2, 4])
def test_chaos_byte_identical_under_injected_executor_faults(
    device, chaos_reference, tmp_path, workers
):
    """The acceptance invariant end to end: worker kills, stalls, and
    torn checkpoint writes injected into the supervisor change the
    execution report, never the rendered result — at any worker
    count."""
    plan = FaultPlan(worker_kill_rate=0.5, shard_stall_rate=0.5,
                     shard_stall_seconds=0.2, torn_write_rate=1.0)
    report = ExecutionReport()
    faulted = chaos_sweep(
        device, seed=0, rates=(0.0, 0.2), apps=("K9-mail",), users=1,
        actions_per_user=10, workers=workers,
        checkpoint=tmp_path / f"w{workers}", report=report,
        executor_faults=FaultInjector(plan, seed=3, scope=("executor",)),
    )
    assert faulted.render() == chaos_reference.render()
    assert report.torn_writes == 2  # every checkpoint write died
    assert report.degraded  # the faults really fired
