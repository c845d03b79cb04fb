"""The crowd backend: ingestion, dedup, publishing, and the sweep.

The acceptance properties: aggregator merge is associative,
commutative, and idempotent for any batch arrival order (shuffled,
duplicated, sharded); the persisted state round-trips and survives
corruption; the Hang Doctor short-circuit skips phase-2 collections
for fleet-known bugs; and the fleet-size sweep is monotone (per
device-round collections never rise with fleet size), strictly below
the isolated baseline at the largest fleet, and byte-identical across
worker counts and repeat runs at fault rate 0.
"""

import random

import pytest

from repro.cli import main
from repro.core.blocking_db import BlockingApiDatabase
from repro.core.hang_doctor import HangDoctor, known_bug_frame
from repro.core.report import (
    OCCURRENCE_BUCKETS,
    HangBugReport,
    occurrence_bucket,
    report_from_json,
    report_to_json,
)
from repro.core.states import ActionState
from repro.crowd import (
    CrowdAggregator,
    CrowdKnowledge,
    KnownBug,
    ReportBatch,
    aggregator_from_json,
    aggregator_to_json,
    batch_to_dict,
    load_aggregator,
)
from repro.detectors.runner import run_detector
from repro.harness.exp_crowd import crowd_sweep
from repro.sim.engine import ExecutionEngine


def make_report(app_name="K9-mail", entries=3, device_tag=0):
    """A small synthetic Hang Bug Report with distinct root causes."""
    report = HangBugReport(app_name)
    for index in range(entries):
        report.record(
            operation=f"org.example.Api{device_tag}.call{index}",
            file=f"Api{device_tag}.java",
            line=10 + index,
            is_self_developed=(index % 2 == 1),
            response_time_ms=900.0 + 50 * index,
            occurrence_factor=0.3 + 0.2 * index,
            device_id=device_tag,
            action=f"action-{index}",
        )
    return report


def make_batches(count=6):
    """Distinct batches from several simulated devices."""
    return [
        ReportBatch.from_report(
            make_report(device_tag=tag), device_id=tag, time_ms=float(tag)
        )
        for tag in range(count)
    ]


# ---------------------------------------------------------------- dedup


def test_ingest_is_idempotent():
    aggregator = CrowdAggregator()
    batch = make_batches(1)[0]
    assert aggregator.ingest(batch) is True
    assert aggregator.ingest(batch) is False
    assert len(aggregator) == 1


def test_merge_commutative_associative_idempotent():
    """The CRDT laws under shuffled and duplicated batch arrivals."""
    batches = make_batches(6)
    parts = []
    rng = random.Random(7)
    for start in range(0, 6, 2):
        part = CrowdAggregator()
        # Each shard sees its slice shuffled plus a duplicated straggler.
        slice_ = batches[start:start + 2] + [batches[0]]
        rng.shuffle(slice_)
        for batch in slice_:
            part.ingest(batch)
        parts.append(part)
    a, b, c = parts
    ab_c = CrowdAggregator.merge([CrowdAggregator.merge([a, b]), c])
    a_bc = CrowdAggregator.merge([a, CrowdAggregator.merge([b, c])])
    cba = CrowdAggregator.merge([c, b, a])
    twice = CrowdAggregator.merge([a, b, c, a, b, c])
    assert ab_c == a_bc == cba == twice
    assert CrowdAggregator.merge([a]) == a
    assert len(CrowdAggregator.merge([])) == 0
    serial = CrowdAggregator()
    for batch in batches:
        serial.ingest(batch)
    assert ab_c == serial
    assert aggregator_to_json(ab_c) == aggregator_to_json(serial)


def test_bug_stats_dedupe_across_devices():
    """The same root cause from many devices folds into one stat."""
    aggregator = CrowdAggregator()
    for device in range(4):
        aggregator.ingest(ReportBatch.from_report(
            make_report(device_tag=0), device_id=device,
            time_ms=float(device),
        ))
    stats = aggregator.bug_stats()
    assert len(stats) == 3  # 3 distinct root causes, not 12
    top = stats[0]
    assert top.device_count == 4
    assert top.devices == (0, 1, 2, 3)
    assert top.first_seen_ms == 0.0 and top.last_seen_ms == 3.0
    assert stats == sorted(
        stats, key=lambda s: (-s.hang_count, s.signature)
    )


# ------------------------------------------------------------ signature


def test_root_cause_signature_round_trips_through_json():
    """The signature survives report persistence bit-for-bit."""
    report = make_report()
    restored = report_from_json(report_to_json(report))
    original = [
        entry.root_cause_signature(report.app_name)
        for entry in report.entries()
    ]
    after = [
        entry.root_cause_signature(restored.app_name)
        for entry in restored.entries()
    ]
    assert original == after
    assert all(sig.count("|") == 3 for sig in original)


def test_occurrence_bucket_bounds():
    assert occurrence_bucket(0.0) == 0
    assert occurrence_bucket(1.0) == OCCURRENCE_BUCKETS - 1
    assert occurrence_bucket(-5.0) == 0
    assert occurrence_bucket(5.0) == OCCURRENCE_BUCKETS - 1
    assert occurrence_bucket(0.25) == 2


def test_signature_distinguishes_occurrence_buckets():
    report = HangBugReport("app")
    for factor in (0.05, 0.95):
        report.record(
            operation="a.B.c", file="B.java", line=1,
            is_self_developed=False, response_time_ms=500.0,
            occurrence_factor=factor, action="act",
        )
    entry = report.entries()[0]
    assert entry.root_cause_signature("app").endswith("occ9")


# ------------------------------------------------------------ publishing


def test_knowledge_picks_dominant_bug_per_action():
    aggregator = CrowdAggregator()
    for device in range(3):
        aggregator.ingest(ReportBatch.from_report(
            make_report(device_tag=0), device_id=device,
            time_ms=float(device),
        ))
    knowledge = aggregator.knowledge(min_devices=2)
    assert len(knowledge) == 3
    known = knowledge.lookup("K9-mail", "action-0")
    assert known is not None
    assert known.device_count == 3
    assert knowledge.lookup("K9-mail", "no-such-action") is None
    # Thresholds filter: nothing was seen on 4 devices.
    assert len(aggregator.knowledge(min_devices=4)) == 0


def test_publish_database_excludes_self_developed():
    aggregator = CrowdAggregator()
    aggregator.ingest(ReportBatch.from_report(make_report(device_tag=0),
                                              device_id=0, time_ms=0.0))
    published = aggregator.publish_database()
    baseline = BlockingApiDatabase.initial()
    added = set(published.names()) - baseline.names()
    # Entries 0 and 2 are APIs; entry 1 is self-developed.
    assert added == {"org.example.Api0.call0", "org.example.Api0.call2"}
    assert published.runtime_discoveries() == sorted(added)
    # Publishing folds into a supplied base without disturbing it.
    base = BlockingApiDatabase({"x.Y.z"})
    merged = aggregator.publish_database(base=base)
    assert "x.Y.z" in merged
    assert base.names() == {"x.Y.z"}


def test_known_bug_root_frame_rebuilds_qualified_name():
    bug = KnownBug(
        app_name="a", action="b", operation="org.pkg.Klass.method",
        file="Klass.java", line=7, is_self_developed=False,
        occurrence=0.5, device_count=1, hang_count=1,
    )
    frame = known_bug_frame(bug)
    assert frame.qualified_name == "org.pkg.Klass.method"
    assert frame.line == 7


# ----------------------------------------------------------- persistence


def test_store_round_trip_is_canonical():
    batches = make_batches(4)
    forward = CrowdAggregator()
    backward = CrowdAggregator()
    for batch in batches:
        forward.ingest(batch)
    for batch in reversed(batches):
        backward.ingest(batch)
    text = aggregator_to_json(forward)
    assert text == aggregator_to_json(backward)
    restored = aggregator_from_json(text)
    assert restored == forward
    assert aggregator_to_json(restored) == text


def test_store_rejects_malformed_payloads():
    from repro.crowd.store import CROWD_SCHEMA_VERSION

    with pytest.raises(ValueError, match="malformed"):
        aggregator_from_json("{not json")
    with pytest.raises(ValueError, match="schema"):
        aggregator_from_json('{"schema": "bogus", "batches": []}')
    with pytest.raises(ValueError, match="batches"):
        aggregator_from_json(
            f'{{"schema": {CROWD_SCHEMA_VERSION!r}, "batches": 3}}'
        )


@pytest.mark.parametrize("key, value, expected", [
    ("batch_id", 12345, "a string"),
    ("app", None, "a string"),
    ("device", True, "a number"),
    ("time_ms", "1.0", "a number"),
    ("observations", {}, "an array"),
    ("observation.file", 7, "a string"),
    ("observation.line", False, "a number"),
    ("observation.self_developed", 1, "a boolean"),
    ("observation.total_hang_ms", [], "a number"),
])
def test_batch_from_dict_checks_each_field_type(key, value, expected):
    """Numbers take int or float, never bool; a mistyped field is a
    ValueError naming the key, like a missing one."""
    from repro.crowd.store import batch_from_dict

    raw = batch_to_dict(make_batches(1)[0])
    assert batch_from_dict(raw) == make_batches(1)[0]
    target, _, field = key.rpartition(".")
    (raw["observations"][0] if target else raw)[field] = value
    with pytest.raises(ValueError, match=f"'{field}' must be {expected}"):
        batch_from_dict(raw)


def test_load_aggregator_never_raises():
    fresh = load_aggregator("garbage ] not json")
    assert len(fresh) == 0
    assert fresh.recovered_from_corruption
    aggregator = CrowdAggregator()
    aggregator.ingest(make_batches(1)[0])
    loaded = load_aggregator(aggregator_to_json(aggregator))
    assert loaded == aggregator
    assert not loaded.recovered_from_corruption


def test_upload_body_carries_only_anonymized_bug_fields(device, k9):
    """What a device sends: the HTTP body, the WAL record and the
    snapshot are all ``batch_to_dict``.  Per bug it carries the
    root-cause signature, the action's name, the blamed operation and
    its source location, and hang statistics (paper §3.2); no content,
    no stack, and no identifier beyond an opaque device id."""
    engine = ExecutionEngine(device, seed=21)
    doctor = HangDoctor(k9, device, seed=21)
    for _ in range(40):
        execution = engine.run_action(k9, k9.action("open_email"))
        if doctor.process(execution).detections:
            break
    body = batch_to_dict(ReportBatch.from_report(doctor.report, device_id=7,
                                                 time_ms=0.0))
    assert set(body) == {"batch_id", "app", "device", "time_ms",
                         "observations"}
    assert body["device"] == 7
    assert body["observations"]
    for observation in body["observations"]:
        assert set(observation) == {
            "signature", "action", "operation", "file", "line",
            "self_developed", "occurrences", "total_hang_ms",
            "max_occurrence_factor",
        }
    assert [observation["operation"]
            for observation in body["observations"]] == [
        "org.htmlcleaner.HtmlCleaner.clean"
    ]


# --------------------------------------------------- device short-circuit


def test_hang_doctor_short_circuits_known_bugs(device, k9):
    """A crowd-synced device skips phase-2 collections for bugs the
    fleet already diagnosed, yet still reports the detection."""
    engine = ExecutionEngine(device, seed=11)
    cold = HangDoctor(k9, device, seed=11)
    session = [action.name for action in k9.actions] * 6
    executions = engine.run_session(k9, session, gap_ms=1000.0)
    cold_run = run_detector(cold, executions)
    assert cold.phase2_collections > 0
    assert cold.kb_short_circuits == 0

    # Publish the cold device's diagnoses, then replay the identical
    # deployment on a warm device.
    aggregator = CrowdAggregator()
    aggregator.ingest(ReportBatch.from_report(cold.report, device_id=0,
                                              time_ms=0.0))
    knowledge = aggregator.knowledge()
    assert len(knowledge) > 0
    warm_engine = ExecutionEngine(device, seed=11)
    warm = HangDoctor(k9, device, seed=11, crowd_kb=knowledge)
    warm_run = run_detector(
        warm, warm_engine.run_session(k9, session, gap_ms=1000.0)
    )
    assert warm.kb_short_circuits > 0
    assert warm.phase2_collections < cold.phase2_collections
    assert warm_run.cost.kb_short_circuits == warm.kb_short_circuits
    # The known verdicts land as Hang Bug states and real detections.
    warm_bugs = {d.root.qualified_name for d in warm_run.detections}
    cold_bugs = {d.root.qualified_name for d in cold_run.detections}
    assert warm_bugs == cold_bugs
    known = knowledge.bugs()[0]
    assert warm.state_of(known.action) is ActionState.HANG_BUG


def test_empty_knowledge_changes_nothing(device, k9):
    """crowd_kb with no entries behaves exactly like crowd_kb=None."""
    session = [action.name for action in k9.actions] * 4
    runs = []
    for kb in (None, CrowdKnowledge()):
        engine = ExecutionEngine(device, seed=3)
        doctor = HangDoctor(k9, device, seed=3, crowd_kb=kb)
        run = run_detector(
            doctor, engine.run_session(k9, session, gap_ms=1000.0)
        )
        runs.append((doctor.phase2_collections, len(run.detections)))
    assert runs[0] == runs[1]


# ----------------------------------------------------------------- sweep

SWEEP_KWARGS = dict(seed=0, fleet_sizes=(1, 2, 4), rounds=2,
                    apps=("K9-mail", "AndStatus"), actions_per_round=25)


@pytest.fixture(scope="module")
def small_sweep(device):
    return crowd_sweep(device, workers=1, **SWEEP_KWARGS)


def test_sweep_monotone_and_below_baseline(small_sweep):
    """Acceptance: collections per device-round never rise with fleet
    size, and the largest fleet beats the isolated baseline."""
    per_device = [
        cell.collections_per_device_round for cell in small_sweep.cells
    ]
    assert per_device == sorted(per_device, reverse=True)
    largest = small_sweep.cell(max(small_sweep.fleet_sizes))
    assert largest.phase2_collections < largest.baseline_collections
    assert largest.kb_short_circuits > 0
    assert largest.avoided_fraction > 0.0


def test_sweep_detection_quality_preserved(small_sweep):
    """Short-circuiting saves collections without losing bugs."""
    for cell in small_sweep.cells:
        assert cell.bugs_detected >= cell.baseline_bugs_detected
        assert cell.known_bugs > 0


def test_sweep_parallel_equals_serial(device, small_sweep):
    parallel = crowd_sweep(device, workers=4, **SWEEP_KWARGS)
    assert parallel.render() == small_sweep.render()
    assert parallel.cells == small_sweep.cells


def test_sweep_repeated_runs_deterministic(device, small_sweep):
    again = crowd_sweep(device, workers=1, **SWEEP_KWARGS)
    assert again.render() == small_sweep.render()


def test_sweep_fault_rate_zero_never_draws(small_sweep):
    for cell in small_sweep.cells:
        assert cell.batches_dropped == 0
        assert cell.batches_duplicated == 0
        assert cell.batches_late == 0


def test_sweep_with_upload_faults_is_deterministic(device):
    kwargs = dict(SWEEP_KWARGS, fleet_sizes=(4,), fault_rate=0.4)
    one = crowd_sweep(device, workers=1, **kwargs)
    two = crowd_sweep(device, workers=4, **kwargs)
    assert one.render() == two.render()
    cell = one.cells[0]
    assert (cell.batches_dropped + cell.batches_duplicated
            + cell.batches_late) > 0


def test_sweep_rejects_bad_parameters(device):
    with pytest.raises(ValueError, match="fleet sizes"):
        crowd_sweep(device, fleet_sizes=())
    with pytest.raises(ValueError, match="rounds"):
        crowd_sweep(device, rounds=0)
    with pytest.raises(ValueError, match="fault_rate"):
        crowd_sweep(device, fault_rate=1.5)


# ------------------------------------------------------------------- CLI


def test_cli_crowd_quick_deterministic(capsys):
    assert main(["crowd", "--quick", "--seed", "0"]) == 0
    first = capsys.readouterr().out
    assert main(["crowd", "--quick", "--seed", "0", "--workers", "2"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "Crowd sweep" in first
    assert "avoided" in first


# ---------------------------------------------------- atomic snapshots


def test_save_aggregator_snapshot_round_trips(tmp_path):
    from repro.crowd import save_aggregator

    aggregator = CrowdAggregator()
    for batch in make_batches(3):
        aggregator.ingest(batch)
    path = tmp_path / "crowd.json"
    save_aggregator(path, aggregator)
    restored = load_aggregator(path.read_text())
    assert aggregator_to_json(restored) == aggregator_to_json(aggregator)
    assert list(path.parent.iterdir()) == [path]  # temp file cleaned up


def test_save_aggregator_torn_write_keeps_last_snapshot(tmp_path):
    from repro.crowd import save_aggregator
    from repro.faults import FaultInjector, FaultPlan, TornWriteError

    aggregator = CrowdAggregator()
    aggregator.ingest(make_batches(1)[0])
    path = tmp_path / "crowd.json"
    save_aggregator(path, aggregator)
    good = path.read_text()
    aggregator.ingest(make_batches(2)[1])
    injector = FaultInjector(FaultPlan(torn_write_rate=1.0), seed=0)
    with pytest.raises(TornWriteError):
        save_aggregator(path, aggregator, faults=injector)
    assert path.read_text() == good  # crash kept the complete snapshot


def test_save_aggregator_label_keys_the_torn_verdict(tmp_path):
    """The torn-write seam is keyed, so a path rewritten repeatedly
    must vary its label (the serve snapshot publisher passes the batch
    count) — otherwise one verdict would pin every rewrite forever."""
    from repro.crowd import save_aggregator
    from repro.faults import FaultInjector, FaultPlan, TornWriteError

    aggregator = CrowdAggregator()
    aggregator.ingest(make_batches(1)[0])
    path = tmp_path / "crowd.json"
    injector = FaultInjector(FaultPlan(torn_write_rate=0.5), seed=3)
    verdicts = []
    for count in range(20):
        try:
            save_aggregator(path, aggregator, faults=injector,
                            label=f"snapshot:{count}")
            verdicts.append(False)
        except TornWriteError:
            verdicts.append(True)
    assert True in verdicts and False in verdicts
    # Every completed write left a loadable, complete snapshot.
    restored = load_aggregator(path.read_text())
    assert not restored.recovered_from_corruption
    assert aggregator_to_json(restored) == aggregator_to_json(aggregator)


def test_wal_and_snapshot_torn_writes_round_trip_to_consistency(tmp_path):
    """The store <-> serve-WAL interplay: whatever combination of torn
    snapshot publishes and torn journal appends, recovery lands on
    every acknowledged batch exactly once."""
    from repro.faults import FaultInjector, FaultPlan, TornWriteError
    from repro.serve import ServiceState

    batches = make_batches(6)
    state = ServiceState(tmp_path / "state")
    state.recover()
    state.faults = FaultInjector(FaultPlan(torn_write_rate=0.4), seed=8)
    acked = []
    for batch in batches:
        try:
            state.log([batch])
        except TornWriteError:
            continue  # never acked; a live client would retry
        state.ingest(batch)
        acked.append(batch)
        try:
            state.publish()
        except TornWriteError:
            pass  # old snapshot + full journal still cover everything
    state.close()
    assert acked and len(acked) < len(batches)  # both verdicts fired
    recovered = ServiceState(tmp_path / "state").recover()
    expected = CrowdAggregator()
    for batch in acked:
        expected.ingest(batch)
    assert aggregator_to_json(recovered.aggregator) == \
        aggregator_to_json(expected)
    recovered.close()
