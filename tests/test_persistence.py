"""Tests for the report codecs (repro.core.report: JSON round-trips
and recovery from malformed state files) and the durable writes of
repro.core.persistence."""

import json

import pytest

from repro.core.report import (
    HangBugReport,
    load_report,
    report_from_json,
    report_to_json,
)
from repro.faults import FaultInjector, FaultPlan


def make_report(app="K9-mail", device=0, occurrences=2):
    report = HangBugReport(app)
    for _ in range(occurrences):
        report.record(
            operation="org.htmlcleaner.HtmlCleaner.clean",
            file="HtmlCleaner.java", line=291, is_self_developed=False,
            response_time_ms=1300.0, occurrence_factor=0.96,
            device_id=device,
        )
    return report


def test_report_roundtrip():
    original = make_report()
    restored = report_from_json(report_to_json(original))
    assert restored.app_name == original.app_name
    assert len(restored) == len(original)
    entry = restored.entries()[0]
    assert entry.operation == "org.htmlcleaner.HtmlCleaner.clean"
    assert entry.occurrences == 2
    assert entry.mean_hang_ms == pytest.approx(1300.0)


def test_report_json_is_valid_json():
    payload = json.loads(report_to_json(make_report()))
    assert payload["schema"] == 1
    assert payload["app"] == "K9-mail"


def test_report_schema_check():
    payload = json.loads(report_to_json(make_report()))
    payload["schema"] = 99
    with pytest.raises(ValueError):
        report_from_json(json.dumps(payload))


@pytest.mark.parametrize("breakage", ["", "not json at all", "[1, 2]"])
def test_report_invalid_json_raises_valueerror(breakage):
    with pytest.raises(ValueError):
        report_from_json(breakage)


def test_report_truncated_file_raises_valueerror():
    """A crash mid-write leaves a prefix of the payload on disk."""
    text = report_to_json(make_report())
    for cut in (0, 1, len(text) // 2, len(text) - 1):
        with pytest.raises(ValueError):
            report_from_json(text[:cut])


@pytest.mark.parametrize("key", [
    "operation", "file", "line", "self_developed", "occurrences",
    "devices", "total_hang_ms", "max_occurrence_factor",
])
def test_report_missing_entry_field_names_the_key(key):
    payload = json.loads(report_to_json(make_report()))
    del payload["entries"][0][key]
    with pytest.raises(ValueError, match=f"missing required key '{key}'"):
        report_from_json(json.dumps(payload))


def test_report_missing_top_level_field_names_the_key():
    payload = json.loads(report_to_json(make_report()))
    del payload["app"]
    with pytest.raises(ValueError, match="missing required key 'app'"):
        report_from_json(json.dumps(payload))
    payload = json.loads(report_to_json(make_report()))
    payload["entries"] = ["not-an-object"]
    with pytest.raises(ValueError, match="expected an object"):
        report_from_json(json.dumps(payload))


def test_report_degradations_roundtrip():
    original = make_report()
    original.note_degradation("timeout-only", detail="counters lost",
                              time_ms=1234.5)
    restored = report_from_json(report_to_json(original))
    assert len(restored.degradations) == 1
    record = restored.degradations[0]
    assert record.kind == "timeout-only"
    assert record.detail == "counters lost"
    assert record.time_ms == 1234.5
    assert "degraded: timeout-only" in restored.render()


def test_load_report_recovers_from_corruption():
    good = report_to_json(make_report())
    restored = load_report(good, "K9-mail")
    assert not restored.recovered_from_corruption
    assert len(restored) == 1
    for corrupt in (good[: len(good) // 2], "", "%%%"):
        fresh = load_report(corrupt, "K9-mail")
        assert fresh.recovered_from_corruption
        assert fresh.app_name == "K9-mail"
        assert len(fresh) == 0
        assert "recovered from a corrupt report file" in fresh.render()


def test_load_report_through_fault_injector():
    injector = FaultInjector(FaultPlan(persistence_corrupt_rate=1.0), seed=3)
    restored = load_report(report_to_json(make_report()), "K9-mail",
                           faults=injector)
    assert restored.recovered_from_corruption
    assert injector.fired_total() == 1


# ------------------------------------------------- crash-atomic writes


def test_atomic_write_replaces_whole_file(tmp_path):
    from repro.core.persistence import atomic_write_bytes, atomic_write_text

    target = tmp_path / "nested" / "state.json"
    atomic_write_text(target, '{"v": 1}')  # creates parent dirs
    atomic_write_bytes(target, b'{"v": 2}')
    assert target.read_text() == '{"v": 2}'
    assert list(target.parent.iterdir()) == [target]  # no temp litter


def test_atomic_write_torn_by_injector_keeps_old_state(tmp_path):
    from repro.core.persistence import atomic_write_text
    from repro.faults import TornWriteError

    target = tmp_path / "report.json"
    atomic_write_text(target, "old")
    injector = FaultInjector(FaultPlan(torn_write_rate=1.0), seed=0)
    with pytest.raises(TornWriteError):
        atomic_write_text(target, "new", faults=injector, label="report")
    assert target.read_text() == "old"
