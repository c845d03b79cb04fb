"""Tests for the blocking-API database and the Hang Bug Report."""

import pytest

from repro.core.blocking_db import BlockingApiDatabase
from repro.core.report import HangBugReport


# --- BlockingApiDatabase ----------------------------------------------------


def test_initial_database_knows_classic_apis():
    db = BlockingApiDatabase.initial()
    assert db.knows("android.hardware.Camera.open")
    assert db.knows("android.graphics.BitmapFactory.decodeFile")
    assert db.knows("android.database.sqlite.SQLiteDatabase.query")


def test_initial_database_misses_unknown_apis():
    db = BlockingApiDatabase.initial()
    assert not db.knows("org.htmlcleaner.HtmlCleaner.clean")
    assert not db.knows("com.google.gson.Gson.toJson")


def test_add_records_runtime_discovery():
    db = BlockingApiDatabase.initial()
    assert db.add("org.htmlcleaner.HtmlCleaner.clean")
    assert db.knows("org.htmlcleaner.HtmlCleaner.clean")
    assert db.runtime_discoveries() == ["org.htmlcleaner.HtmlCleaner.clean"]


def test_add_known_api_is_noop():
    db = BlockingApiDatabase.initial()
    assert not db.add("android.hardware.Camera.open")
    assert db.runtime_discoveries() == []


def test_contains_and_len():
    db = BlockingApiDatabase({"a.B.c"})
    assert "a.B.c" in db
    assert len(db) == 1


def test_names_returns_copy():
    db = BlockingApiDatabase({"a.B.c"})
    names = db.names()
    names.add("x.Y.z")
    assert "x.Y.z" not in db


# --- HangBugReport ------------------------------------------------------------


def record(report, operation="org.htmlcleaner.HtmlCleaner.clean",
           rt=1300.0, device=0, occ=0.96):
    report.record(
        operation=operation, file="HtmlCleaner.java", line=25,
        is_self_developed=False, response_time_ms=rt,
        occurrence_factor=occ, device_id=device,
    )


def test_report_aggregates_occurrences():
    report = HangBugReport("K9-mail")
    record(report)
    record(report, rt=1100.0, device=1)
    assert len(report) == 1
    entry = report.entries()[0]
    assert entry.occurrences == 2
    assert entry.devices == {0, 1}
    assert entry.mean_hang_ms == pytest.approx(1200.0)


def test_report_orders_by_occurrences():
    report = HangBugReport("AndStatus")
    for _ in range(5):
        record(report, operation="a.B.transform")
    record(report, operation="c.D.decode")
    entries = report.entries()
    assert entries[0].operation == "a.B.transform"


def test_occurrence_share():
    report = HangBugReport("AndStatus")
    for _ in range(3):
        record(report, operation="a.B.transform")
    record(report, operation="c.D.decode")
    shares = [report.occurrence_share(e) for e in report.entries()]
    assert shares == pytest.approx([0.75, 0.25])


def test_max_occurrence_factor_kept():
    report = HangBugReport("K9-mail")
    record(report, occ=0.8)
    record(report, occ=0.96)
    assert report.entries()[0].max_occurrence_factor == 0.96


def test_render_contains_rows():
    report = HangBugReport("AndStatus")
    record(report, operation="a.B.transform")
    text = report.render()
    assert "AndStatus" in text
    assert "a.B.transform" in text
    assert "100%" in text


def test_empty_report():
    report = HangBugReport("Empty")
    assert len(report) == 0
    assert report.total_occurrences() == 0
    assert "Empty" in report.render()


def test_sorted_names_is_the_iteration_order():
    db = BlockingApiDatabase({"z.Z.z", "a.A.a", "m.M.m"})
    assert db.sorted_names() == ["a.A.a", "m.M.m", "z.Z.z"]
    assert list(db) == db.sorted_names()
    db.add("b.B.b")
    assert list(db) == ["a.A.a", "b.B.b", "m.M.m", "z.Z.z"]


def test_report_keeps_per_action_entries():
    """The same root cause under two actions stays two entries (the
    crowd backend dedupes by action-qualified signature)."""
    report = HangBugReport("K9-mail")
    for action in ("open_email", "search"):
        report.record(
            operation="a.B.c", file="B.java", line=4,
            is_self_developed=False, response_time_ms=600.0,
            occurrence_factor=0.5, action=action,
        )
    assert len(report) == 2
    signatures = {
        entry.root_cause_signature("K9-mail") for entry in report.entries()
    }
    assert signatures == {
        "K9-mail|open_email|a.B.c|occ5",
        "K9-mail|search|a.B.c|occ5",
    }
