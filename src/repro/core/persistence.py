"""Persistence and anonymized telemetry.

The paper's privacy stance (§3.2): "all the anonymized data sent out
from the user devices only include those blocking operations that have
caused a soft hang."  This module defines exactly that wire format —
a detection record carries the blamed operation, its source location,
the hang length and occurrence factor, and nothing else (no action
sequences, no content, no identifiers beyond an opaque device id) —
plus JSON round-trips for the Hang Bug Report and the blocking-API
database so state survives app restarts and database upgrades can be
shipped to devices.

Robustness contract: the ``*_from_json`` parsers validate payloads and
raise one clear :class:`ValueError` naming the offending key on any
malformed input (never a bare ``KeyError``/``TypeError``), and the
:func:`load_report` / :func:`load_database` entry points never raise
at all — a corrupt or truncated state file (crash mid-write) falls
back to fresh state with ``recovered_from_corruption`` set, because
on-device monitoring must survive its own persistence failing.

Writing is the dual half of that contract: every state write in the
repo goes through :func:`atomic_write_text` /
:func:`atomic_write_bytes` (temp file + ``fsync`` + ``os.replace`` +
directory ``fsync``), so a crash mid-write can only ever lose the
*new* state — the destination either holds the complete old payload
or the complete new one, never a torn mixture.  The ``torn_write``
fault channel (:class:`~repro.faults.FaultPlan.torn_write_rate`)
simulates dying mid-write to prove exactly that.
"""

import json
import os
import pathlib

from repro.core.blocking_db import BlockingApiDatabase
from repro.core.report import DegradationRecord, HangBugReport, ReportEntry

#: Wire-format version for forward compatibility.
SCHEMA_VERSION = 1


def fsync_directory(path):
    """Make the entries of directory *path* durable.

    POSIX makes a rename or a file creation durable only once its
    directory is fsynced; until then a power loss may undo it even
    though the file's own data was synced.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(path, data, faults=None, label=None):
    """Crash-atomically write *data* to *path*.

    The payload lands in a same-directory temp file, is fsynced, and
    only then renamed over the destination — the two states a crash
    can leave behind are "old file intact" and "new file complete".
    The directory is fsynced after the rename, so once this returns
    the new file survives a power loss too.

    A :class:`~repro.faults.FaultInjector` with a nonzero
    ``torn_write_rate`` may simulate the crash: the temp file is left
    truncated (the artifact a real mid-write death produces) and
    :class:`~repro.faults.TornWriteError` raised *before* the rename,
    leaving the destination untouched.  *label* keys that decision
    (defaults to the file name) so it is deterministic regardless of
    write order.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    if faults is not None and faults.torn_write_fault(
        label if label is not None else path.name
    ):
        from repro.faults import TornWriteError

        tmp.write_bytes(data[: len(data) // 2])
        raise TornWriteError(
            f"simulated crash mid-write of {path.name} (injected)"
        )
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        # A real failure mid-write: drop the partial temp file so it
        # cannot be mistaken for state, then let the error propagate.
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    fsync_directory(path.parent)


def atomic_write_text(path, text, faults=None, label=None):
    """Crash-atomically write *text* (UTF-8) to *path*.

    See :func:`atomic_write_bytes` for the atomicity contract and the
    ``torn_write`` fault seam.
    """
    atomic_write_bytes(path, text.encode("utf-8"), faults=faults,
                       label=label)


def save_report(path, report, faults=None):
    """Crash-atomically persist a Hang Bug Report to *path*."""
    atomic_write_text(path, report_to_json(report), faults=faults)


def save_database(path, db, faults=None):
    """Crash-atomically persist a blocking-API database to *path*."""
    atomic_write_text(path, database_to_json(db), faults=faults)


def _field(mapping, key, context):
    """Fetch a required *key*, raising a named ValueError when absent."""
    if not isinstance(mapping, dict):
        raise ValueError(
            f"malformed {context}: expected an object, got "
            f"{type(mapping).__name__}"
        )
    if key not in mapping:
        raise ValueError(f"malformed {context}: missing required key {key!r}")
    return mapping[key]


def detection_to_record(detection, device_id=0):
    """The anonymized telemetry record for one detection."""
    return {
        "operation": detection.root_name,
        "file": detection.root.file if detection.root else None,
        "line": detection.root.line if detection.root else None,
        "self_developed": detection.is_self_developed,
        "response_time_ms": round(detection.response_time_ms, 1),
        "occurrence_factor": round(detection.occurrence, 3),
        "device": device_id,
    }


def report_to_json(report):
    """Serialize a Hang Bug Report."""
    entries = []
    for entry in report.entries():
        entries.append({
            "operation": entry.operation,
            "action": entry.action,
            "file": entry.file,
            "line": entry.line,
            "self_developed": entry.is_self_developed,
            "occurrences": entry.occurrences,
            "devices": sorted(entry.devices),
            "total_hang_ms": entry.total_hang_ms,
            "max_occurrence_factor": entry.max_occurrence_factor,
        })
    return json.dumps({
        "schema": SCHEMA_VERSION,
        "app": report.app_name,
        "entries": entries,
        "degradations": [
            {"kind": record.kind, "detail": record.detail,
             "time_ms": record.time_ms}
            for record in report.degradations
        ],
    }, indent=2)


def report_from_json(text):
    """Rebuild a Hang Bug Report from its JSON form.

    Raises ValueError (naming the offending key) on malformed
    payloads: wrong schema, missing fields, or non-object entries.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ValueError(f"malformed report payload: {error}") from error
    if not isinstance(payload, dict):
        raise ValueError("malformed report payload: expected an object")
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported report schema {payload.get('schema')!r}"
        )
    report = HangBugReport(_field(payload, "app", "report payload"))
    for raw in _field(payload, "entries", "report payload"):
        entry = ReportEntry(
            operation=_field(raw, "operation", "report entry"),
            file=_field(raw, "file", "report entry"),
            line=_field(raw, "line", "report entry"),
            is_self_developed=_field(raw, "self_developed", "report entry"),
            occurrences=_field(raw, "occurrences", "report entry"),
            devices=set(_field(raw, "devices", "report entry")),
            total_hang_ms=_field(raw, "total_hang_ms", "report entry"),
            max_occurrence_factor=_field(
                raw, "max_occurrence_factor", "report entry"
            ),
            # Optional for pre-crowd payloads, which had no action.
            action=raw.get("action", ""),
        )
        key = (entry.action, entry.operation, entry.file, entry.line)
        report._entries[key] = entry
    for raw in payload.get("degradations", []):
        report.degradations.append(DegradationRecord(
            kind=_field(raw, "kind", "degradation record"),
            detail=raw.get("detail", ""),
            time_ms=raw.get("time_ms", 0.0),
        ))
    return report


def load_report(text, app_name, faults=None):
    """Load a persisted report; never raises.

    A :class:`~repro.faults.FaultInjector` may corrupt the payload
    first (modeling a crash mid-write).  A payload that fails to parse
    or validate yields a *fresh* report for *app_name* with
    ``recovered_from_corruption`` set — losing history is recoverable,
    crashing the host app is not.
    """
    if faults is not None:
        text = faults.corrupt_text(text)
    try:
        return report_from_json(text)
    except ValueError:
        report = HangBugReport(app_name)
        report.recovered_from_corruption = True
        return report


def merge_reports(reports, app_name=None):
    """Merge per-device reports into one fleet report.

    This is the server-side half of the paper's deployment: each
    device uploads its own (anonymized) report; the developer sees the
    aggregate ordered by occurrences across all devices.  Degradation
    records concatenate; a merged report is marked recovered if any
    input was.
    """
    if not reports:
        raise ValueError("no reports to merge")
    names = {report.app_name for report in reports}
    if app_name is None:
        if len(names) > 1:
            raise ValueError(f"reports for different apps: {sorted(names)}")
        app_name = next(iter(names))
    merged = HangBugReport(app_name)
    for report in reports:
        for entry in report.entries():
            key = (entry.action, entry.operation, entry.file, entry.line)
            existing = merged._entries.get(key)
            if existing is None:
                existing = ReportEntry(
                    operation=entry.operation, file=entry.file,
                    line=entry.line,
                    is_self_developed=entry.is_self_developed,
                    action=entry.action,
                )
                merged._entries[key] = existing
            existing.occurrences += entry.occurrences
            existing.devices |= entry.devices
            existing.total_hang_ms += entry.total_hang_ms
            existing.max_occurrence_factor = max(
                existing.max_occurrence_factor, entry.max_occurrence_factor
            )
        merged.degradations.extend(report.degradations)
        merged.recovered_from_corruption |= report.recovered_from_corruption
    return merged


def database_to_json(db):
    """Serialize a blocking-API database (the shippable upgrade)."""
    return json.dumps({
        "schema": SCHEMA_VERSION,
        "names": db.sorted_names(),
        "runtime_discoveries": db.runtime_discoveries(),
    }, indent=2)


def database_from_json(text):
    """Rebuild a blocking-API database.

    Raises ValueError (naming the offending key) on malformed
    payloads.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ValueError(f"malformed database payload: {error}") from error
    if not isinstance(payload, dict):
        raise ValueError("malformed database payload: expected an object")
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported database schema {payload.get('schema')!r}"
        )
    names = _field(payload, "names", "database payload")
    if not isinstance(names, list):
        raise ValueError(
            "malformed database payload: key 'names' must be a list"
        )
    db = BlockingApiDatabase(names)
    db._added_at_runtime = list(payload.get("runtime_discoveries", []))
    return db


def load_database(text, faults=None):
    """Load a persisted blocking-API database; never raises.

    Falls back to the shipped initial database (see
    :meth:`BlockingApiDatabase.initial`) with
    ``recovered_from_corruption`` set when the payload is corrupt —
    the curated list is recoverable expert knowledge, only the runtime
    discoveries since the last good write are lost.
    """
    if faults is not None:
        text = faults.corrupt_text(text)
    try:
        return database_from_json(text)
    except ValueError:
        db = BlockingApiDatabase.initial()
        db.recovered_from_corruption = True
        return db
