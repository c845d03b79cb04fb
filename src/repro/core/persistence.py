"""Persistence: reports, the blocking-API database, and durable writes.

JSON round-trips for the Hang Bug Report and the blocking-API database,
so state survives app restarts and database upgrades can be shipped to
devices.  What a device sends out is not defined here.  The paper's
privacy stance (§3.2), "all the anonymized data sent out from the user
devices only include those blocking operations that have caused a soft
hang", applies to the crowd upload body,
:func:`repro.crowd.store.batch_to_dict`.  Per bug it carries the
root-cause signature, the action's name, the blamed operation and its
source location, and hang statistics; no content, no stack, and no
identifier beyond an opaque device id.

Robustness contract: the ``*_from_json`` parsers validate payloads and
raise one clear :class:`ValueError` naming the offending key on any
malformed input (never a bare ``KeyError``/``TypeError``), and the
:func:`load_report` / :func:`load_database` entry points never raise
at all — a corrupt or truncated state file (crash mid-write) falls
back to fresh state with ``recovered_from_corruption`` set, because
on-device monitoring must survive its own persistence failing.

Writing is the dual half of that contract, and this module is the
repo's one durable-write module.  Every whole-file state write goes
through :func:`atomic_write_text` / :func:`atomic_write_bytes` (temp
file + ``fsync`` + ``os.replace`` + directory ``fsync``), so a crash
mid-write can only ever lose the *new* state — the destination either
holds the complete old payload or the complete new one, never a torn
mixture.  Every append-only log (the serve WAL, the checkpoint's
reassignment log) is an :class:`AppendLog`: checksum-framed records,
a damaged tail cut on open.  The ``torn_write`` fault channel
(:class:`~repro.faults.FaultPlan.torn_write_rate`) simulates dying
mid-write to prove both.
"""

import hashlib
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


def _checksum(payload):
    """The frame checksum of *payload*: 12 hex digits of its sha256
    (torn-tail detection, not cryptography)."""
    return hashlib.sha256(payload).hexdigest()[:12].encode()


class AppendLog:
    """An append-only, checksum-framed, fsynced log of JSON records,
    one line each: ``<sha256[:12] of payload> <canonical JSON>\\n``.

    A record is intact only when its checksum, its JSON and its
    trailing newline are all present and :meth:`decode` accepts it.  A
    crash mid-append leaves a damaged tail: :meth:`replay` stops there,
    and :meth:`recover` (which :meth:`open` runs) cuts it back to the
    end of the last intact record, so the next record never lands on
    the fragment's line (where the following replay would stop before
    it).  Subclasses override :meth:`decode` and encode in their own
    ``append`` (:class:`repro.serve.wal.BatchJournal` logs batches).
    """

    def __init__(self, path):
        self.path = pathlib.Path(path)
        self._handle = None
        #: End of the last intact, synced record (:meth:`repair`'s cut).
        self._good_offset = 0

    def decode(self, value):
        """The record a replayed JSON *value* stands for; raise
        ValueError to count it as damage."""
        return value

    def open(self):
        """Open for appending (see :meth:`recover`); returns ``self``."""
        self.recover()
        return self

    def recover(self):
        """Open for appending, creating the file if missing, and return
        what :meth:`replay` would, from the same single read.

        A damaged tail is cut and the cut fsynced; the directory is
        fsynced on every open, so a log this call created survives a
        power loss before its first record.
        """
        records, self._good_offset, size = self._scan()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "ab")
        if self._good_offset < size:
            self._cut(self._good_offset)
            os.fsync(self._handle.fileno())
        fsync_directory(self.path.parent)
        return records, self._good_offset < size

    def close(self):
        """Close the append handle (safe to call twice)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def append(self, record, faults=None, label=None):
        """Append one JSON-able record (buffered; :meth:`sync` makes it
        durable).

        A :class:`~repro.faults.FaultInjector` whose ``torn_write_rate``
        trips for *label* writes and flushes half the line, then raises
        :class:`~repro.faults.TornWriteError` — what a real crash
        mid-append leaves.  The caller must then either die (the next
        :meth:`open` cuts the fragment) or :meth:`repair` before
        appending again.
        """
        handle = self._open_handle()
        payload = json.dumps(record, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        line = _checksum(payload) + b" " + payload + b"\n"
        if faults is not None and faults.torn_write_fault(label):
            from repro.faults import TornWriteError

            handle.write(line[: len(line) // 2])
            handle.flush()
            raise TornWriteError(
                f"simulated crash mid-append to {self.path.name} (injected)"
            )
        handle.write(line)

    def sync(self):
        """Flush and fsync everything appended so far; only then may a
        record be relied on (or acknowledged)."""
        handle = self._open_handle()
        handle.flush()
        os.fsync(handle.fileno())
        self._good_offset = handle.tell()

    def repair(self):
        """Truncate back to the last synced record: the live-process
        recovery from a torn append, as a restart's :meth:`open` would."""
        self._open_handle().flush()
        self._cut(self._good_offset)

    def reset(self):
        """Empty the log and fsync the truncation."""
        handle = self._open_handle()
        self._cut(0)
        os.fsync(handle.fileno())

    def _open_handle(self):
        if self._handle is None:
            raise RuntimeError(f"{self.path.name} is not open")
        return self._handle

    def _cut(self, offset):
        self._handle.truncate(offset)
        self._handle.seek(offset)
        self._good_offset = offset

    def replay(self):
        """Read the log; returns ``(records, torn)``: the intact
        prefix's decoded records in append order, and whether a damaged
        tail follows them.  A truncation cannot fake a checksum, so the
        prefix is the last consistent state."""
        records, end, size = self._scan()
        return records, end < size

    def _scan(self):
        """``(records, end, size)``: the intact prefix's records, the
        byte offset where it ends, and the file size."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return [], 0, 0
        records, end = [], 0
        while (newline := data.find(b"\n", end)) >= 0:
            checksum, _, payload = data[end:newline].partition(b" ")
            if checksum != _checksum(payload):
                break
            try:
                records.append(self.decode(json.loads(payload)))
            except ValueError:
                break
            end = newline + 1
        return records, end, len(data)


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
