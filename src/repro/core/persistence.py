"""Durable writes: the repo's one durable-write module.

Every whole-file state write goes through :func:`atomic_write_text` /
:func:`atomic_write_bytes` (temp file + ``fsync`` + ``os.replace`` +
directory ``fsync``), so a crash mid-write can only ever lose the
*new* state — the destination either holds the complete old payload
or the complete new one, never a torn mixture.  Every append-only log
(the serve WAL, the checkpoint's reassignment log) is an
:class:`AppendLog`: checksum-framed records, a damaged tail cut on
open.  The ``torn_write`` fault channel
(:class:`~repro.faults.FaultPlan.torn_write_rate`) simulates dying
mid-write to prove both.

Reading is the dual half of that contract.  The state codecs
(:func:`repro.core.report.report_from_json`,
:func:`repro.crowd.store.aggregator_from_json`) share
:data:`SCHEMA_VERSION` and :func:`_field`: a parser raises one clear
:class:`ValueError` naming the offending key on any malformed input
(never a bare ``KeyError``/``TypeError``), and each ``load_*`` entry
point never raises at all — a corrupt or truncated state file falls
back to fresh state with ``recovered_from_corruption`` set, because
on-device monitoring must survive its own persistence failing.

At module level this module imports only the standard library, so the
ingestion service's durable writes load no simulator or catalog code.
"""

import hashlib
import json
import os
import pathlib

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
