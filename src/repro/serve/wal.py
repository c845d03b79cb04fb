"""Crash-safe write-ahead batch journal.

The durability half of the ingestion service's "never lose an acked
batch" contract: before a POST is acknowledged, its batch is appended
to this journal and fsynced.  A restart replays the journal into the
aggregator — idempotently, because ingestion dedupes by batch id — so
the only batches a SIGKILL can lose are ones whose clients never got
an ack (and whose seeded retries will re-deliver them).

Record framing: one line per batch,

    ``<sha256[:12] of payload> <canonical-JSON payload>\\n``

The checksum makes a torn tail *detectable*: a crash mid-append leaves
a final line that is truncated (no newline), checksum-mismatched, or
unparsable, and :meth:`BatchJournal.replay` cuts the journal at the
last intact record instead of propagating garbage — the journal-side
half of the recovery contract documented in :mod:`repro.crowd.store`.
A batch is therefore either fully in the journal or not in it at all;
nothing half-applied can reach the aggregator.

The ``torn_write_rate`` fault seam simulates the crash without killing
the process: :meth:`append` writes half the record and raises
:class:`~repro.faults.TornWriteError`.  A live service that survives
the injection must call :meth:`repair` (truncate back to the last good
offset) before appending again — exactly what replay-after-restart
would have done.
"""

import hashlib
import json
import os
import pathlib

from repro.core.persistence import fsync_directory
from repro.crowd.store import batch_from_dict, batch_to_dict

#: Hex digits of the record checksum (48 bits: torn-tail detection,
#: not cryptography).
_CHECKSUM_LEN = 12


def _record_line(batch):
    """The framed journal line for one batch (canonical JSON)."""
    payload = json.dumps(batch_to_dict(batch), sort_keys=True,
                         separators=(",", ":"))
    checksum = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return f"{checksum[:_CHECKSUM_LEN]} {payload}\n"


class BatchJournal:
    """Append-only, checksum-framed, fsynced batch journal."""

    def __init__(self, path):
        self.path = pathlib.Path(path)
        self._handle = None
        #: Byte offset of the journal end after the last intact record
        #: (what :meth:`repair` truncates back to).
        self._good_offset = 0
        #: Records appended (and synced) through this handle.
        self.appended = 0

    # ----------------------------------------------------------- lifecycle

    def open(self):
        """Open the journal for appending (creating it if missing).

        The directory is fsynced after the open, so a journal this
        call created survives a power loss before the first ack.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "ab")
        fsync_directory(self.path.parent)
        self._good_offset = self._handle.tell()
        return self

    def close(self):
        """Close the append handle (safe to call twice)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------- writing

    def append(self, batch, faults=None):
        """Append one batch record (buffered; call :meth:`sync` to ack).

        With a :class:`~repro.faults.FaultInjector` whose
        ``torn_write_rate`` trips for this batch, half the record is
        written and flushed and
        :class:`~repro.faults.TornWriteError` raised — the artifact a
        real crash mid-append leaves.  The caller must either die (a
        restart's replay cuts the tail) or :meth:`repair` before the
        next append.
        """
        if self._handle is None:
            raise RuntimeError("journal is not open")
        line = _record_line(batch).encode("utf-8")
        if faults is not None and faults.torn_write_fault(
            f"wal:{batch.batch_id}"
        ):
            from repro.faults import TornWriteError

            self._handle.write(line[: len(line) // 2])
            self._handle.flush()
            raise TornWriteError(
                f"simulated crash mid-append of {batch.batch_id} (injected)"
            )
        self._handle.write(line)
        self.appended += 1

    def sync(self):
        """Flush and fsync everything appended so far.

        Only after this returns may the batches be acknowledged: the
        records are on disk and a SIGKILL can no longer lose them.
        """
        if self._handle is None:
            raise RuntimeError("journal is not open")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._good_offset = self._handle.tell()

    def repair(self):
        """Truncate back to the last synced record boundary.

        The live-process recovery from a torn append: equivalent to
        what :meth:`replay` would have reconstructed after a real
        crash, without restarting.
        """
        if self._handle is None:
            raise RuntimeError("journal is not open")
        self._handle.flush()
        self._handle.truncate(self._good_offset)
        self._handle.seek(self._good_offset)

    def reset(self):
        """Empty the journal (call only *after* a snapshot landed).

        Crash ordering is safe in both directions: the snapshot write
        is atomic, and a crash between snapshot and reset merely
        replays batches the snapshot already holds — idempotent.
        """
        if self._handle is None:
            raise RuntimeError("journal is not open")
        self._handle.truncate(0)
        self._handle.seek(0)
        os.fsync(self._handle.fileno())
        self._good_offset = 0

    # ------------------------------------------------------------- replay

    def replay(self):
        """Read the journal; returns ``(batches, torn_tail)``.

        Parses records in append order, verifying each line's checksum
        and payload, and stops at the first damaged record — the torn
        tail of a crash mid-append.  Everything before it is intact by
        construction (records are only acked after fsync), so the
        returned prefix *is* the last consistent state.
        """
        if not self.path.exists():
            return [], False
        batches = []
        for line in self.path.read_bytes().split(b"\n"):
            if not line:
                continue
            batch = _parse_record(line)
            if batch is None:
                # The torn tail: a crash mid-append left a truncated
                # or garbled record.  Cut here — everything before it
                # was fsynced whole, and a truncation that happens to
                # end mid-payload cannot fake the checksum.
                return batches, True
            batches.append(batch)
        return batches, False


def _parse_record(line):
    """Decode one journal line; None when damaged."""
    try:
        text = line.decode("utf-8")
        checksum, _, payload = text.partition(" ")
        if len(checksum) != _CHECKSUM_LEN or not payload:
            return None
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        if digest[:_CHECKSUM_LEN] != checksum:
            return None
        return batch_from_dict(json.loads(payload))
    except (ValueError, UnicodeDecodeError):
        return None
