"""Crash-safe write-ahead batch journal.

The durability half of the ingestion service's "never lose an acked
batch" contract: before a POST is acknowledged, its batch is appended
to this journal and fsynced.  A restart replays the journal into the
aggregator — idempotently, because ingestion dedupes by batch id — so
the only batches a SIGKILL can lose are ones whose clients never got
an ack (and whose seeded retries will re-deliver them).

:class:`BatchJournal` is an :class:`~repro.core.persistence.AppendLog`
of report batches and adds only their codec: one record per batch,
the canonical :func:`~repro.crowd.store.batch_to_dict` form, framed as

    ``<sha256[:12] of payload> <canonical-JSON payload>\\n``

Replay stops at the first damaged record (torn, checksum-mismatched,
unparsable, or not a valid batch), and :meth:`~BatchJournal.open` cuts
that tail before the next append — the journal-side half of the
recovery contract composed in :mod:`repro.serve.state`.  A batch is
therefore either fully in the journal or not in it at all; nothing
half-applied can reach the aggregator, and no ack lands behind a torn
fragment.

The ``torn_write_rate`` fault seam, keyed ``wal:<batch id>:<attempt>``,
simulates the crash without killing the process: :meth:`append`
writes half the record and raises
:class:`~repro.faults.TornWriteError`, and a live service must
:meth:`~repro.core.persistence.AppendLog.repair` before appending
again.  *attempt* counts the journal's appends of the batch, so a
retry draws a fresh verdict, as on the network fault channels.
"""

from repro.core.persistence import AppendLog
from repro.crowd.store import batch_from_dict, batch_to_dict


class BatchJournal(AppendLog):
    """Append-only, checksum-framed, fsynced batch journal."""

    def __init__(self, path):
        super().__init__(path)
        #: Append attempts per batch id, counted under fault injection.
        self._attempts = {}

    def append(self, batch, faults=None):
        """Append one batch record (buffered; :meth:`sync` before
        acking it)."""
        label = None
        if faults is not None:
            key = batch.batch_id
            self._attempts[key] = attempt = self._attempts.get(key, 0) + 1
            label = f"wal:{key}:{attempt}"
        super().append(batch_to_dict(batch), faults=faults, label=label)

    def decode(self, value):
        """The batch a replayed record holds; a malformed one is
        damage."""
        return batch_from_dict(value)
