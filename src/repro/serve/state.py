"""Service state: snapshot + write-ahead journal, composed for recovery.

The durable state of the ingestion service is two files in one
directory:

* ``snapshot.json`` — the last published aggregator snapshot, written
  through :func:`repro.crowd.store.save_aggregator` (atomic: temp file
  + fsync + rename, so it is always a *complete* old or new payload);
* ``wal.jsonl`` — the :class:`~repro.serve.wal.BatchJournal` of
  batches acknowledged since that snapshot.

:meth:`ServiceState.recover` composes their guarantees: load the
snapshot (:func:`~repro.crowd.store.load_aggregator` never raises; a
corrupt file — impossible under the atomic writer, but disks lie —
falls back to empty with ``recovered_from_corruption`` set), then,
in one read, replay the journal up to its last intact record and open
it for appending with a torn tail cut off — so a batch acked after
the restart lands on its own line and the next restart replays it
too.  Because ingestion dedupes by batch id, replay is idempotent: a
batch that made it into the snapshot *and* still sits in the journal
(crash between snapshot and journal reset) counts once.  The result
is always the last consistent state — every acknowledged batch
present exactly once, nothing half-applied.
"""

import pathlib

from repro.crowd.aggregator import CrowdAggregator
from repro.crowd.store import load_aggregator, save_aggregator
from repro.serve.wal import BatchJournal

#: File names inside a service state directory.
SNAPSHOT_NAME = "snapshot.json"
WAL_NAME = "wal.jsonl"


class ServiceState:
    """The ingestion service's durable aggregator state."""

    def __init__(self, directory, faults=None):
        self.directory = pathlib.Path(directory)
        self.snapshot_path = self.directory / SNAPSHOT_NAME
        self.wal = BatchJournal(self.directory / WAL_NAME)
        #: Optional :class:`~repro.faults.FaultInjector` driving the
        #: ``torn_write_rate`` seam on snapshot and journal writes.
        self.faults = faults
        self.aggregator = CrowdAggregator()
        #: Batches replayed from the journal at recovery.
        self.replayed = 0
        #: True when recovery cut a torn record off the journal tail.
        self.torn_tail_cut = False
        #: Failed publishes per batch count.
        self._failed_publishes = {}

    # ----------------------------------------------------------- recovery

    def recover(self):
        """Rebuild the aggregator from snapshot + journal; open the
        journal for appending, cutting any torn tail.  Never raises on
        damaged state."""
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.snapshot_path.exists():
            self.aggregator = load_aggregator(
                self.snapshot_path.read_text()
            )
        batches, self.torn_tail_cut = self.wal.recover()
        for batch in batches:
            self.aggregator.ingest(batch)
        self.replayed = len(batches)
        return self

    def close(self):
        """Close the journal handle."""
        self.wal.close()

    # ---------------------------------------------------------- ingestion

    def log(self, batches):
        """Durably journal *batches* (append each, one fsync).

        Group commit: the service's writer drains its queue and logs
        the whole group under a single fsync before acknowledging any
        of it.  On an injected torn append the journal is repaired
        (truncated back to the last good record) and the error
        propagates — none of the group may be acknowledged.
        """
        try:
            for batch in batches:
                self.wal.append(batch, faults=self.faults)
        except BaseException:
            self.wal.repair()
            raise
        self.wal.sync()

    def ingest(self, batch):
        """Apply one journaled batch; False for a duplicate."""
        return self.aggregator.ingest(batch)

    # --------------------------------------------------------- publishing

    def publish(self):
        """Atomically publish the snapshot, then reset the journal.

        A torn snapshot write (injected or real) leaves the previous
        snapshot untouched and the journal intact — the error
        propagates and the next publish retries with nothing lost.  A
        crash *between* the two steps replays snapshot-held batches
        from the journal on restart; dedup makes that free.

        The ``torn_write_rate`` seam is keyed ``snapshot:<batch
        count>`` on a first attempt and ``snapshot:<batch
        count>:<attempt>`` after *attempt* - 1 failed publishes at that
        count, so a retry draws a fresh verdict instead of tearing
        again.
        """
        count = len(self.aggregator)
        attempt = self._failed_publishes.get(count, 0) + 1
        label = f"snapshot:{count}"
        if attempt > 1:
            label += f":{attempt}"
        try:
            save_aggregator(self.snapshot_path, self.aggregator,
                            faults=self.faults, label=label)
        except BaseException:
            self._failed_publishes[count] = attempt
            raise
        self.wal.reset()

    def snapshot_bytes(self):
        """The current published snapshot's raw bytes (b"" if none)."""
        if not self.snapshot_path.exists():
            return b""
        return self.snapshot_path.read_bytes()
