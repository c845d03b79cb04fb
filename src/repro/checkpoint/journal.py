"""The item-level checkpoint journal behind every ``--checkpoint``.

A long sweep decomposes into pure items, which the elastic scheduler
(:mod:`repro.sched`) runs alone or packed into shards; the journal
persists the results of each shard's items the moment the shard
completes, so a crash, deadline kill, or plain ``kill -9`` mid-sweep
loses only the shards still in flight.  On ``--resume`` the
scheduler restores the finished items from the journal once, before it
packs the rest, and re-runs only those — and because every item is a
pure function of its payload, the resumed run's merged output is
byte-identical to an uninterrupted one, under any packing or worker
count.

Safety properties:

* **Crash-atomic entries**: every entry write goes through
  :func:`repro.core.persistence.atomic_write_bytes` (temp file +
  fsync + rename), so a kill mid-checkpoint leaves at worst a
  truncated temp file, never a torn journal entry.  The ``torn_write``
  fault channel simulates exactly that death to prove it.
* **Run-key guard**: the journal records a :func:`run_key` digest of
  the sweep's full parameterization.  Resuming with *any* different
  parameter (seed, apps, rates, device, ...) mismatches the key and
  the journal resets instead of serving stale items.
* **Corruption tolerance**: an unreadable or mislabeled entry is
  treated as missing (its items re-run), mirroring the never-raise
  contract of :func:`repro.core.report.load_report` and
  :func:`repro.crowd.store.load_aggregator`.
* **Best-effort writes**: a failed checkpoint write degrades (the
  shard's items re-run on resume) rather than crashing the sweep;
  failures are accounted in the :class:`~repro.parallel.ExecutionReport`.
"""

import hashlib
import json
import pathlib
import pickle

from repro.core.persistence import (
    AppendLog,
    atomic_write_bytes,
    atomic_write_text,
)
from repro.faults.errors import InjectedFault
from repro.parallel import PartialResult, parallel_map
from repro.telemetry import absorb_value, collect_shard
from repro.telemetry import active as _telemetry_active
from repro.telemetry import current as _telemetry_current

#: Journal layout version (bumped on incompatible changes; a mismatch
#: resets the journal, never misreads it).  Schema 4: an entry holds
#: the ``(item key, value)`` pairs of the shard that wrote it, so a
#: resume restores items under any packing.
JOURNAL_SCHEMA = 4


def run_key(*parts):
    """Digest a sweep's full parameterization into a stable run key.

    Two runs share a journal only when every part matches — pass
    everything that changes the output (experiment name, device name,
    seed, grids, sizes, worker-visible knobs).
    """
    text = "|".join(str(part) for part in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


class ShardJournal:
    """A directory of finished items' results, indexed by item key.

    Each finished shard lands as one entry holding its items'
    ``(key, value)`` pairs; :meth:`open` with ``resume=True`` reads
    every entry once into an index by item key, which :meth:`load`
    and :meth:`completed` serve from.  Beside the entries sits the
    scheduler's reassignment log (:meth:`log_reassignment`), an
    :class:`~repro.core.persistence.AppendLog` of checksummed lines
    whose torn tail is cut before the next append.

    Parameters
    ----------
    directory: journal root (created on :meth:`open`).
    key: the sweep's :func:`run_key`.
    faults: optional :class:`~repro.faults.FaultInjector` whose
        ``torn_write`` channel exercises the crash-atomic write path.
    report: optional :class:`~repro.parallel.ExecutionReport` that
        accounts torn writes.
    """

    def __init__(self, directory, key, faults=None, report=None):
        self.directory = pathlib.Path(directory)
        # Telemetry-on runs journal ShardTelemetry carriers instead of
        # raw values; tagging the run key keeps the two entry shapes
        # from ever being served across modes (a telemetry-off resume
        # of a telemetry-on journal, or vice versa, resets instead).
        self.key = str(key) + ("+telemetry" if _telemetry_active() else "")
        self.faults = faults
        self.report = report
        self._index = {}

    # ------------------------------------------------------------ layout

    @property
    def manifest_path(self):
        """Path of the run-key manifest file."""
        return self.directory / "manifest.json"

    @property
    def shards_dir(self):
        """Directory holding one pickle per finished shard."""
        return self.directory / "shards"

    @property
    def reassignments_path(self):
        """Append-only log of scheduler reassignment decisions."""
        return self.directory / "reassignments.jsonl"

    def _entry_path(self, *keys):
        """The entry file of a shard's item *keys* (named by their
        digest, so a one-item shard's entry is named by its key)."""
        text = "\n".join(str(key) for key in keys)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return self.shards_dir / f"{digest[:32]}.pkl"

    # --------------------------------------------------------- lifecycle

    def open(self, resume=False):
        """Prepare the journal; returns ``self``.

        Without *resume* the journal always starts empty.  With it,
        existing entries are kept only when the manifest's run key
        matches this sweep's — a missing, corrupt, or mismatched
        manifest resets the journal (stale items must never leak into
        a differently-parameterized run) — and are read once into the
        item index.
        """
        if resume and self._manifest_matches():
            self._index = self._read_entries()
            return self
        self.clear()
        self.shards_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            self.manifest_path,
            json.dumps({"schema": JOURNAL_SCHEMA, "run_key": self.key},
                       indent=2) + "\n",
        )
        return self

    def _manifest_matches(self):
        try:
            payload = json.loads(self.manifest_path.read_text())
        except (OSError, ValueError):
            return False
        return (
            isinstance(payload, dict)
            and payload.get("schema") == JOURNAL_SCHEMA
            and payload.get("run_key") == self.key
        )

    def _read_entries(self):
        """Every journaled item value, by item key.

        An entry that does not unpickle into ``(key, value)`` pairs, or
        whose file is not named by its keys (a foreign or mislabeled
        entry), is skipped: its items just re-run.
        """
        index = {}
        for path in sorted(self.shards_dir.glob("*.pkl")):
            try:
                pairs = [(key, value) for key, value
                         in pickle.loads(path.read_bytes())]
            except Exception:  # noqa: BLE001 - any corruption means re-run
                continue
            if pairs and path == self._entry_path(*(k for k, _ in pairs)):
                index.update(pairs)
        return index

    def clear(self):
        """Drop every journal entry, the manifest, and the
        reassignment log."""
        self._index = {}
        if self.shards_dir.is_dir():
            for path in self.shards_dir.iterdir():
                try:
                    path.unlink()
                except OSError:
                    pass
        for path in (self.manifest_path, self.reassignments_path):
            try:
                path.unlink()
            except OSError:
                pass

    # ----------------------------------------------------- reassignments

    def log_reassignment(self, kind, **record):
        """Write-ahead one scheduler decision; best-effort, never raises.

        The elastic scheduler (:mod:`repro.sched`) records every
        assignment, steal, and reshard *before* acting on it, so a
        crash mid-redistribution leaves an auditable trail: on resume
        the log shows which items were in flight where when the run
        died.  The record ``{"kind": ..., ...}`` is appended to an
        :class:`~repro.core.persistence.AppendLog` and fsynced; opening
        the log cuts a torn tail (killed mid-append, never reported as
        landed) first, so the new record gets its own line.  Returns
        True when the record landed.
        """
        payload = dict(record)
        payload["kind"] = str(kind)
        log = AppendLog(self.reassignments_path)
        try:
            log.open()
            log.append(payload)
            log.sync()
        except OSError:
            return False
        finally:
            log.close()
        _telemetry_current().advisory_event("checkpoint.reassignment",
                                            **payload)
        return True

    def reassignments(self):
        """All durably logged reassignment records, in append order.

        A damaged tail (the process died mid-append) is left out,
        mirroring the journal-wide corruption-means-rerun contract.
        """
        try:
            return AppendLog(self.reassignments_path).replay()[0]
        except OSError:
            return []

    # ----------------------------------------------------------- entries

    def record(self, entries):
        """Persist one finished shard's ``{item key: value}``;
        best-effort, never raises.

        The items land in one entry with one atomic write.  A write
        that dies mid-stream (injected ``torn_write`` or a real I/O
        error) is dropped — the destination entry stays absent or
        intact-old, and the items simply re-run on resume.  Returns
        True when the entry landed.
        """
        pairs = [(str(key), value) for key, value in entries.items()]
        keys = [key for key, _ in pairs]
        payload = pickle.dumps(pairs, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            atomic_write_bytes(self._entry_path(*keys), payload,
                               faults=self.faults, label="\n".join(keys))
        except (InjectedFault, OSError, pickle.PicklingError) as error:
            if self.report is not None:
                self.report.torn_writes += 1
                self.report.record(
                    "torn-write",
                    f"checkpoint of {len(keys)} item(s) lost "
                    f"({type(error).__name__})",
                )
            return False
        self._index.update(pairs)
        _telemetry_current().advisory_event("checkpoint.write", items=keys)
        return True

    def load(self, key):
        """Fetch one item's journaled result.

        Returns ``(True, value)`` on a hit; ``(False, None)`` when no
        readable entry holds the item — which just means "re-run it".
        """
        key = str(key)
        if key in self._index:
            return True, self._index[key]
        return False, None

    def completed(self, keys):
        """The subset of item *keys* already journaled."""
        return [key for key in keys if str(key) in self._index]


def _run_shard(payload):
    """Run one shard's items in order (module-level so the process
    pool can pickle it); returns their values in that order.

    With the payload's *collect* flag each item runs under its own
    :func:`~repro.telemetry.collect_shard` carrier, so an item records
    the same telemetry alone, packed, or restored from the journal.
    The parent sets the flag: a worker's own session is a fork-time
    copy of the parent's, or none at all under ``spawn``.
    """
    fn, members, collect = payload
    if collect:
        return [collect_shard(fn, item) for item in members]
    return [fn(item) for item in members]


def checkpointed_map(fn, items, keys, journal=None, shards=None, **kwargs):
    """:func:`~repro.parallel.parallel_map` over shards of items, with
    an item journal.

    *keys* names each item.  *shards* packs the item positions into
    tuples, each run as one executor shard with its items in order; by
    default each item is its own shard.  Each shard's items are
    journaled in one entry the moment it completes (via the executor's
    ``on_result`` hook), so an interrupted call resumes from its last
    completed shard.  Restoring is the caller's job:
    :meth:`~repro.sched.ElasticScheduler.map` restores journaled items
    before it packs and passes only the pending ones here.  Returns a
    :class:`~repro.parallel.PartialResult` indexed like *items*:
    completed items in ``values``, the items of a stalled or crashed
    shard ``stalled`` or ``crashed`` for the caller to dispatch again.

    Under a telemetry session each item runs under its own carrier,
    absorbed on its key (its default track) in ascending item order,
    so a checkpointed and an unjournaled run export identical traces.
    """
    items = list(items)
    keys = [str(key) for key in keys]
    if shards is None:
        shards = [(index,) for index in range(len(items))]
    collect = _telemetry_active()

    def journal_shard(position, values):
        journal.record({keys[i]: v for i, v in zip(shards[position], values)})

    fresh = parallel_map(
        _run_shard,
        [(fn, [items[i] for i in shard], collect) for shard in shards],
        on_result=journal_shard if journal is not None else None, **kwargs,
    )
    finished = {}
    for position, shard_values in fresh.values.items():
        finished.update(zip(shards[position], shard_values))
    return PartialResult(
        values={index: absorb_value(finished[index], keys[index])
                for index in sorted(finished)},
        stalled=tuple(sorted(i for p in fresh.stalled for i in shards[p])),
        crashed=tuple(sorted(i for p in fresh.crashed for i in shards[p])),
    )
