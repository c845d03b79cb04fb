"""The shard-level checkpoint journal behind every ``--checkpoint``.

A long sweep decomposes into pure shards (see :mod:`repro.parallel`);
the journal persists each shard's result the moment it completes, so a
crash, deadline kill, or plain ``kill -9`` mid-sweep loses only the
shards still in flight.  On ``--resume`` the sweep loads completed
shards from the journal and re-runs the rest — and because every shard
is a pure function of its payload, the resumed run's merged output is
byte-identical to an uninterrupted one.

Safety properties:

* **Crash-atomic entries**: every write goes through
  :func:`repro.core.persistence.atomic_write_bytes` (temp file +
  fsync + rename), so a kill mid-checkpoint leaves at worst a
  truncated temp file, never a torn journal entry.  The ``torn_write``
  fault channel simulates exactly that death to prove it.
* **Run-key guard**: the journal records a :func:`run_key` digest of
  the sweep's full parameterization.  Resuming with *any* different
  parameter (seed, apps, rates, device, ...) mismatches the key and
  the journal resets instead of serving stale shards.
* **Corruption tolerance**: an unreadable or mislabeled entry is
  treated as missing (the shard re-runs), mirroring the
  ``load_report``/``load_database`` never-raise contract.
* **Best-effort writes**: a failed checkpoint write degrades (the
  shard re-runs on resume) rather than crashing the sweep; failures
  are accounted in the :class:`~repro.parallel.ExecutionReport`.
"""

import hashlib
import json
import os
import pathlib
import pickle

from repro.core.persistence import atomic_write_bytes, atomic_write_text
from repro.faults.injector import InjectedFault
from repro.parallel import PartialResult, parallel_map
from repro.telemetry import absorb_value
from repro.telemetry import active as _telemetry_active
from repro.telemetry import current as _telemetry_current

#: Journal layout version (bumped on incompatible changes; a mismatch
#: resets the journal, never misreads it).
JOURNAL_SCHEMA = 2


def run_key(*parts):
    """Digest a sweep's full parameterization into a stable run key.

    Two runs share a journal only when every part matches — pass
    everything that changes the output (experiment name, device name,
    seed, grids, sizes, worker-visible knobs).
    """
    text = "|".join(str(part) for part in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


class ShardJournal:
    """A directory of completed-shard results keyed by shard id.

    Parameters
    ----------
    directory: journal root (created on :meth:`open`).
    key: the sweep's :func:`run_key`.
    faults: optional :class:`~repro.faults.FaultInjector` whose
        ``torn_write`` channel exercises the crash-atomic write path.
    report: optional :class:`~repro.parallel.ExecutionReport` that
        accounts checkpoint hits and torn writes.
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

    # ------------------------------------------------------------ layout

    @property
    def manifest_path(self):
        """Path of the run-key manifest file."""
        return self.directory / "manifest.json"

    @property
    def shards_dir(self):
        """Directory holding one pickle per completed shard."""
        return self.directory / "shards"

    @property
    def reassignments_path(self):
        """Append-only JSONL log of scheduler reassignment decisions."""
        return self.directory / "reassignments.jsonl"

    def _entry_path(self, shard_key):
        digest = hashlib.sha256(str(shard_key).encode("utf-8")).hexdigest()
        return self.shards_dir / f"{digest[:32]}.pkl"

    # --------------------------------------------------------- lifecycle

    def open(self, resume=False):
        """Prepare the journal; returns ``self``.

        Without *resume* the journal always starts empty.  With it,
        existing entries are kept only when the manifest's run key
        matches this sweep's — a missing, corrupt, or mismatched
        manifest resets the journal (stale shards must never leak into
        a differently-parameterized run).
        """
        if resume and self._manifest_matches():
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

    def clear(self):
        """Drop every journal entry, the manifest, and the
        reassignment log."""
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
        died.  The record is one JSON line ``{"kind": ..., ...}``
        appended with an fsync; a torn tail (killed mid-append) is
        tolerated by :meth:`reassignments`.  Returns True when the
        record landed.
        """
        payload = dict(record)
        payload["kind"] = str(kind)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(self.reassignments_path, "a",
                      encoding="utf-8") as handle:
                handle.write(json.dumps(payload, sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            return False
        _telemetry_current().advisory_event("checkpoint.reassignment",
                                            **payload)
        return True

    def reassignments(self):
        """All durably logged reassignment records, in append order.

        A torn final line (the process died mid-append) is skipped,
        mirroring the journal-wide corruption-means-rerun contract.
        """
        try:
            text = self.reassignments_path.read_text(encoding="utf-8")
        except OSError:
            return []
        records = []
        for line in text.splitlines():
            try:
                payload = json.loads(line)
            except ValueError:
                continue
            if isinstance(payload, dict):
                records.append(payload)
        return records

    # ----------------------------------------------------------- entries

    def record(self, shard_key, value):
        """Persist one completed shard; best-effort, never raises.

        A write that dies mid-stream (injected ``torn_write`` or a
        real I/O error) is dropped — the destination entry stays
        absent or intact-old, and the shard simply re-runs on resume.
        Returns True when the entry landed.
        """
        payload = pickle.dumps((str(shard_key), value),
                               protocol=pickle.HIGHEST_PROTOCOL)
        try:
            atomic_write_bytes(self._entry_path(shard_key), payload,
                               faults=self.faults, label=str(shard_key))
        except (InjectedFault, OSError, pickle.PicklingError) as error:
            if self.report is not None:
                self.report.torn_writes += 1
                self.report.record(
                    "torn-write",
                    f"checkpoint for shard {shard_key!r} lost "
                    f"({type(error).__name__})",
                )
            return False
        _telemetry_current().advisory_event("checkpoint.write",
                                            shard=str(shard_key))
        return True

    def load(self, shard_key):
        """Fetch one shard's journaled result.

        Returns ``(True, value)`` on a hit; ``(False, None)`` when the
        entry is absent, unreadable, or labeled with a different shard
        key (hash-collision paranoia) — all of which just mean "re-run
        the shard".
        """
        path = self._entry_path(shard_key)
        try:
            stored_key, value = pickle.loads(path.read_bytes())
        except Exception:  # noqa: BLE001 - any corruption means re-run
            return False, None
        if stored_key != str(shard_key):
            return False, None
        return True, value

    def completed(self, shard_keys):
        """The subset of *shard_keys* already journaled."""
        return [key for key in shard_keys if self.load(key)[0]]


def checkpointed_map(fn, items, keys, journal=None, **kwargs):
    """:func:`~repro.parallel.parallel_map` with a shard journal.

    *keys* names each item's journal entry (same length as *items*).
    Journaled shards are restored without re-running; the rest execute
    through the supervised pool and are journaled the moment each
    completes (via the executor's ``on_result`` hook), so an
    interrupted call resumes from its last completed shard.  Returns
    the executor's :class:`~repro.parallel.PartialResult` indexed like
    *items*: restored and completed shards in ``values``, the rest
    ``stalled`` or ``crashed`` for the caller (the elastic scheduler)
    to repack.  Output is byte-identical with, without, or across
    interrupted journals.

    With ``journal=None`` this is exactly ``parallel_map(fn, items,
    **kwargs)`` — except that the journal keys still name the shards'
    default telemetry tracks, so a checkpointed and an unjournaled run
    of the same sweep export identical traces.
    """
    items = list(items)
    keys = [str(key) for key in keys]
    if len(items) != len(keys):
        raise ValueError(
            f"need one key per item, got {len(keys)} keys for "
            f"{len(items)} items"
        )
    if len(set(keys)) != len(keys):
        raise ValueError("shard keys must be unique within one map")
    if journal is None:
        return parallel_map(fn, items, shard_tracks=keys, **kwargs)
    restored = {}
    pending = []
    for index, key in enumerate(keys):
        hit, value = journal.load(key)
        if hit:
            # Restored carriers replay the shard's telemetry exactly
            # as a fresh run would record it (per-track renumbering
            # makes the restored-before-fresh absorption order moot).
            _telemetry_current().advisory_event("checkpoint.restore",
                                                shard=key)
            restored[index] = absorb_value(value, key)
        else:
            pending.append(index)
    report = kwargs.get("report")
    if report is not None and restored:
        report.checkpoint_hits += len(restored)
        report.record(
            "checkpoint",
            f"restored {len(restored)}/{len(items)} shard(s) from "
            f"{journal.directory}",
        )

    def journal_result(position, value):
        journal.record(keys[pending[position]], value)

    fresh = parallel_map(fn, [items[i] for i in pending],
                         on_result=journal_result,
                         shard_tracks=[keys[i] for i in pending], **kwargs)
    restored.update(
        (pending[position], value)
        for position, value in fresh.values.items()
    )
    return PartialResult(
        values=restored,
        stalled=tuple(pending[position] for position in fresh.stalled),
        crashed=tuple(pending[position] for position in fresh.crashed),
    )
