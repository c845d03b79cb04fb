"""Fleet-wide report ingestion and hang-bug deduplication.

The paper's feedback loop ends at the device: every Hang Doctor
instance grows its own Hang Bug Report and blocking-API database, so
every device pays the full two-phase diagnosis cost for bugs the fleet
has already diagnosed.  This module is the server half that closes the
loop: devices upload their (anonymized) reports in
:class:`ReportBatch`\\ es, the :class:`CrowdAggregator` dedupes bugs by
root-cause signature (app | action | root-cause operation |
occurrence-factor bucket, see
:meth:`~repro.core.report.ReportEntry.root_cause_signature`) and keeps
cross-device statistics, and two artifacts are published back to the
fleet:

* a merged global :class:`~repro.core.blocking_db.BlockingApiDatabase`
  that devices pull to pre-seed their local copy (and that offline
  scanners consume), and
* a :class:`CrowdKnowledge` known-bug table keyed by (app, action)
  that lets a device short-circuit straight from S-Checker's
  Suspicious verdict to a known-bug diagnosis — skipping the phase-2
  trace collection entirely (see
  :meth:`repro.core.hang_doctor.HangDoctor._crowd_short_circuit`).

Ingestion is built to survive a hostile upload path (see
:mod:`repro.faults`: dropped, duplicated, and late batches):

* **idempotent** — a batch is identified by its ``batch_id``; a
  re-delivered batch is recognized and ignored;
* **order-independent** — the aggregator's state is a grow-only map
  from batch id to immutable batch content, so
  :meth:`CrowdAggregator.merge` is associative, commutative, and
  idempotent, and ingestion parallelizes through
  :mod:`repro.parallel` with byte-identical results for any worker
  count;
* **deterministic** — every derived view (statistics, knowledge,
  published database, serialization) folds batches in sorted-id order,
  never in arrival order.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.telemetry import current as telemetry


@dataclass(frozen=True)
class BugObservation:
    """One device's aggregated record of one bug, digested at upload.

    The per-entry slice of a Hang Bug Report that crosses the wire:
    the root-cause signature plus the anonymized statistics the server
    folds.  Frozen so a batch's content can never drift after its id
    is assigned (idempotent re-delivery relies on that).
    """

    signature: str
    action: str
    operation: str
    file: str
    line: int
    is_self_developed: bool
    occurrences: int
    total_hang_ms: float
    max_occurrence_factor: float


@dataclass(frozen=True)
class ReportBatch:
    """One device's report upload for one app at one sync point."""

    batch_id: str
    app_name: str
    device_id: int
    #: Upload timestamp supplied by the caller (the harness uses the
    #: sync-round index) — drives the first/last-seen statistics.
    time_ms: float
    observations: Tuple[BugObservation, ...]

    @classmethod
    def from_report(cls, report, device_id, time_ms, batch_id=None):
        """Digest a :class:`~repro.core.report.HangBugReport`.

        Observations are emitted in sorted-signature order, so the
        batch content — and therefore everything derived from it — is
        independent of the order detections were recorded on-device.
        """
        observations = []
        for entry in report.entries():
            observations.append(BugObservation(
                signature=entry.root_cause_signature(report.app_name),
                action=entry.action,
                operation=entry.operation,
                file=entry.file,
                line=entry.line,
                is_self_developed=entry.is_self_developed,
                occurrences=entry.occurrences,
                total_hang_ms=entry.total_hang_ms,
                max_occurrence_factor=entry.max_occurrence_factor,
            ))
        observations.sort(key=lambda o: (o.signature, o.file, o.line))
        if batch_id is None:
            batch_id = f"{report.app_name}/dev{device_id}/t{time_ms:g}"
        return cls(
            batch_id=batch_id,
            app_name=report.app_name,
            device_id=device_id,
            time_ms=time_ms,
            observations=tuple(observations),
        )


@dataclass(frozen=True)
class CrowdBugStat:
    """Cross-device statistics for one deduplicated hang bug."""

    signature: str
    app_name: str
    action: str
    operation: str
    file: str
    line: int
    is_self_developed: bool
    #: Distinct devices that reported this bug, sorted.
    devices: Tuple[int, ...]
    #: Total hang occurrences across the fleet.
    hang_count: int
    total_hang_ms: float
    #: Range of per-device occurrence factors folded into this bug.
    occurrence_low: float
    occurrence_high: float
    #: Earliest / latest upload timestamp that contained the bug.
    first_seen_ms: float
    last_seen_ms: float

    @property
    def device_count(self):
        """Number of distinct devices that hit the bug."""
        return len(self.devices)

    @property
    def mean_hang_ms(self):
        """Average hang length across all fleet occurrences."""
        return self.total_hang_ms / self.hang_count if self.hang_count else 0.0


@dataclass(frozen=True)
class KnownBug:
    """A fleet-confirmed bug verdict for one (app, action)."""

    app_name: str
    action: str
    operation: str
    file: str
    line: int
    is_self_developed: bool
    #: Representative occurrence factor (the fleet-wide maximum).
    occurrence: float
    device_count: int
    hang_count: int


class CrowdKnowledge:
    """The published known-bug table devices sync.

    Maps (app, action) to the dominant :class:`KnownBug` so the
    on-device lookup in the hang path is O(1).  Immutable after
    construction; picklable, so it ships to worker processes and into
    :class:`~repro.core.hang_doctor.HangDoctor` payloads unchanged.
    """

    def __init__(self, bugs=()):
        self._by_action: Dict[Tuple[str, str], KnownBug] = {}
        for bug in bugs:
            self._by_action[(bug.app_name, bug.action)] = bug

    def lookup(self, app_name, action):
        """The known bug for (app, action), or None."""
        return self._by_action.get((app_name, action))

    def bugs(self):
        """All known bugs, sorted by (app, action)."""
        return [self._by_action[key] for key in sorted(self._by_action)]

    def __len__(self):
        return len(self._by_action)

    def __eq__(self, other):
        return (isinstance(other, CrowdKnowledge)
                and self._by_action == other._by_action)


class CrowdAggregator:
    """Order-independent, idempotent fleet-report aggregator.

    State is a grow-only map ``batch_id -> ReportBatch``.  Because a
    batch's content is immutable and fully determined by its id, the
    union of two aggregators is well-defined regardless of overlap, so
    shards of the fleet can ingest independently (any partition, any
    order, through :mod:`repro.parallel`) and :meth:`merge` recombines
    them into the exact state one serial ingester would hold.
    """

    def __init__(self):
        self._batches: Dict[str, ReportBatch] = {}
        #: True when this aggregator was rebuilt empty because its
        #: persisted copy was corrupt (see :mod:`repro.crowd.store`).
        self.recovered_from_corruption = False

    # -------------------------------------------------------- ingestion

    def ingest(self, batch):
        """Ingest one report batch; returns False for a re-delivery.

        Idempotent by ``batch_id``: the upload path may duplicate a
        batch (a lost ack makes the device re-send), and the second
        copy must not double-count anything.
        """
        if batch.batch_id in self._batches:
            telemetry().count("crowd.batches.deduped")
            return False
        self._batches[batch.batch_id] = batch
        telemetry().count("crowd.batches.ingested")
        return True

    @classmethod
    def merge(cls, parts):
        """Union several aggregators' states into a new one.

        Associative, commutative, and idempotent: parts may share
        batches (a duplicated upload ingested by two shards), arrive in
        any order, or appear twice — the union keys on batch id, and
        equal ids carry equal content.  ``merge([a]) == a`` and
        ``merge([])`` is an empty aggregator.
        """
        merged = cls()
        for part in parts:
            for batch_id, batch in part._batches.items():
                merged._batches.setdefault(batch_id, batch)
            merged.recovered_from_corruption |= part.recovered_from_corruption
        return merged

    # ------------------------------------------------------ derived views

    def batch_ids(self):
        """Ingested batch ids in canonical (sorted) order."""
        return sorted(self._batches)

    def batches(self):
        """Ingested batches in canonical (sorted-id) order."""
        return [self._batches[batch_id] for batch_id in self.batch_ids()]

    def __len__(self):
        return len(self._batches)

    def __eq__(self, other):
        return (isinstance(other, CrowdAggregator)
                and self._batches == other._batches)

    def bug_stats(self):
        """Deduplicated fleet-wide bug statistics.

        Bugs dedupe by root-cause signature; statistics fold over
        batches in sorted-id order, so the result is identical for any
        ingestion order or shard assignment.  Sorted by fleet impact
        (hang count descending, signature ascending).
        """
        folded: Dict[str, dict] = {}
        for batch in self.batches():
            for obs in batch.observations:
                stat = folded.get(obs.signature)
                if stat is None:
                    stat = folded[obs.signature] = {
                        "app_name": batch.app_name,
                        "action": obs.action,
                        "operation": obs.operation,
                        "file": obs.file,
                        "line": obs.line,
                        "is_self_developed": obs.is_self_developed,
                        "devices": set(),
                        "hang_count": 0,
                        "total_hang_ms": 0.0,
                        "occurrence_low": obs.max_occurrence_factor,
                        "occurrence_high": obs.max_occurrence_factor,
                        "first_seen_ms": batch.time_ms,
                        "last_seen_ms": batch.time_ms,
                    }
                stat["devices"].add(batch.device_id)
                stat["hang_count"] += obs.occurrences
                stat["total_hang_ms"] += obs.total_hang_ms
                stat["occurrence_low"] = min(
                    stat["occurrence_low"], obs.max_occurrence_factor
                )
                stat["occurrence_high"] = max(
                    stat["occurrence_high"], obs.max_occurrence_factor
                )
                stat["first_seen_ms"] = min(
                    stat["first_seen_ms"], batch.time_ms
                )
                stat["last_seen_ms"] = max(
                    stat["last_seen_ms"], batch.time_ms
                )
                # Representative source site: the lexicographically
                # smallest seen, so shard order can never leak in.
                if (obs.file, obs.line) < (stat["file"], stat["line"]):
                    stat["file"], stat["line"] = obs.file, obs.line
        stats = [
            CrowdBugStat(
                signature=signature,
                devices=tuple(sorted(raw.pop("devices"))),
                **raw,
            )
            for signature, raw in folded.items()
        ]
        stats.sort(key=lambda s: (-s.hang_count, s.signature))
        return stats

    # -------------------------------------------------------- publishing

    def knowledge(self, min_devices=1, min_hangs=1):
        """Publish the known-bug table devices sync.

        One verdict per (app, action): the dominant bug (highest hang
        count, ties on signature) among those seen on at least
        ``min_devices`` devices with at least ``min_hangs`` hangs.
        Deterministic for any ingestion order.
        """
        best: Dict[Tuple[str, str], CrowdBugStat] = {}
        for stat in self.bug_stats():  # already impact-sorted
            if stat.device_count < min_devices:
                continue
            if stat.hang_count < min_hangs:
                continue
            best.setdefault((stat.app_name, stat.action), stat)
        return CrowdKnowledge(
            KnownBug(
                app_name=stat.app_name,
                action=stat.action,
                operation=stat.operation,
                file=stat.file,
                line=stat.line,
                is_self_developed=stat.is_self_developed,
                occurrence=stat.occurrence_high,
                device_count=stat.device_count,
                hang_count=stat.hang_count,
            )
            for stat in best.values()
        )

    def publish_database(self, base=None):
        """The merged global blocking-API database upgrade.

        Starts from *base* (default: the shipped initial database) and
        adds every fleet-diagnosed blocking API — root causes that are
        real APIs, never self-developed operations — in sorted
        signature order, so publishing is byte-stable.  The additions
        are recorded as runtime discoveries: they are exactly what the
        fleet learned at runtime.
        """
        # Imported here, once per publish round: the shipped database
        # is built from the API catalog, which the ingestion service
        # never needs.
        from repro.core.blocking_db import BlockingApiDatabase

        db = BlockingApiDatabase(
            base.names() if base is not None
            else BlockingApiDatabase.initial().names()
        )
        operations = sorted({
            stat.operation for stat in self.bug_stats()
            if not stat.is_self_developed
        })
        for operation in operations:
            db.add(operation)
        return db
