"""Continuous fleet mode, on the sync-round loop every crowd run uses.

The crowd sweep (:mod:`repro.harness.exp_crowd`) deploys a fixed fleet
for a fixed number of sync rounds.  A real deployment never looks like
that: devices join and leave mid-study, the knowledge base republishes
on a cadence rather than per upload, and the scheduler has to keep the
pool busy as the fleet reshapes around it.  ``stream_sweep`` models
exactly that — one long-lived run of *rounds* sync rounds over a fleet
whose membership evolves on a **seeded churn schedule**, dispatched
through the elastic scheduler (:mod:`repro.sched`) so dead workers
reshard instead of serializing the round, and, under a ``deadline``,
stragglers are stolen from.

Both sweeps run the one round loop here, :func:`run_rounds`: churn,
publish, dispatch the device rounds (packed by the scheduler into at
most one shard per worker), ingest the uploads, record the round's
stats, and flush late batches at the end.  The crowd sweep is the
loop with churn off and a publish every round, once per fleet size.

Determinism contract (the acceptance criteria of the sweep smokes):

* **Churn is data, not timing.**  Join/leave events draw from the
  keyed ``device_churn`` fault channel — the verdict for (kind, round,
  slot) depends only on (seed, churn rate), never on draw order — so
  the membership schedule, and with it every published snapshot and
  every device round, is identical for any worker count.
* **Executor failures are timing, not data.**  ``worker_kill_rate`` /
  ``shard_stall_rate`` storms (and real crashes) change *where* work
  runs, never *what* it computes: every device round is a pure
  function of its payload and results merge in key order.  Rendered
  output is byte-identical between a stormed and an unharmed run, and
  the journal run key deliberately excludes the executor knobs so a
  killed run resumes under a different storm.
* **Scheduling telemetry is advisory.**  Steal/reshard counts depend
  on real wall-clock timing, so they live in the
  :class:`~repro.parallel.ExecutionReport` (``--verbose`` /
  ``--report-json``) and on the advisory telemetry channel
  (``stream.sched`` events, one per round) — never in rendered output.
* **Crowd equivalence holds by construction.**  With churn off,
  executor faults off, and ``publish_every=1``, a static fleet of size
  *n* runs the same loop a ``crowd`` cell runs — same per-(device,
  round) seeds, same publish→run→ingest order, same final
  pending-batch flush — so the stream's aggregate totals are that
  cell's.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.analysis.metrics import detected_bug_sites
from repro.apps.catalog import get_app
from repro.apps.sessions import SessionGenerator
from repro.base.rng import substream_seed
from repro.core.blocking_db import BlockingApiDatabase
from repro.crowd import CrowdAggregator, CrowdKnowledge, ReportBatch
from repro.faults import FaultInjector, FaultPlan
from repro.harness.exp_fleet import deploy
from repro.harness.tables import render_table
from repro.parallel import ExecutionReport
from repro.sched import ElasticScheduler
from repro.telemetry import current as telemetry

#: Default app set: a representative slice of the Figure 8 apps.
CROWD_APPS = ("AndStatus", "K9-mail")

#: Default sync rounds of a stream run.
DEFAULT_ROUNDS = 6

#: Per-round batch-accounting keys (the crowd sweep's stats contract).
_STAT_KEYS = ("batches_ingested", "batches_dropped", "batches_duplicated",
              "batches_late", "duplicates_ignored")


def crowd_device_seed(seed, device_index, round_index):
    """Per-(device, round) seed, derived from the root seed.

    Keyed-hash derivation (like
    :func:`~repro.harness.exp_fleet.fleet_app_seed`) makes a device's
    round independent of fleet size, worker count, and every other
    device's rounds — which is what lets fleets of different sizes
    share the same per-device behaviour and makes the superset
    argument (bigger fleet, more knowledge, fewer collections) hold.
    """
    return substream_seed(seed, "crowd", device_index, round_index)


@dataclass(frozen=True)
class CrowdDeviceRound:
    """One device's results for one sync round (all apps)."""

    device_index: int
    round_index: int
    #: Phase-2 trace collections the device paid for this round.
    phase2_collections: int
    #: Collections avoided via the crowd known-bug table.
    kb_short_circuits: int
    #: Ground-truth bug sites detected, as (app_name, site_id) pairs.
    detected_sites: Tuple[Tuple[str, str], ...]
    #: Report batches to upload (one per app with a non-empty report).
    batches: Tuple[ReportBatch, ...]


def _crowd_device_round(payload):
    """Run one device for one sync round (module-level so the process
    pool can pickle it); returns a :class:`CrowdDeviceRound`.

    The device runs every app of the study with the crowd-synced
    knowledge and blocking-database snapshot published at the start of
    the round, then digests its per-app Hang Bug Reports into upload
    batches stamped with the round index.

    The payload's trailing *track* element names the telemetry track
    the round's records land on (e.g. ``crowd/fleet4/d1/r0``) — it has
    to travel in the payload because the baseline and the fleet's
    round 0 are otherwise byte-identical payloads.
    """
    (device, seed, app_names, device_index, round_index, actions,
     knowledge, db_names, track) = payload
    tel = telemetry()
    with tel.track(track):
        tel.count("crowd.device_rounds")
        round_seed = crowd_device_seed(seed, device_index, round_index)
        generator = SessionGenerator(seed=round_seed)
        phase2 = 0
        shorts = 0
        sites = []
        batches = []
        for app_name in app_names:
            app = get_app(app_name)
            session = generator.user_session(
                app, user_id=device_index, actions_per_user=actions
            )
            doctor, run = deploy(
                app, device, substream_seed(round_seed, app_name),
                [session], blocking_db=BlockingApiDatabase(db_names),
                crowd_kb=knowledge,
            )
            phase2 += doctor.phase2_collections
            shorts += doctor.kb_short_circuits
            sites.extend(
                (app_name, site)
                for site in sorted(detected_bug_sites(app, run.detections))
            )
            if len(doctor.report):
                batches.append(ReportBatch.from_report(
                    doctor.report, device_id=device_index,
                    time_ms=float(round_index),
                    batch_id=(
                        f"{app_name}/dev{device_index}/round{round_index}"
                    ),
                ))
    return CrowdDeviceRound(
        device_index=device_index,
        round_index=round_index,
        phase2_collections=phase2,
        kb_short_circuits=shorts,
        detected_sites=tuple(sites),
        batches=tuple(batches),
    )


def isolated_device_rounds(scheduler, device, seed, apps, devices, rounds,
                           actions):
    """Every ``(device, round)`` of *devices* x *rounds* with no crowd
    sync — knowledge empty, blocking database as shipped — through
    *scheduler*; returns their :class:`CrowdDeviceRound` results,
    device-major.

    The only place these rounds are made: the crowd sweep's
    isolated-device baseline and ``serve-bench --mode real`` both run
    them, on tracks ``crowd/base/d{d}/r{r}`` under keys
    ``base|d{d}|r{r}``, so the two stay byte-for-byte equal.
    """
    db_names = tuple(BlockingApiDatabase.initial())
    pairs = [(d, r) for d in range(devices) for r in range(rounds)]
    return scheduler.map(
        _crowd_device_round,
        [(device, seed, tuple(apps), d, r, actions, CrowdKnowledge(),
          db_names, f"crowd/base/d{d}/r{r}") for d, r in pairs],
        [f"base|d{d}|r{r}" for d, r in pairs],
    )


def _ingest_round(aggregator, arrivals, new_results, faults, stats):
    """Upload phase of one round: deliver late batches from the
    previous round, then this round's uploads through the fault seams.

    Returns the merged aggregator and the batches delayed into the
    next round.  Ingestion order is the deterministic submission order
    (late arrivals first, then device order), and fault decisions are
    drawn serially here in the parent, so worker count never reaches
    the fault streams.
    """
    tel = telemetry()
    round_agg = CrowdAggregator()
    for batch in arrivals:
        if not round_agg.ingest(batch):
            stats["duplicates_ignored"] += 1
        stats["batches_ingested"] += 1
    delayed = []
    for result in new_results:
        for batch in result.batches:
            if faults is not None and faults.drop_report_batch():
                stats["batches_dropped"] += 1
                tel.count("crowd.batches.dropped")
                tel.event("crowd.batch.dropped", batch.time_ms,
                          batch=batch.batch_id)
                continue
            if faults is not None and faults.delay_report_batch():
                stats["batches_late"] += 1
                tel.count("crowd.batches.delayed")
                tel.event("crowd.batch.delayed", batch.time_ms,
                          batch=batch.batch_id)
                delayed.append(batch)
                continue
            if not round_agg.ingest(batch):
                stats["duplicates_ignored"] += 1
            stats["batches_ingested"] += 1
            if faults is not None and faults.duplicate_report_batch():
                stats["batches_duplicated"] += 1
                stats["batches_ingested"] += 1
                tel.count("crowd.batches.duplicated")
                tel.event("crowd.batch.duplicated", batch.time_ms,
                          batch=batch.batch_id)
                if not round_agg.ingest(batch):
                    stats["duplicates_ignored"] += 1
    return CrowdAggregator.merge([aggregator, round_agg]), delayed


@dataclass(frozen=True)
class StreamRound:
    """One sync round of the stream — deterministic fields only.

    Everything here is a pure function of (seed, stream parameters):
    membership comes off the keyed churn schedule, the published
    snapshot and device results off pure per-payload functions, and
    upload-fault outcomes off serial parent-side draws.  Timing-driven
    scheduling activity (steals, reshards) is deliberately absent —
    it lives in the execution report.
    """

    round_index: int
    #: Device ids that ran this round (after churn), ascending.
    fleet: Tuple[int, ...]
    joined: Tuple[int, ...]
    left: Tuple[int, ...]
    #: Whether this round refreshed the published snapshot.
    published: bool
    #: Known bugs / blocking APIs in the snapshot the round ran with.
    known_bugs: int
    blocking_apis: int
    phase2_collections: int
    kb_short_circuits: int
    batches_ingested: int
    batches_dropped: int
    batches_duplicated: int
    batches_late: int
    duplicates_ignored: int

    @property
    def collections_per_device(self):
        """Phase-2 collections per member this round (the cost curve)."""
        return self.phase2_collections / max(1, len(self.fleet))


@dataclass
class StreamResult:
    """A full continuous-fleet run: the per-round time series plus the
    final aggregate the last round's snapshot was drawn from."""

    rounds: List[StreamRound]
    fleet_size: int
    churn_rate: float
    publish_every: int
    apps: Tuple[str, ...]
    fault_rate: float
    #: Aggregate totals including the final pending-batch flush —
    #: comparable field-for-field with a crowd-sweep cell.
    phase2_collections: int = 0
    kb_short_circuits: int = 0
    bugs_detected: int = 0
    known_bugs: int = 0
    new_blocking_apis: int = 0
    batches_ingested: int = 0
    batches_dropped: int = 0
    batches_duplicated: int = 0
    batches_late: int = 0
    duplicates_ignored: int = 0
    #: Total device-rounds actually run (fleet sizes summed over rounds).
    device_rounds: int = 0
    #: How the run executed (steals, reshards, retries, checkpoint
    #: hits); advisory — never part of the rendered output.
    execution: Optional[ExecutionReport] = field(
        default=None, compare=False, repr=False
    )

    def final_summary(self):
        """The crowd-comparable aggregate as a plain dict."""
        return {
            "phase2_collections": self.phase2_collections,
            "kb_short_circuits": self.kb_short_circuits,
            "bugs_detected": self.bugs_detected,
            "known_bugs": self.known_bugs,
            "new_blocking_apis": self.new_blocking_apis,
            "batches_ingested": self.batches_ingested,
            "batches_dropped": self.batches_dropped,
            "batches_duplicated": self.batches_duplicated,
            "batches_late": self.batches_late,
            "duplicates_ignored": self.duplicates_ignored,
        }

    def render(self):
        """ASCII rendering: the per-round time series + final totals."""
        headers = ("round", "fleet", "join", "leave", "pub", "known",
                   "APIs", "phase2", "p2/dev", "shortcut", "batches",
                   "drop/dup/late")
        rows = []
        for entry in self.rounds:
            rows.append((
                entry.round_index,
                len(entry.fleet),
                "+" + ",".join(str(d) for d in entry.joined)
                if entry.joined else "-",
                "-" + ",".join(str(d) for d in entry.left)
                if entry.left else "-",
                "yes" if entry.published else "-",
                entry.known_bugs,
                entry.blocking_apis,
                entry.phase2_collections,
                f"{entry.collections_per_device:.2f}",
                entry.kb_short_circuits,
                entry.batches_ingested,
                f"{entry.batches_dropped}/{entry.batches_duplicated}"
                f"/{entry.batches_late}",
            ))
        table = render_table(
            headers, rows,
            title=(
                f"Stream - {len(self.apps)} apps, {len(self.rounds)} "
                f"rounds, fleet {self.fleet_size}, churn "
                f"{self.churn_rate:g}, publish every {self.publish_every}, "
                f"fault rate {self.fault_rate:g}"
            ),
        )
        first = self.rounds[0]
        last = self.rounds[-1]
        return (
            f"{table}\n"
            f"aggregate: {self.phase2_collections} phase-2 collection(s) "
            f"over {self.device_rounds} device-round(s), "
            f"{self.known_bugs} known bug(s) published, "
            f"{self.new_blocking_apis} blocking API(s) discovered; "
            f"per-device cost {first.collections_per_device:.2f} -> "
            f"{last.collections_per_device:.2f} "
            f"(round {first.round_index} -> {last.round_index})"
        )


def _churn_round(faults, round_index, members, next_id, fleet_size):
    """Apply the keyed churn schedule for one round.

    Joins draw per nominal slot (so the arrival rate tracks the
    configured fleet size), then leaves draw per current member;
    the last member never leaves — a fleet that empties has no round
    to run and no uploads to republish, so the stream would stall
    semantically.  Returns (members, next_id, joined, left), members
    ascending.  Every verdict is keyed by (kind, round, id): the
    schedule is a pure function of (seed, churn rate) and identical
    for any worker count or executor-failure schedule.
    """
    joined = []
    left = []
    if faults is not None:
        for slot in range(fleet_size):
            if faults.device_churn_fault("join", round_index, slot):
                joined.append(next_id)
                members = members + [next_id]
                next_id += 1
        for member in sorted(members):
            if len(members) <= 1:
                break
            if faults.device_churn_fault("leave", round_index, member):
                members = [m for m in members if m != member]
                left.append(member)
    return sorted(members), next_id, tuple(joined), tuple(left)


def run_rounds(scheduler, device, seed, rounds, fleet_size, apps,
               actions_per_round, track, key_prefix, upload_scope,
               churn_rate=0.0, publish_every=1, fault_rate=0.0):
    """Run *rounds* sync rounds of one fleet; returns a StreamResult.

    Each round churns the membership (keyed schedule at *churn_rate*),
    refreshes the published knowledge every *publish_every* rounds,
    runs one device round per member through *scheduler*, and ingests
    the uploads through the fault seams (*fault_rate*, drawn from the
    *upload_scope* stream); batches still in flight when the last
    round ends are flushed.  Records land on telemetry track *track*;
    the device round of device *d* in round *r* runs on track
    ``{track}/d{d}/r{r}`` and is journaled under the key
    ``{key_prefix}|r{r}|d{d}``.  Device rounds have uniform weight, so
    the scheduler packs each round into at most ``scheduler.workers``
    shards.
    """
    report = scheduler.report
    churn = None
    if churn_rate > 0.0:
        churn = FaultInjector(FaultPlan(device_churn_rate=churn_rate),
                              seed=seed, scope=("stream-churn",))
    upload = None
    if fault_rate > 0.0:
        upload = FaultInjector(
            FaultPlan(report_drop_rate=fault_rate,
                      report_duplicate_rate=fault_rate,
                      report_delay_rate=fault_rate),
            seed=seed, scope=upload_scope,
        )
    members = list(range(fleet_size))
    next_id = fleet_size
    aggregator = CrowdAggregator()
    pending = []
    snapshot = None
    series = []
    sites = set()
    totals = dict.fromkeys(_STAT_KEYS, 0)
    total_phase2 = 0
    total_shorts = 0
    device_rounds = 0
    tel = telemetry()
    with tel.track(track):
        for round_index in range(rounds):
            with tel.span("stream.round", round=round_index):
                members, next_id, joined, left = _churn_round(
                    churn, round_index, members, next_id, fleet_size
                )
                report.churn_events += len(joined) + len(left)
                published = round_index % publish_every == 0
                if published or snapshot is None:
                    snapshot = (
                        aggregator.knowledge(),
                        tuple(aggregator.publish_database().sorted_names()),
                    )
                knowledge, db_names = snapshot
                tel.event(
                    "stream.publish", float(round_index),
                    fleet=len(members), known_bugs=len(knowledge),
                    blocking_apis=len(db_names), refreshed=published,
                )
                payloads = [
                    (device, seed, apps, device_index, round_index,
                     actions_per_round, knowledge, db_names,
                     f"{track}/d{device_index}/r{round_index}")
                    for device_index in members
                ]
                keys = [
                    f"{key_prefix}|r{round_index}|d{device_index}"
                    for device_index in members
                ]
                # Deterministic dispatch accounting: a pure function of
                # the round's members, never of dispatch rounds or
                # journal hits.
                tel.count("sched.maps")
                tel.count("sched.items.mapped", len(payloads))
                steals_before = report.steals
                reshards_before = report.reshards
                results = scheduler.map(_crowd_device_round, payloads, keys,
                                        weights=[1.0] * len(payloads))
                tel.advisory_event(
                    "stream.sched", round=round_index,
                    steals=report.steals - steals_before,
                    reshards=report.reshards - reshards_before,
                    dispatch_rounds=scheduler.dispatch_rounds,
                )
                phase2 = sum(r.phase2_collections for r in results)
                shorts = sum(r.kb_short_circuits for r in results)
                for result in results:
                    sites.update(result.detected_sites)
                stats = dict.fromkeys(_STAT_KEYS, 0)
                aggregator, pending = _ingest_round(
                    aggregator, pending, results, upload, stats
                )
                for key in _STAT_KEYS:
                    totals[key] += stats[key]
                total_phase2 += phase2
                total_shorts += shorts
                device_rounds += len(members)
                # Deterministic per-round accounting on the trace
                # channel: pure function of (seed, sweep params), so
                # the ops plane's round-domain rollups can be rebuilt
                # from trace.jsonl alone, bit for bit.
                tel.event(
                    "stream.round.stats", float(round_index),
                    round=round_index, fleet=len(members),
                    phase2_collections=phase2, kb_short_circuits=shorts,
                    **stats,
                )
                series.append(StreamRound(
                    round_index=round_index,
                    fleet=tuple(members),
                    joined=joined,
                    left=left,
                    published=published,
                    known_bugs=len(knowledge),
                    blocking_apis=len(db_names),
                    phase2_collections=phase2,
                    kb_short_circuits=shorts,
                    **stats,
                ))
        if pending:
            # Batches still in flight when the run ends arrive late
            # but arrive: flush them so the final statistics converge.
            stats = dict.fromkeys(_STAT_KEYS, 0)
            aggregator, _ = _ingest_round(aggregator, pending, (), None,
                                          stats)
            for key in _STAT_KEYS:
                totals[key] += stats[key]
    published_db = aggregator.publish_database()
    return StreamResult(
        rounds=series,
        fleet_size=fleet_size,
        churn_rate=churn_rate,
        publish_every=publish_every,
        apps=apps,
        fault_rate=fault_rate,
        phase2_collections=total_phase2,
        kb_short_circuits=total_shorts,
        bugs_detected=len(sites),
        known_bugs=len(aggregator.knowledge()),
        new_blocking_apis=len(published_db.runtime_discoveries()),
        device_rounds=device_rounds,
        execution=report,
        **totals,
    )


def stream_sweep(device, seed=0, rounds=DEFAULT_ROUNDS, fleet_size=4,
                 churn_rate=0.0, publish_every=1, apps=None,
                 actions_per_round=40, fault_rate=0.0,
                 worker_kill_rate=0.0, shard_stall_rate=0.0, workers=1,
                 checkpoint=None, resume=False, report=None,
                 deadline=None):
    """Run the continuous fleet; returns a :class:`StreamResult`.

    ``churn_rate`` drives the keyed join/leave schedule;
    ``publish_every`` sets the knowledge-republish cadence (1 = every
    round, the crowd sweep's behaviour); ``fault_rate`` drives the
    upload-path seams exactly as in the crowd sweep.
    ``worker_kill_rate`` / ``shard_stall_rate`` inject an executor
    storm for the elastic scheduler to absorb — they never change
    rendered output and are deliberately excluded from the checkpoint
    run key, so a killed run resumes under any storm.  ``deadline``
    is the straggler steal deadline in wall seconds (only timing,
    never output); ``None`` disables stealing.
    """
    apps = tuple(apps) if apps else CROWD_APPS
    if fleet_size < 1:
        raise ValueError(f"fleet_size must be >= 1, got {fleet_size}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if publish_every < 1:
        raise ValueError(
            f"publish_every must be >= 1, got {publish_every}"
        )
    for name, rate in (("churn_rate", churn_rate),
                       ("fault_rate", fault_rate),
                       ("worker_kill_rate", worker_kill_rate),
                       ("shard_stall_rate", shard_stall_rate)):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {rate}")
    storm = None
    if worker_kill_rate > 0.0 or shard_stall_rate > 0.0:
        storm = FaultInjector(
            FaultPlan(worker_kill_rate=worker_kill_rate,
                      shard_stall_rate=shard_stall_rate),
            seed=seed, scope=("stream-exec",),
        )
    # The run key spans everything that shapes output — and nothing
    # that only shapes timing: workers, the executor-storm rates, and
    # the deadline are all absent on purpose.
    scheduler = ElasticScheduler.for_sweep(
        "stream", device.name, seed, rounds, fleet_size, churn_rate,
        publish_every, apps, actions_per_round, fault_rate,
        workers=workers, checkpoint=checkpoint, resume=resume,
        report=report, faults=storm, deadline=deadline, seed=seed,
    )
    return run_rounds(
        scheduler, device, seed, rounds, fleet_size, apps,
        actions_per_round, track="stream", key_prefix="stream",
        upload_scope=("stream-upload",), churn_rate=churn_rate,
        publish_every=publish_every, fault_rate=fault_rate,
    )
