"""The elastic shard scheduler between harnesses and the executor.

Static sharding (``chunk_indices`` + one :func:`parallel_map` call)
assigns every shard once and forces each to completion where it
landed.  A long-lived fleet run needs more: shards that cost different
amounts must pack by *weight*, a straggler must not hold the round
hostage (its work is *stolen* past a seeded deadline and repacked
onto the rest of the pool), and a worker death must *reshard* the
in-flight work instead of serializing it in the parent.

:class:`ElasticScheduler` implements that loop on top of the
supervised executor's reclaim mode, and every sweep dispatches through
it (:meth:`ElasticScheduler.for_sweep` opens the sweep's journal and
report):

1. Under a straggler deadline, pack pending items into weighted shards
   (deterministic LPT, see :func:`pack_by_weight`) — one shard per
   live worker slot.  Without one, each item is its own shard.
2. Write-ahead the assignment to the checkpoint journal's
   reassignment log, then dispatch the round through
   :func:`~repro.checkpoint.checkpointed_map` with ``reclaim=True``:
   journaled shards restore, the rest run and are journaled as they
   complete.
3. Reclaim whatever stalled (a *steal*: the items repack next round,
   accounted in ``ExecutionReport.steals``) or died with a worker (a
   *reshard*, accounted in ``reshards``) — each decision journaled
   *before* it is acted on.
4. Repeat until done; if two consecutive rounds make no progress, a
   final non-reclaim dispatch (the supervisor's own rebuild/in-process
   machinery, faults disabled) guarantees termination.

The determinism contract, inherited from the executor and defended by
``tests/test_sched.py``: every work item is a pure function of its
payload and results merge in submission-key order, so rendered output
is byte-identical for any worker count, any packing, and **any
failure schedule** — injected or real, including none at all.
Scheduling telemetry (steals, reshards, round counts) lives on the
advisory channel and in the :class:`~repro.parallel.ExecutionReport`,
never in deterministic output.
"""

import heapq

from repro.base.rng import stream
from repro.checkpoint.journal import ShardJournal, checkpointed_map, run_key
from repro.faults import FaultInjector
from repro.parallel import ExecutionReport, PartialResult, resolve_workers

#: Seeded jitter band on the per-round steal deadline: each round's
#: deadline is the base deadline times 1 + U[0, DEADLINE_JITTER).
DEADLINE_JITTER = 0.5

#: Consecutive zero-progress dispatch rounds tolerated before the
#: scheduler falls back to the supervisor's forced-completion path.
MAX_IDLE_ROUNDS = 2


def pack_by_weight(weights, bins):
    """Pack ``range(len(weights))`` into at most *bins* weighted groups.

    Deterministic longest-processing-time packing: items are placed
    heaviest-first (ties broken by index) onto the currently lightest
    bin (ties broken by bin number).  Returns a list of tuples of
    ascending indices; empty bins are dropped, non-empty bins come
    back in bin order, and the tuples partition ``range(len(weights))``.

    >>> pack_by_weight([3.0, 1.0, 1.0, 1.0], 2)
    [(0,), (1, 2, 3)]
    """
    count = len(weights)
    if bins < 1 and count:
        raise ValueError(f"bins must be >= 1, got {bins}")
    bins = max(1, min(bins, count)) if count else 0
    order = sorted(range(count), key=lambda i: (-float(weights[i]), i))
    loads = [(0.0, number) for number in range(bins)]
    heapq.heapify(loads)
    packed = [[] for _ in range(bins)]
    for index in order:
        load, number = heapq.heappop(loads)
        packed[number].append(index)
        heapq.heappush(loads, (load + float(weights[index]), number))
    return [tuple(sorted(group)) for group in packed if group]


def _run_group(payload):
    """Execute one packed shard (module-level so the pool can pickle
    it): run each item in order, return the values in that order."""
    fn, items = payload
    return [fn(item) for item in items]


class ElasticScheduler:
    """Weight-packing, work-stealing, resharding dispatch loop.

    Parameters
    ----------
    workers: worker processes (``0``/``None`` = one per CPU).
    faults: optional :class:`~repro.faults.FaultInjector` whose
        executor channels (``worker_kill``/``shard_stall``) are
        re-scoped per dispatch round — a shard killed in round *r*
        draws a fresh verdict in round *r + 1*, so injected storms
        exercise stealing and resharding without livelocking the loop.
    journal: optional :class:`~repro.checkpoint.ShardJournal`; every
        dispatch round goes through
        :func:`~repro.checkpoint.checkpointed_map`, so completed shards
        are journaled the moment they finish (an interrupted run
        resumes from its last completed shard) and every
        assignment/steal/reshard is write-ahead logged.
    report: :class:`~repro.parallel.ExecutionReport` accounting the
        run (``steals``/``reshards`` on top of the supervisor's own
        counters).
    deadline: base straggler deadline in wall seconds (jittered per
        round from the seeded stream).  ``None`` disables stealing and
        packing: each item is then its own shard, journaled under its
        own key.
    seed: seeds the deadline-jitter stream only — scheduling decisions
        never touch the work items' own streams.
    """

    def __init__(self, workers=1, faults=None, journal=None, report=None,
                 deadline=None, seed=0):
        self.workers = resolve_workers(workers)
        self.faults = faults
        self.journal = journal
        self.report = report if report is not None else ExecutionReport()
        self.deadline = deadline
        self.seed = seed
        #: Dispatch rounds issued across all :meth:`map` calls.
        self.dispatch_rounds = 0

    @classmethod
    def for_sweep(cls, *run_parts, workers=1, checkpoint=None, resume=False,
                  report=None, faults=None, deadline=None, seed=0):
        """The scheduler one sweep dispatches through.

        *run_parts* are the sweep's full parameterization (see
        :func:`~repro.checkpoint.run_key`); with *checkpoint* they key
        the journal opened there (*resume* keeps its matching
        entries).  *faults* drives both the executor channels and the
        journal's ``torn_write`` channel.  The report (a fresh
        :class:`~repro.parallel.ExecutionReport` unless given) is
        ``scheduler.report``.
        """
        if report is None:
            report = ExecutionReport()
        journal = None
        if checkpoint is not None:
            journal = ShardJournal(checkpoint, run_key(*run_parts),
                                   faults=faults, report=report)
            journal.open(resume=resume)
        elif resume:
            raise ValueError("resume requires a checkpoint directory")
        return cls(workers=workers, faults=faults, journal=journal,
                   report=report, deadline=deadline, seed=seed)

    # ------------------------------------------------------------ helpers

    def _round_deadline(self, round_number):
        if self.deadline is None:
            return None
        jitter = float(
            stream(self.seed, "sched", "deadline", round_number).random()
        )
        return self.deadline * (1.0 + DEADLINE_JITTER * jitter)

    def _round_faults(self, round_number):
        """Per-round injector: same plan, round-scoped streams."""
        if self.faults is None:
            return None
        return FaultInjector(
            self.faults.plan, seed=self.faults.seed,
            scope=(*self.faults.scope, "dispatch", round_number),
        )

    def _log(self, kind, **record):
        if self.journal is not None:
            self.journal.log_reassignment(kind, **record)

    # ---------------------------------------------------------------- map

    def map(self, fn, items, keys, weights=None):
        """Ordered ``[fn(item) for item in items]``, elastically.

        *keys* name the items (unique, stable across runs — they key
        journal entries and the reassignment log).  *weights* are the
        relative shard weights under a deadline (defaults to 1.0 per
        item).  Item exceptions propagate exactly as
        :func:`parallel_map`'s do.
        """
        items = list(items)
        keys = [str(key) for key in keys]
        if len(items) != len(keys):
            raise ValueError(
                f"need one key per item, got {len(keys)} keys for "
                f"{len(items)} items"
            )
        if len(set(keys)) != len(keys):
            raise ValueError("item keys must be unique within one map")
        if weights is None:
            weights = [1.0] * len(items)
        weights = [float(weight) for weight in weights]
        if len(weights) != len(items):
            raise ValueError(
                f"need one weight per item, got {len(weights)} for "
                f"{len(items)} items"
            )
        # Under a deadline, pack into at most one shard per worker: the
        # deadline runs from submission, so a shard left queued behind
        # the pool would be stolen for no reason.  Without one, each
        # item is its own shard, journaled under its own key.
        packed = self.deadline is not None
        done = {}
        pending = list(range(len(items)))
        idle_rounds = 0
        while pending:
            round_number = self.dispatch_rounds
            self.dispatch_rounds += 1
            # Escape hatch: when the storm keeps eating every dispatch,
            # hand the remainder to the supervisor's forced path (pool
            # rebuilds + in-process last resort, no injection) — it
            # always terminates.
            forced = idle_rounds >= MAX_IDLE_ROUNDS
            if forced:
                self.report.record(
                    "sched-fallback",
                    f"{len(pending)} item(s) after {idle_rounds} idle "
                    f"round(s); forcing completion",
                )
                self._log("fallback", items=[keys[i] for i in pending])
            if packed and not forced:
                groups = pack_by_weight([weights[i] for i in pending],
                                        min(self.workers, len(pending)))
                # Map positions within `pending` back to item indices.
                groups = [tuple(pending[p] for p in group)
                          for group in groups]
            else:
                groups = [(index,) for index in pending]
            if not forced:
                # Write-ahead the assignment before acting on it.
                self._log("assign", round=round_number,
                          shards=[[keys[i] for i in group]
                                  for group in groups])
            if packed:
                # A packed shard's content key is stable across runs
                # that pack identically, so resumes restore whole groups.
                shard_fn = _run_group
                shards = [(fn, [items[i] for i in group])
                          for group in groups]
                shard_keys = ["grp|" + "+".join(keys[i] for i in group)
                              for group in groups]
            else:
                shard_fn = fn
                shards = [items[i] for (i,) in groups]
                shard_keys = [keys[i] for (i,) in groups]
            if forced:
                values = checkpointed_map(
                    shard_fn, shards, shard_keys, self.journal,
                    workers=self.workers, report=self.report,
                )
                partial = PartialResult(values=dict(enumerate(values)),
                                        stalled=(), crashed=())
            else:
                partial = checkpointed_map(
                    shard_fn, shards, shard_keys, self.journal,
                    reclaim=True, workers=self.workers, report=self.report,
                    deadline=self._round_deadline(round_number),
                    faults=self._round_faults(round_number),
                )
            for position, value in partial.values.items():
                group_values = value if packed else (value,)
                for index, item_value in zip(groups[position], group_values):
                    done[index] = item_value
            # Steals and reshards: journal the decision, then let the
            # next round's packing redistribute the reclaimed items.
            for position in partial.stalled:
                stolen = [keys[i] for i in groups[position]]
                self.report.steals += len(stolen)
                self.report.record(
                    "steal",
                    f"round {round_number}: reclaimed {len(stolen)} "
                    f"item(s) from straggler shard {position}",
                )
                self._log("steal", round=round_number, items=stolen)
            for position in partial.crashed:
                lost = [keys[i] for i in groups[position]]
                self.report.reshards += len(lost)
                self.report.record(
                    "reshard",
                    f"round {round_number}: resharding {len(lost)} "
                    f"item(s) after worker loss",
                )
                self._log("reshard", round=round_number, items=lost)
            before = len(pending)
            pending = [i for i in pending if i not in done]
            idle_rounds = idle_rounds + 1 if len(pending) == before else 0
        return [done[index] for index in range(len(items))]
