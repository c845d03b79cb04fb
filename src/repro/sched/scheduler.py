"""The elastic shard scheduler between harnesses and the executor.

One :func:`parallel_map` call runs each shard once and hands back
whatever it could not finish.  A long-lived fleet run needs more: a
straggler must not hold the round hostage (its shard is *stolen* past
a seeded deadline and re-dispatched), and a worker death must
*reshard* the in-flight work instead of serializing it in the parent.

:class:`ElasticScheduler` implements that loop, and it is the one
place that decides what happens to a shard the pool did not finish.
Every sweep dispatches through it (:meth:`ElasticScheduler.for_sweep`
opens the sweep's journal and report):

1. Validate the item keys and restore every journaled item, once,
   before the first round packs — so a resume restores every finished
   item under any packing or worker count, and every round packs only
   pending items.
2. Pack the pending items into shards.  Without weights each item is
   its own shard; with them, the round packs the pending items by
   weight into at most ``workers`` shards (deterministic LPT, see
   :func:`pack_by_weight`), whose items run in order.
3. Write-ahead the assignment to the checkpoint journal's
   reassignment log, then dispatch the round through one
   :func:`~repro.checkpoint.checkpointed_map` call: the shards run
   once, and each shard's items are journaled, keyed by item, the
   moment the shard completes.
4. Take back whatever stalled past the deadline (a *steal*, accounted
   in ``ExecutionReport.steals``) or died with a worker (a *reshard*,
   accounted in ``reshards``) — each decision journaled *before* it is
   acted on — and dispatch those items again next round, repacked
   with the rest of the pending items.
5. Repeat until done; if two consecutive rounds make no progress,
   log a ``fallback`` and run the remaining items in-process
   (journaled, never injected, accounted in ``in_process_shards``),
   which always terminates.

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
import math

from repro.base.rng import stream
from repro.checkpoint.journal import ShardJournal, checkpointed_map, run_key
from repro.faults import FaultInjector
from repro.parallel import ExecutionReport, resolve_workers
from repro.telemetry import absorb_value
from repro.telemetry import current as _telemetry_current

#: Seeded jitter band on the per-round steal deadline: each round's
#: deadline is the base deadline times 1 + U[0, DEADLINE_JITTER).
DEADLINE_JITTER = 0.5

#: Consecutive zero-progress dispatch rounds tolerated before the
#: scheduler runs the remaining shards in-process.
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


class ElasticScheduler:
    """Work-stealing, resharding dispatch loop over packed shards.

    Parameters
    ----------
    workers: worker processes (``0``/``None`` = one per CPU).
    faults: optional :class:`~repro.faults.FaultInjector` whose
        executor channels (``worker_kill``/``shard_stall``) are
        re-scoped per dispatch round — a shard killed in round *r*
        draws a fresh verdict in round *r + 1*, so injected storms
        exercise stealing and resharding without livelocking the loop.
    journal: optional :class:`~repro.checkpoint.ShardJournal`; each
        :meth:`map` restores its journaled items before the first
        round, every dispatch round goes through
        :func:`~repro.checkpoint.checkpointed_map`, so a completed
        shard's items are journaled the moment it finishes (an
        interrupted run resumes from its finished items), and every
        assignment/steal/reshard is write-ahead logged.
    report: :class:`~repro.parallel.ExecutionReport` accounting the
        run (``steals``/``reshards`` on top of the supervisor's own
        counters).
    deadline: base straggler deadline in wall seconds (jittered per
        round from the seeded stream), a positive finite number.
        ``None`` disables stealing.
    seed: seeds the deadline-jitter stream only — scheduling decisions
        never touch the work items' own streams.
    """

    def __init__(self, workers=1, faults=None, journal=None, report=None,
                 deadline=None, seed=0):
        if deadline is not None and not (
                math.isfinite(deadline) and deadline > 0.0):
            raise ValueError(
                f"deadline must be a positive finite number of seconds "
                f"or None, got {deadline!r}"
            )
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
        ``scheduler.report``.  Arguments are checked before the
        journal opens, so a rejected call leaves it untouched.
        """
        if resume and checkpoint is None:
            raise ValueError("resume requires a checkpoint directory")
        scheduler = cls(workers=workers, faults=faults, report=report,
                        deadline=deadline, seed=seed)
        if checkpoint is not None:
            scheduler.journal = ShardJournal(
                checkpoint, run_key(*run_parts), faults=faults,
                report=scheduler.report,
            ).open(resume=resume)
        return scheduler

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
        journal entries and the reassignment log).  Journaled items
        restore once, before the first round packs, so every round
        runs only pending items.  Without *weights* each item is its
        own shard.  With *weights* (one per item), each dispatch round
        packs the pending items by weight into at most ``workers``
        shards, and a shard runs its items in order.  Steal and
        reshard counts are item counts.  Item exceptions propagate
        exactly as :func:`parallel_map`'s do.
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
        if weights is not None and len(weights) != len(items):
            raise ValueError(
                f"need one weight per item, got {len(weights)} weights "
                f"for {len(items)} items"
            )
        done = {}
        if self.journal is not None:
            for index, key in enumerate(keys):
                hit, value = self.journal.load(key)
                if hit:
                    # Restored carriers are absorbed before any item
                    # runs, as a fresh run records them.
                    _telemetry_current().advisory_event(
                        "checkpoint.restore", shard=key)
                    done[index] = absorb_value(value, key)
        if done:
            self.report.checkpoint_hits += len(done)
            self.report.record(
                "checkpoint",
                f"restored {len(done)}/{len(items)} shard(s) from "
                f"{self.journal.directory}",
            )
        pending = [i for i in range(len(items)) if i not in done]
        idle_rounds = 0
        while pending:
            round_number = self.dispatch_rounds
            self.dispatch_rounds += 1
            round_items = [items[i] for i in pending]
            round_keys = [keys[i] for i in pending]
            if weights is None:
                shards = [(position,) for position in range(len(pending))]
            else:
                shards = pack_by_weight([weights[i] for i in pending],
                                        self.workers)
            # Escape hatch: when the storm keeps eating every dispatch,
            # run the remainder in-process (no pool, no injection) — it
            # always terminates.
            if idle_rounds >= MAX_IDLE_ROUNDS:
                self.report.record(
                    "sched-fallback",
                    f"{len(pending)} item(s) after {idle_rounds} idle "
                    f"round(s); forcing completion",
                )
                self._log("fallback", items=round_keys)
                partial = checkpointed_map(
                    fn, round_items, round_keys, self.journal,
                    shards=shards, workers=1, report=self.report,
                )
                self.report.in_process_shards += len(round_items)
            else:
                # Write-ahead the assignment before acting on it.
                self._log("assign", round=round_number,
                          shards=[[round_keys[p] for p in shard]
                                  for shard in shards])
                partial = checkpointed_map(
                    fn, round_items, round_keys, self.journal,
                    shards=shards, workers=self.workers,
                    report=self.report,
                    deadline=self._round_deadline(round_number),
                    faults=self._round_faults(round_number),
                )
            for position, value in partial.values.items():
                done[pending[position]] = value
            # Steals and reshards: journal the decision, then dispatch
            # the item again next round.
            for position in partial.stalled:
                self.report.steals += 1
                self.report.record(
                    "steal",
                    f"round {round_number}: stole item "
                    f"{round_keys[position]} from a straggler",
                )
                self._log("steal", round=round_number,
                          items=[round_keys[position]])
            for position in partial.crashed:
                self.report.reshards += 1
                self.report.record(
                    "reshard",
                    f"round {round_number}: resharding item "
                    f"{round_keys[position]} after worker loss",
                )
                self._log("reshard", round=round_number,
                          items=[round_keys[position]])
            before = len(pending)
            pending = [i for i in pending if i not in done]
            idle_rounds = idle_rounds + 1 if len(pending) == before else 0
        return [done[index] for index in range(len(items))]
