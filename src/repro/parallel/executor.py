"""The supervised worker-pool primitive under the elastic scheduler.

Experiments submit *shards* — small picklable descriptions of a slice
of work — to :func:`parallel_map` together with a module-level shard
function.  Results come back indexed by submission position, so
callers build their results deterministically regardless of which
worker finished first.

Supervision policy: the pool runs each shard once, and no pool
failure is silent.  The supervisor runs each shard as its own future
and watches three failure classes:

* **Worker crashes** (a dead process breaks the whole
  :class:`~concurrent.futures.process.BrokenProcessPool`): finished
  results are kept, and the shards that died with the pool come back
  *crashed*.
* **Deadlines** (*deadline* seconds since a shard's submission): a
  shard that stalls past its deadline is abandoned to the pool and
  comes back *stalled*, so one livelocked worker cannot wedge the
  sweep.
* **Pool unavailability** (subprocess limits, sandboxes): the whole
  call degrades to the in-process loop, which completes every shard.
  A shard the pool cannot pickle runs in-process after the pool.

No worker outlives its use: a stalled shard's worker is killed once
the rest are collected, and workers exit when their parent dies.

What happens to crashed and stalled shards is not decided here: the
:class:`PartialResult` hands them to the elastic scheduler
(:mod:`repro.sched`), which dispatches them again in its next round
and, when rounds stop making progress, runs the rest in-process.
Every supervision event is recorded in an :class:`ExecutionReport`,
which experiments surface through their results (``--verbose`` on the
CLI).  Because shard functions are pure, a shard re-run on a fresh
pool or in-process returns the byte-identical result, so supervision
never changes experiment output.

Exceptions raised *by the shard function itself* are real errors and
always propagate: workers catch them and ship them back tagged in a
:class:`_ShardFailure` sentinel, so the parent re-raises the original
exception of the earliest failing shard (in submission order, for any
completion order) and never mistakes it for pool infrastructure
failing — nor vice versa: anything the pool machinery itself raises
is, by construction, infrastructure.

A :class:`~repro.faults.FaultInjector` whose plan enables the
``worker_kill`` / ``shard_stall`` channels exercises the supervisor
deterministically: kill and stall verdicts are keyed by shard, so
they reproduce for any worker count, and they only fire inside a real
worker process.  The scheduler re-scopes the injector per dispatch
round, so a re-dispatched shard draws a fresh verdict.

``multiprocessing`` and the process pool are imported where a pool
starts, so a ``--workers 1`` run never loads them.
"""

import os
import threading
import time
from dataclasses import dataclass, field
from typing import List

from repro.telemetry import current as _telemetry_current

#: Exit status an injected worker kill dies with (visible in the
#: pool's stderr noise; any nonzero status breaks the pool the same).
KILLED_EXIT_CODE = 87


@dataclass
class ExecutionReport:
    """Structured account of how a supervised run actually executed.

    All counters stay zero on a clean run; nothing here ever feeds
    back into shard results, so two runs with different reports still
    produce byte-identical experiment output.
    """

    #: Shards submitted across all :func:`parallel_map` calls sharing
    #: this report.
    shards: int = 0
    #: Process pools created (1 on a clean parallel run).
    pool_attempts: int = 0
    #: Pool breakages observed (each one means >= 1 worker died).
    worker_crashes: int = 0
    #: Shards whose result wait exceeded the deadline.
    deadline_hits: int = 0
    #: Items the scheduler ran in-process as its last resort.
    in_process_shards: int = 0
    #: Whole calls that wanted a pool but had to run serially.
    serial_fallbacks: int = 0
    #: Items restored from a checkpoint journal instead of re-run.
    checkpoint_hits: int = 0
    #: Checkpoint writes that died mid-stream (torn; journal entry
    #: discarded, the shard's items re-run on resume).
    torn_writes: int = 0
    #: Items stolen from stragglers by the elastic scheduler (their
    #: shard ran past a seeded deadline; they are dispatched again —
    #: see :mod:`repro.sched`).
    steals: int = 0
    #: Items dynamically resharded after a worker death (their shard
    #: died with the pool and the scheduler dispatched them again).
    reshards: int = 0
    #: Fleet-membership changes (devices joining or leaving a
    #: streaming deployment — see :mod:`repro.harness.exp_stream`).
    churn_events: int = 0
    #: Human-readable event log, in occurrence order.
    events: List[str] = field(default_factory=list)

    def record(self, kind, detail=""):
        """Append one event to the log.

        Mirrored onto the telemetry advisory channel (as
        ``executor.<kind>``) when a session is active, so supervision
        shows up in the trace exports without ever entering the
        deterministic channel.
        """
        self.events.append(f"{kind}: {detail}" if detail else kind)
        _telemetry_current().advisory_event(f"executor.{kind}",
                                            detail=detail)

    def to_dict(self):
        """Machine-readable snapshot: counters, events, degraded flag.

        The payload behind ``--report-json`` and the telemetry
        ``execution.json`` export; all values are JSON builtins.
        """
        return {
            "shards": self.shards,
            "pool_attempts": self.pool_attempts,
            "worker_crashes": self.worker_crashes,
            "deadline_hits": self.deadline_hits,
            "in_process_shards": self.in_process_shards,
            "serial_fallbacks": self.serial_fallbacks,
            "checkpoint_hits": self.checkpoint_hits,
            "torn_writes": self.torn_writes,
            "steals": self.steals,
            "reshards": self.reshards,
            "churn_events": self.churn_events,
            "degraded": self.degraded,
            "events": list(self.events),
        }

    @property
    def degraded(self):
        """True when anything other than clean pool execution happened."""
        return bool(
            self.worker_crashes or self.deadline_hits
            or self.in_process_shards or self.serial_fallbacks
            or self.torn_writes
        )

    def describe(self):
        """Multi-line summary (the ``--verbose`` CLI output)."""
        lines = [
            f"execution: {self.shards} shard(s), "
            f"{self.pool_attempts} pool attempt(s)"
            + (", clean" if not self.degraded else ""),
        ]
        counters = (
            ("worker crashes", self.worker_crashes),
            ("deadline hits", self.deadline_hits),
            ("in-process re-runs", self.in_process_shards),
            ("serial fallbacks", self.serial_fallbacks),
            ("checkpoint hits", self.checkpoint_hits),
            ("torn checkpoint writes", self.torn_writes),
            ("items stolen from stragglers", self.steals),
            ("items resharded after worker loss", self.reshards),
            ("fleet churn events", self.churn_events),
        )
        for name, value in counters:
            if value:
                lines.append(f"  {name}: {value}")
        for event in self.events:
            lines.append(f"  - {event}")
        return "\n".join(lines)


@dataclass(frozen=True)
class PartialResult:
    """Outcome of a :func:`parallel_map` call.

    The supervisor runs one pool attempt and *returns* whatever
    finished, plus the indices it could not finish — so the elastic
    scheduler (:mod:`repro.sched`) can dispatch the unfinished work
    again instead of serializing it.
    """

    #: Completed shard results, by submission index.
    values: dict
    #: Indices whose result wait exceeded the deadline (stragglers —
    #: candidates for work stealing).
    stalled: tuple
    #: Indices whose shard died with the pool or never got submitted
    #: (candidates for dynamic resharding).
    crashed: tuple

    @property
    def unfinished(self):
        """All indices not completed, ascending."""
        return tuple(sorted(set(self.stalled) | set(self.crashed)))


def resolve_workers(workers):
    """Normalize a ``--workers`` value to a positive worker count.

    ``None`` and ``0`` both mean "one worker per CPU"; any positive
    int (or int-convertible string) is used as-is; negative and
    non-integer counts are rejected.
    """
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    try:
        count = int(workers)
    except (TypeError, ValueError):
        raise ValueError(f"workers must be an integer, got {workers!r}")
    if count != float(workers):
        raise ValueError(f"workers must be an integer, got {workers!r}")
    if count < 0:
        raise ValueError(
            f"workers must be >= 0 (0 or None = one worker per CPU), "
            f"got {count}"
        )
    return count


class _ShardFailure:
    """Sentinel carrying an exception the shard function raised.

    Workers return this instead of raising, which keeps the two error
    classes apart by *type*: a shard-function exception crosses the
    process boundary inside a sentinel, while anything raised by the
    pool machinery itself is infrastructure.  (The old scheme
    string-matched RuntimeError messages for "process"/"fork"/... and
    swallowed shard RuntimeErrors that happened to mention those
    words.)
    """

    __slots__ = ("error",)

    def __init__(self, error):
        self.error = error


def _guarded(fn, item):
    """Run one shard, returning exceptions as tagged sentinels."""
    try:
        return fn(item)
    except Exception as error:  # noqa: BLE001 - re-raised by the parent
        return _ShardFailure(error)


def _exit_with_parent():
    """Pool-worker initializer: exit once the parent process is gone.

    A parent killed without cleanup (``kill -9``, the OOM killer)
    never shuts its pool down, so a daemon thread polls the parent pid
    the worker started with (the pool's owner, or the fork server that
    exits with it) and exits when it changes.  The parent sentinel
    cannot tell: under ``fork`` each later worker inherits the earlier
    ones' pipe ends, so it never reads EOF.
    """
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent",
                     daemon=True).start()


def _supervised(fn, item, shard, faults):
    """Worker-side shard entry: inject executor faults, then run.

    Kill/stall verdicts are keyed by shard so they are identical for
    any worker count and completion order; the kill only fires inside
    a real worker process, never in the parent.
    """
    import multiprocessing

    if faults is not None and multiprocessing.parent_process() is not None:
        if faults.worker_kill_fault(shard):
            os._exit(KILLED_EXIT_CODE)
        if faults.shard_stall_fault(shard):
            time.sleep(faults.plan.shard_stall_seconds)
    return _guarded(fn, item)


def _collect(results, index, value, on_result):
    """Store one shard result, notifying *on_result* the first time."""
    results[index] = value
    if on_result is not None and not isinstance(value, _ShardFailure):
        on_result(index, value)


def _serial(fn, items, results, on_result=None):
    """The in-process loop: completes every shard, in order."""
    for index, item in enumerate(items):
        _collect(results, index, _guarded(fn, item), on_result)


def _drain(futures, results, deadline, report, on_result,
           submitted=None):
    """Collect finished futures; classify timeouts and pool breakage.

    Returns ``(stalled, crashed, unshipped)`` index lists: *stalled*
    shards blew their deadline, *crashed* shards died with the pool,
    and the pool could not ship *unshipped* shards (their payload or
    result does not pickle).  Shard errors come back as
    :class:`_ShardFailure` values, so any other exception a future
    raises is the pool failing to ship it.

    *submitted* maps each index to its ``time.monotonic()`` submission
    timestamp.  Each shard's deadline is measured from *that* moment,
    not from when the drain loop finally waits on its future: the
    shards drain in index order, so by the time a stalled shard's turn
    comes it has already been running for as long as every
    earlier-indexed shard's wait took — granting it a fresh full
    deadline on top would let a slow-but-progressing pool extend a
    stalled shard several deadlines' worth of wall time.
    """
    from concurrent.futures import TimeoutError as FutureTimeoutError
    from concurrent.futures.process import BrokenProcessPool

    stalled = []
    crashed = []
    unshipped = []
    broken = False
    for index in sorted(futures):
        future = futures[index]
        try:
            # After a pool break every unfinished future fails fast,
            # so skipping the wait just avoids a pointless deadline.
            if broken:
                timeout = 0
            elif deadline is None:
                timeout = None
            else:
                elapsed = time.monotonic() - submitted[index]
                timeout = max(0.0, deadline - elapsed)
            value = future.result(timeout=timeout)
        except FutureTimeoutError:
            if broken:
                crashed.append(index)
                continue
            report.deadline_hits += 1
            report.record("deadline", f"shard {index} exceeded "
                          f"{deadline:g}s since submission")
            stalled.append(index)
        except BrokenProcessPool:
            if not broken:
                broken = True
                report.worker_crashes += 1
                report.record("worker-crash",
                              f"pool broke waiting on shard {index}")
            crashed.append(index)
        except Exception:  # noqa: BLE001 - the pool could not ship it
            unshipped.append(index)
        else:
            _collect(results, index, value, on_result)
    return stalled, crashed, unshipped


def parallel_map(fn, items, workers=1, deadline=None, faults=None,
                 report=None, on_result=None):
    """Run ``fn(item)`` once per item over a supervised pool.

    Returns a :class:`PartialResult` indexed like *items*: the values
    of the shards that finished, plus the indices that stalled past
    their deadline or died with the pool.  The pool runs one attempt;
    unfinished shards go back to the caller — the elastic scheduler —
    to re-dispatch.  The serial paths (one worker, one item, no pool)
    complete every shard, and a shard the pool cannot ship runs
    in-process.

    *fn* must be a module-level callable for process execution; the
    in-process paths have no such restriction.  Shard-function
    exceptions propagate to the caller (earliest failing shard first);
    infrastructure failures are supervised per the module docstring
    and accounted in *report* (an :class:`ExecutionReport`).
    *deadline* is the per-shard result wait in seconds, measured from
    submission (``None`` = wait forever); *faults* is a
    :class:`~repro.faults.FaultInjector` whose
    ``worker_kill``/``shard_stall`` channels exercise the supervisor.

    *on_result(index, value)* fires the first time each shard's result
    is collected, in whatever order shards actually complete — the
    hook checkpoint journals use to persist progress incrementally, so
    a kill mid-run only loses in-flight shards.
    """
    items = list(items)
    workers = resolve_workers(workers)
    if report is None:
        report = ExecutionReport()
    report.shards += len(items)
    results = {}
    stalled, crashed = [], []
    if workers <= 1 or len(items) <= 1:
        _serial(fn, items, results, on_result)
    else:
        stalled, crashed = _pooled(fn, items, workers, deadline, faults,
                                   report, results, on_result)
    values = dict(sorted(results.items()))
    for value in values.values():
        if isinstance(value, _ShardFailure):
            raise value.error
    return PartialResult(values=values, stalled=tuple(sorted(stalled)),
                         crashed=tuple(sorted(crashed)))


def _pooled(fn, items, workers, deadline, faults, report, results,
            on_result):
    """One pool attempt over every item; returns ``(stalled, crashed)``.

    Falls back to the in-process loop (completing everything) when the
    pool cannot start, and runs the shards it could not ship
    in-process after it shuts down.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    report.pool_attempts += 1
    try:
        pool = ProcessPoolExecutor(max_workers=min(workers, len(items)),
                                   initializer=_exit_with_parent)
    except (OSError, PermissionError, RuntimeError) as error:
        # The pool never came up (no fork support, subprocess limits,
        # sandboxing) — nothing was partially executed, so the serial
        # loop is the clean degradation.
        report.serial_fallbacks += 1
        report.record(
            "serial-fallback",
            f"pool unavailable ({type(error).__name__}: {error})",
        )
        _serial(fn, items, results, on_result)
        return [], []
    futures = {}
    submitted = {}
    unsubmitted = []
    for index, item in enumerate(items):
        try:
            futures[index] = pool.submit(_supervised, fn, item, index,
                                         faults)
            submitted[index] = time.monotonic()
        except BrokenProcessPool:
            # A worker died while we were still submitting; the rest
            # of the batch goes back to the caller with the crashed.
            unsubmitted = list(range(index, len(items)))
            report.worker_crashes += 1
            report.record("worker-crash", "pool broke during submission")
            break
    stalled, crashed, unshipped = _drain(futures, results, deadline,
                                         report, on_result, submitted)
    # Every shard but the stalled ones is collected or lost by now;
    # their workers are killed, or the interpreter's exit would wait.
    abandoned = list(pool._processes.values()) if stalled else []
    pool.shutdown(wait=not stalled, cancel_futures=True)
    for process in abandoned:
        process.kill()
    if unshipped:
        report.serial_fallbacks += 1
        report.record("serial-fallback",
                      f"{len(unshipped)} shard(s) not picklable")
        for index in unshipped:
            _collect(results, index, _guarded(fn, items[index]), on_result)
    return stalled, crashed + unsubmitted
