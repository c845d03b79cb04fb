#!/usr/bin/env python
"""Kill a sweep mid-run, resume it, and get the identical bytes back.

A fleet-scale sweep can die halfway through — the box reboots, the OOM
killer takes a worker, a batch scheduler preempts the job.  This
example runs the chaos sweep three ways and proves the recovery story:

1. an uninterrupted reference run;
2. a checkpointed run whose workers are *killed by an injected fault*
   (`worker_kill_rate`) while torn-write faults chew on the journal —
   the pool runs each shard once, the elastic scheduler reshards only
   the lost ones into its next dispatch round (running them
   in-process if rounds stop making progress), and the
   `ExecutionReport` says exactly what happened;
3. an "interrupted" two-worker run that journals only part of the
   sweep before stopping, then a one-worker resume that restores the
   finished items and computes the rest — the journal keys items, not
   shards, so a resume reuses them at any worker count.

Every variant renders byte-identical output, because each item is a
pure function of its payload and the journal only short-circuits
*which process* computes it.

Run:  python examples/resume_sweep.py
"""

import tempfile

from repro.checkpoint import ShardJournal, run_key
from repro.faults import FaultInjector, FaultPlan
from repro.harness.exp_chaos import chaos_sweep
from repro.parallel import ExecutionReport
from repro.sim.device import LG_V10

SWEEP = dict(seed=0, rates=(0.0, 0.2), apps=("K9-mail", "AndStatus"),
             users=1, actions_per_user=20)


def main():
    print("1. Uninterrupted reference run")
    reference = chaos_sweep(LG_V10, workers=2, **SWEEP)
    print(reference.render())

    with tempfile.TemporaryDirectory() as checkpoint:
        print("\n2. Same sweep with workers killed out from under it")
        hostile = FaultPlan(worker_kill_rate=0.5, torn_write_rate=0.3)
        report = ExecutionReport()
        survived = chaos_sweep(
            LG_V10, workers=2, checkpoint=checkpoint, report=report,
            executor_faults=FaultInjector(hostile, seed=7,
                                          scope=("executor",)),
            **SWEEP,
        )
        assert survived.render() == reference.render()
        print("byte-identical to the reference despite:")
        print(report.describe())

    with tempfile.TemporaryDirectory() as checkpoint:
        print("\n3. Interrupt at two workers, resume at one")
        # Journal the first two cells by hand, as one entry — the state
        # a two-worker run leaves behind when it dies after one shard
        # (kill -9 safe: a shard's items land in one atomic write the
        # moment the shard completes).
        first_rate_only = dict(SWEEP, rates=(SWEEP["rates"][0],))
        partial = chaos_sweep(LG_V10, workers=2, **first_rate_only)
        journal = ShardJournal(
            checkpoint,
            run_key("chaos", LG_V10.name, SWEEP["seed"], SWEEP["rates"],
                    SWEEP["apps"], SWEEP["users"],
                    SWEEP["actions_per_user"]),
        ).open()
        journal.record({
            f"{cell.rate!r}|{cell.app_name}": cell for cell in partial.cells
        })
        resumed = chaos_sweep(LG_V10, workers=1, checkpoint=checkpoint,
                              resume=True, **SWEEP)
        assert resumed.render() == reference.render()
        print("resumed run byte-identical to the reference; "
              + resumed.execution.describe().splitlines()[1].strip())


if __name__ == "__main__":
    main()
