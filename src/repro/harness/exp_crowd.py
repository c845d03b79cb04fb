"""Crowd experiment: fleet-size sweep of the shared-diagnosis payoff.

The paper's feedback loop is per-device: every Hang Doctor instance
pays the full two-phase cost for every bug, even when another device
already diagnosed it.  The crowd backend (:mod:`repro.crowd`) shares
diagnoses fleet-wide, and this experiment measures what that buys: for
each fleet size, devices run in *sync rounds* — run sessions, upload
their Hang Bug Reports as batches, pull the freshly published
known-bug table and merged blocking-API database before the next
round — and the sweep reports the **diagnosis-cost reduction curve**:
phase-2 trace collections per device-round versus the isolated-device
baseline (the same devices and sessions with no crowd sync, i.e. the
paper's deployment model).

Decomposition and determinism: a device's round is a pure function of
(device profile, root seed, device index, round index, published
knowledge), seeded through keyed substreams so it is independent of
fleet size and shard assignment.  Each fleet size runs the stream's
sync-round loop (:func:`~repro.harness.exp_stream.run_rounds`) with
churn off and a publish every round: rounds are sequential (the
feedback loop), devices within a round dispatch through the elastic
scheduler (:mod:`repro.sched`), and ingestion folds through the
order-independent :meth:`~repro.crowd.CrowdAggregator.merge`, so any
``--workers`` count renders byte-identically.  The upload path runs
through the fault seams of :mod:`repro.faults` — batches may be
dropped, duplicated, or delivered a round late — and ingestion
idempotency keeps duplicated deliveries from double-counting; at fault
rate 0 no fault stream is ever drawn and repeat runs are bit-equal.

Because a larger fleet's device set is a superset of a smaller one's
and every upload only *adds* knowledge, the published table at each
round grows with fleet size, so the per-device-round collection count
is monotone nonincreasing in fleet size: one device's diagnosis
spares every other device the collection.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.harness.exp_stream import (
    CROWD_APPS,
    isolated_device_rounds,
    run_rounds,
)
from repro.harness.tables import render_table
from repro.parallel import ExecutionReport
from repro.sched import ElasticScheduler

#: Default fleet sizes of the sweep (devices per fleet).
DEFAULT_FLEET_SIZES = (1, 2, 4, 8)


@dataclass(frozen=True)
class CrowdCell:
    """One fleet size's full deployment."""

    fleet_size: int
    rounds: int
    #: Phase-2 collections the crowd-synced fleet paid for.
    phase2_collections: int
    #: Same devices and sessions, isolated (no crowd sync).
    baseline_collections: int
    kb_short_circuits: int
    #: Distinct ground-truth bug sites the fleet detected.
    bugs_detected: int
    baseline_bugs_detected: int
    #: Known bugs in the final published table.
    known_bugs: int
    #: Blocking APIs the published database added over the shipped one.
    new_blocking_apis: int
    batches_ingested: int
    batches_dropped: int
    batches_duplicated: int
    batches_late: int
    #: Re-deliveries the aggregator recognized and ignored.
    duplicates_ignored: int

    @property
    def collections_per_device_round(self):
        """Phase-2 collections per device per round (the cost curve)."""
        return self.phase2_collections / (self.fleet_size * self.rounds)

    @property
    def baseline_per_device_round(self):
        """Isolated-device collections per device per round."""
        return self.baseline_collections / (self.fleet_size * self.rounds)

    @property
    def avoided_fraction(self):
        """Fraction of the baseline's collections the crowd avoided."""
        if not self.baseline_collections:
            return 0.0
        return 1.0 - self.phase2_collections / self.baseline_collections


@dataclass
class CrowdSweepResult:
    """The full fleet-size sweep."""

    cells: List[CrowdCell]
    fleet_sizes: Tuple[int, ...]
    apps: Tuple[str, ...]
    rounds: int
    fault_rate: float
    #: How the sweep actually executed (supervision events, checkpoint
    #: hits); advisory — never part of the rendered output.
    execution: Optional[ExecutionReport] = field(
        default=None, compare=False, repr=False
    )

    def cell(self, fleet_size):
        """The cell for one fleet size."""
        for cell in self.cells:
            if cell.fleet_size == fleet_size:
                return cell
        raise KeyError(f"no cell for fleet size {fleet_size}")

    def render(self):
        """ASCII rendering: the diagnosis-cost reduction curve."""
        headers = ("fleet", "phase2", "base", "p2/dev-rd", "base/dev-rd",
                   "avoided", "shortcut", "bugs", "known", "new-APIs",
                   "batches", "drop/dup/late")
        rows = []
        for cell in self.cells:
            rows.append((
                cell.fleet_size,
                cell.phase2_collections,
                cell.baseline_collections,
                f"{cell.collections_per_device_round:.2f}",
                f"{cell.baseline_per_device_round:.2f}",
                f"{cell.avoided_fraction:.0%}",
                cell.kb_short_circuits,
                f"{cell.bugs_detected}/{cell.baseline_bugs_detected}",
                cell.known_bugs,
                cell.new_blocking_apis,
                cell.batches_ingested,
                f"{cell.batches_dropped}/{cell.batches_duplicated}"
                f"/{cell.batches_late}",
            ))
        table = render_table(
            headers, rows,
            title=(
                f"Crowd sweep - {len(self.apps)} apps, {self.rounds} sync "
                f"rounds, fault rate {self.fault_rate:g}"
            ),
        )
        largest = self.cell(max(self.fleet_sizes))
        return (
            f"{table}\n"
            f"at fleet size {largest.fleet_size}: "
            f"{largest.avoided_fraction:.0%} of the isolated-device "
            f"baseline's phase-2 collections avoided "
            f"({largest.baseline_collections} -> "
            f"{largest.phase2_collections}); one device's diagnosis "
            f"spares the rest of the fleet the trace collection"
        )


def crowd_sweep(device, seed=0, fleet_sizes=DEFAULT_FLEET_SIZES, rounds=3,
                apps=None, actions_per_round=40, fault_rate=0.0, workers=1,
                checkpoint=None, resume=False, report=None):
    """Sweep fleet sizes; returns a :class:`CrowdSweepResult`.

    ``workers`` shards the per-round device runs through the
    supervised pool; every device round is a pure function of its
    payload and ingestion is order-independent, so any worker count
    yields byte-identical output.  ``fault_rate`` drives the
    upload-path fault seams (drop / duplicate / delay); rate 0 never
    draws from the fault streams.  ``checkpoint``/``resume`` journal
    every finished device round, baseline and sync round alike, so a
    killed sweep restarts where it left off, byte-identically, at any
    ``workers``.  ``report`` collects supervision events (also
    attached to the result as ``execution``).
    """
    apps = tuple(apps) if apps else CROWD_APPS
    fleet_sizes = tuple(fleet_sizes)
    if not fleet_sizes or min(fleet_sizes) < 1:
        raise ValueError(f"fleet sizes must be >= 1, got {fleet_sizes}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if not 0.0 <= fault_rate <= 1.0:
        raise ValueError(f"fault_rate must be in [0, 1], got {fault_rate}")
    scheduler = ElasticScheduler.for_sweep(
        "crowd", device.name, seed, fleet_sizes, rounds, apps,
        actions_per_round, fault_rate, workers=workers,
        checkpoint=checkpoint, resume=resume, report=report,
    )
    # Isolated-device baseline: the same (device, round) runs with no
    # crowd sync.  Pure per payload, so it shards freely.
    baseline = {
        (result.device_index, result.round_index): result
        for result in isolated_device_rounds(
            scheduler, device, seed, apps, max(fleet_sizes), rounds,
            actions_per_round,
        )
    }
    cells = []
    for fleet_size in fleet_sizes:
        stream = run_rounds(
            scheduler, device, seed, rounds, fleet_size, apps,
            actions_per_round, track=f"crowd/fleet{fleet_size}",
            key_prefix=f"fleet{fleet_size}",
            upload_scope=("crowd-upload", fleet_size),
            fault_rate=fault_rate,
        )
        isolated = [
            baseline[(device_index, round_index)]
            for device_index in range(fleet_size)
            for round_index in range(rounds)
        ]
        cells.append(CrowdCell(
            fleet_size=fleet_size,
            rounds=rounds,
            baseline_collections=sum(
                result.phase2_collections for result in isolated
            ),
            baseline_bugs_detected=len({
                site for result in isolated
                for site in result.detected_sites
            }),
            **stream.final_summary(),
        ))
    return CrowdSweepResult(
        cells=cells, fleet_sizes=fleet_sizes, apps=apps, rounds=rounds,
        fault_rate=fault_rate, execution=scheduler.report,
    )
