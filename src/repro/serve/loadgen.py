"""Load generator + stress harness for the ingestion service.

``repro serve-bench`` drives a simulated device fleet against an
:class:`~repro.serve.service.IngestService` — spawned in-process, or a
``--connect`` address for an externally managed server (the CI smoke
job uses that to SIGKILL and restart the server mid-run) — and reports
throughput, latency percentiles, shed rate, and retry counts.

Two fleet modes share one contract — the batch set is a pure function
of the fleet parameters, never of timing:

* **synthetic** (default): thousands of devices' batches drawn from
  keyed streams, cheap enough to stress the admission and WAL path at
  fleet scale;
* **real**: every device round runs the full Hang Doctor session
  pipeline through
  :func:`repro.harness.exp_stream.isolated_device_rounds` — exactly
  the isolated-device rounds the batch ``crowd_sweep`` runs,
  preserving the deterministic per-device telemetry tracks.

:func:`baseline_snapshot_json` is the referee: the same batch set
folded through the synchronous batch path (a serial
:class:`~repro.crowd.aggregator.CrowdAggregator`), serialized
canonically.  At network fault rate 0 the service's final published
snapshot must equal it byte for byte — for any client concurrency,
any shedding, and across a mid-run server kill + restart.
"""

import asyncio
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.base.rng import stream, substream_seed
from repro.crowd.aggregator import BugObservation, CrowdAggregator, ReportBatch
from repro.crowd.store import aggregator_to_json
from repro.faults import FaultPlan
from repro.serve.client import ClientStats, DeliveryError, ServeClient
from repro.serve.service import IngestService

#: Operation pool the synthetic fleet draws bug signatures from.
_SYNTH_OPERATIONS = (
    "android.database.sqlite.SQLiteDatabase.query",
    "java.io.File.exists",
    "android.content.SharedPreferences$Editor.commit",
    "java.net.URL.openConnection",
    "android.graphics.BitmapFactory.decodeFile",
    "org.json.JSONObject.getJSONArray",
)

_SYNTH_APPS = ("K9-mail", "AndStatus", "APV-pdf", "BarcodeScanner")


def synthetic_fleet_batches(seed, devices, rounds, apps=_SYNTH_APPS):
    """The synthetic fleet's upload set: one batch per (device, round,
    observed app), drawn from keyed streams.

    Pure function of its arguments — device d's batches are identical
    whatever the fleet size around it, mirroring the keyed-substream
    discipline of :func:`repro.harness.exp_stream.crowd_device_seed`.
    Returns ``[(device_index, [batches...]), ...]``.
    """
    fleet = []
    for device_index in range(devices):
        batches = []
        for round_index in range(rounds):
            rng = stream(seed, "serve-loadgen", device_index, round_index)
            for app_name in apps:
                if float(rng.random()) > 0.6:
                    continue
                observations = []
                for op_index in range(1 + int(rng.integers(0, 3))):
                    operation = _SYNTH_OPERATIONS[
                        int(rng.integers(0, len(_SYNTH_OPERATIONS)))
                    ]
                    action = f"action{int(rng.integers(0, 6))}"
                    occurrence = round(
                        0.3 + 0.7 * float(rng.random()), 3
                    )
                    bucket = int(occurrence * 10.0)
                    observations.append(BugObservation(
                        signature=(
                            f"{app_name}|{action}|{operation}|b{bucket}"
                        ),
                        action=action,
                        operation=operation,
                        file=f"{app_name}/src/Main{op_index}.java",
                        line=100 + int(rng.integers(0, 400)),
                        is_self_developed=bool(rng.random() < 0.2),
                        occurrences=1 + int(rng.integers(0, 9)),
                        total_hang_ms=round(
                            120.0 + 900.0 * float(rng.random()), 1
                        ),
                        max_occurrence_factor=occurrence,
                    ))
                if not observations:
                    continue
                observations = sorted(
                    observations,
                    key=lambda o: (o.signature, o.file, o.line),
                )
                batches.append(ReportBatch(
                    batch_id=(
                        f"{app_name}/dev{device_index}/round{round_index}"
                    ),
                    app_name=app_name,
                    device_id=device_index,
                    time_ms=float(round_index),
                    observations=tuple(observations),
                ))
        fleet.append((device_index, batches))
    return fleet


def real_fleet_batches(device_profile, seed, devices, rounds, apps,
                       actions, workers=1):
    """The real fleet's upload set: full Hang Doctor device rounds.

    Runs :func:`repro.harness.exp_stream.isolated_device_rounds` — the
    function ``crowd_sweep``'s isolated-device baseline runs — so
    the live service's ingest of these batches is directly comparable
    to the batch sweep's aggregator over the same fleet.
    """
    from repro.harness.exp_stream import isolated_device_rounds
    from repro.sched import ElasticScheduler

    fleet = {device_index: [] for device_index in range(devices)}
    for result in isolated_device_rounds(
        ElasticScheduler.for_sweep(workers=workers), device_profile, seed,
        apps, devices, rounds, actions,
    ):
        fleet[result.device_index].extend(result.batches)
    return sorted(fleet.items())


def baseline_snapshot_json(fleet):
    """The synchronous batch path over the same fleet: every batch
    folded into one serial aggregator, serialized canonically.

    This is the referee for the service's byte-identity contract; the
    canonical sorted-batch serialization makes delivery order — live
    or batch, any concurrency — irrelevant.
    """
    aggregator = CrowdAggregator()
    for _, batches in fleet:
        for batch in batches:
            aggregator.ingest(batch)
    return aggregator_to_json(aggregator)


def percentile(values, q):
    """The *q*-quantile (0..1) of *values* by nearest-rank."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(round(q * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class LoadgenReport:
    """The stress harness's scorecard.

    Delivery counts are deterministic at fault rate 0; timing fields
    (throughput, latencies) are wall-clock and advisory.
    """

    devices: int
    batches_total: int
    stats: ClientStats
    elapsed_s: float
    undelivered: List[str] = field(default_factory=list)
    #: Set when the run compared the published snapshot against the
    #: batch baseline: True/False; None when no comparison ran.
    snapshot_matches: Optional[bool] = None

    @property
    def throughput(self):
        """Acked uploads per wall-clock second."""
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.stats.delivered / self.elapsed_s

    @property
    def shed_rate(self):
        """Fraction of attempts answered 429."""
        if not self.stats.attempts:
            return 0.0
        return self.stats.shed_429 / self.stats.attempts

    def render(self):
        """Human-readable scorecard."""
        stats = self.stats
        lat = stats.latencies_ms
        lines = [
            f"serve-bench - {self.devices} devices, "
            f"{self.batches_total} batches",
            f"  delivered    : {stats.delivered} "
            f"({stats.duplicates} acked as duplicates, "
            f"{stats.failed} undelivered)",
            f"  attempts     : {stats.attempts} "
            f"({stats.retries} retries)",
            f"  shed         : {stats.shed_429} x 429 "
            f"({self.shed_rate:.1%} of attempts), "
            f"{stats.unavailable_503} x 503",
            f"  failures     : {stats.timeouts} timeouts, "
            f"{stats.connection_errors} connection errors, "
            f"{stats.corrupt_responses} corrupt responses, "
            f"{stats.server_errors} 5xx",
            f"  injected     : {stats.injected_drops} drops, "
            f"{stats.injected_delays} delays, "
            f"{stats.injected_resets} resets",
            f"  breaker      : opened {stats.breaker_opens}x",
            f"  throughput   : {self.throughput:.0f} acks/s "
            f"({self.elapsed_s:.2f}s wall)",
            f"  latency ms   : p50 {percentile(lat, 0.50):.1f}  "
            f"p90 {percentile(lat, 0.90):.1f}  "
            f"p99 {percentile(lat, 0.99):.1f}  "
            f"max {(max(lat) if lat else 0.0):.1f}",
        ]
        if self.snapshot_matches is not None:
            verdict = "yes" if self.snapshot_matches else "NO"
            lines.append(f"  snapshot == batch baseline : {verdict}")
        return "\n".join(lines)


async def drive_fleet(host, port, fleet, seed=0, plan=None, concurrency=16,
                      sleep_scale=1.0, timeout_s=5.0, max_attempts=25,
                      breaker_threshold=5, tenant_by_app=True):
    """Upload every fleet batch through per-device clients.

    Returns ``(merged ClientStats, undelivered batch ids)``.  One
    client (own backoff schedule, own breaker, own kept-alive
    connection, closed after its last batch) per device; at most
    *concurrency* devices in flight.  Fault decisions key on
    (batch_id, attempt) so the injected sequence is independent of
    concurrency and scheduling.
    """
    plan = plan if plan is not None else FaultPlan()
    if plan.any_faults:
        # Imported only when faults are injected: the injector draws
        # from numpy.
        from repro.faults import FaultInjector
    semaphore = asyncio.Semaphore(concurrency)
    total = ClientStats()
    undelivered = []

    async def run_device(device_index, batches):
        async with semaphore:
            faults = (
                FaultInjector(plan, seed=seed, scope=("serve-net",))
                if plan.any_faults else None
            )
            client = ServeClient(
                host, port,
                seed=substream_seed(seed, "serve-device", device_index),
                key=f"dev{device_index}", faults=faults,
                timeout_s=timeout_s, max_attempts=max_attempts,
                breaker_threshold=breaker_threshold,
                sleep_scale=sleep_scale,
            )
            try:
                for batch in batches:
                    if tenant_by_app:
                        client.tenant = batch.app_name
                    try:
                        await client.upload(batch)
                    except DeliveryError:
                        undelivered.append(batch.batch_id)
            finally:
                await client.close()
            total.merge(client.stats)

    await asyncio.gather(*(
        run_device(device_index, batches)
        for device_index, batches in fleet
    ))
    return total, sorted(undelivered)


def run_bench(state_dir, *, devices=200, rounds=2, seed=0,
              mode="synthetic", apps=None, actions=12,
              device_profile=None, workers=1, concurrency=32,
              fault_rate=0.0, request_delay_ms=5.0, connect=None,
              max_queue=64, tenant_rate=0.0, tenant_burst=32,
              snapshot_every=512,
              sleep_scale=0.05, timeout_s=5.0, max_attempts=25,
              breaker_threshold=5, baseline_out=None):
    """The ``repro serve-bench`` entry point; returns a
    :class:`LoadgenReport`.

    With *connect* None an :class:`IngestService` is spawned
    in-process, drained at the end (publishing the final snapshot),
    and its snapshot compared byte-for-byte against
    :func:`baseline_snapshot_json` (``snapshot_matches`` on the
    report).  With *connect* ``(host, port)`` the harness only drives
    the fleet — lifecycle (and any mid-run SIGKILL) belongs to the
    caller — and *baseline_out* writes the baseline for external
    comparison.
    """
    if mode == "synthetic":
        fleet = synthetic_fleet_batches(seed, devices, rounds)
    elif mode == "real":
        if device_profile is None:
            raise ValueError("real mode needs a device profile")
        fleet = real_fleet_batches(
            device_profile, seed, devices, rounds,
            apps if apps else ("K9-mail", "AndStatus"), actions,
            workers=workers,
        )
    else:
        raise ValueError(f"unknown fleet mode {mode!r}")
    baseline = baseline_snapshot_json(fleet)
    if baseline_out is not None:
        import pathlib

        pathlib.Path(baseline_out).write_text(baseline)
    plan = FaultPlan(
        request_drop_rate=fault_rate,
        request_delay_rate=fault_rate,
        connection_reset_rate=fault_rate,
        response_corrupt_rate=fault_rate,
        request_delay_ms=request_delay_ms,
    ).validate()
    batches_total = sum(len(batches) for _, batches in fleet)

    async def _run():
        service = None
        if connect is None:
            service = await IngestService(
                state_dir, max_queue=max_queue, tenant_rate=tenant_rate,
                tenant_burst=tenant_burst, snapshot_every=snapshot_every,
            ).start()
            host, port = service.host, service.port
        else:
            host, port = connect
        started = time.monotonic()
        stats, undelivered = await drive_fleet(
            host, port, fleet, seed=seed, plan=plan,
            concurrency=concurrency, sleep_scale=sleep_scale,
            timeout_s=timeout_s, max_attempts=max_attempts,
            breaker_threshold=breaker_threshold,
            tenant_by_app=tenant_rate > 0.0,
        )
        elapsed = time.monotonic() - started
        matches = None
        if service is not None:
            await service.stop()
            matches = service.state.snapshot_bytes() == baseline.encode(
                "utf-8"
            )
        return stats, undelivered, elapsed, matches

    stats, undelivered, elapsed, matches = asyncio.run(_run())
    return LoadgenReport(
        devices=devices, batches_total=batches_total, stats=stats,
        elapsed_s=elapsed, undelivered=undelivered,
        snapshot_matches=matches,
    )
