#!/usr/bin/env python
"""The live ingestion service surviving a hostile fleet and a kill.

The crowd backend's batch path (`crowd_sweep`) folds every upload into
one serial aggregator.  This example runs the *service* path instead —
`repro.serve`: an asyncio HTTP server acking uploads only after a
write-ahead-journal fsync, concurrent devices retrying through seeded
network faults, a SIGKILL-style crash mid-run, a restart that replays
the journal — and proves the two paths publish byte-identical
snapshots, because the aggregator's merge is a CRDT and its
serialization is canonical.

Run:  python examples/serve_fleet.py
"""

import asyncio
import tempfile

from repro.faults import FaultInjector, FaultPlan
from repro.serve import IngestService, ServeClient
from repro.serve.loadgen import (
    baseline_snapshot_json,
    synthetic_fleet_batches,
)

FLEET = synthetic_fleet_batches(seed=42, devices=12, rounds=2)
FAULTS = FaultPlan(request_drop_rate=0.2, connection_reset_rate=0.15,
                   response_corrupt_rate=0.1, request_delay_rate=0.2,
                   request_delay_ms=2.0)


async def upload_fleet(port, fleet_slice, seed_base=0):
    """Concurrent devices, each with its own seeded-retry client and
    its own kept-alive connection."""
    async def device(index, batches):
        client = ServeClient(
            "127.0.0.1", port, seed=seed_base + index,
            key=f"dev{index}",
            faults=FaultInjector(FAULTS, seed=7, scope=("serve-net",)),
            max_attempts=40, sleep_scale=0.01,
        )
        try:
            for batch in batches:
                await client.upload(batch)
        finally:
            await client.close()
        return client.stats

    stats = await asyncio.gather(*(
        device(index, batches) for index, batches in fleet_slice
    ))
    return stats


async def main_async(state_dir):
    half = len(FLEET) // 2

    print("1. Boot the service; first half of the fleet uploads "
          "through injected drops/resets/corruption")
    service = await IngestService(state_dir,
                                  snapshot_every=10_000).start()
    port = service.port
    stats = await upload_fleet(port, FLEET[:half])
    retries = sum(s.retries for s in stats)
    print(f"   {sum(s.delivered for s in stats)} batches acked "
          f"({retries} retries forced by the fault storm)")

    print("2. SIGKILL stand-in: no drain, no snapshot published")
    await service.abort()
    assert not service.state.snapshot_bytes()

    print("3. Restart on the same state dir: the WAL replays "
          "every acked batch")
    service = await IngestService(state_dir,
                                  snapshot_every=10_000).start()
    print(f"   replayed {service.state.replayed} from the journal")
    assert service.state.replayed > 0

    print("4. The rest of the fleet uploads (plus a few ambiguous "
          "re-sends, acked as duplicates); graceful drain")
    await upload_fleet(service.port, FLEET[:2], seed_base=100)
    await upload_fleet(service.port, FLEET[half:], seed_base=200)
    await service.stop()
    return service.state.snapshot_bytes()


def main():
    with tempfile.TemporaryDirectory() as state_dir:
        served = asyncio.run(main_async(state_dir))
    expected = baseline_snapshot_json(FLEET).encode("utf-8")
    assert served == expected
    print("5. Published snapshot is byte-identical to the batch-path "
          "aggregator over the same fleet")


if __name__ == "__main__":
    main()
