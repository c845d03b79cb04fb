"""Tests for repro.serve — the live crowd ingestion service.

The contract under test, end to end: the service never acknowledges a
batch it can later lose, sheds overload with 429 + Retry-After instead
of degrading, and — at network fault rate 0 or otherwise — publishes a
final snapshot byte-identical to the synchronous batch path over the
same fleet, regardless of upload order, duplication, concurrency, or a
mid-run kill + restart.
"""

import asyncio
import dataclasses
import hashlib
import json
import os
import random
import stat

import pytest

from repro.crowd import CrowdAggregator
from repro.crowd.store import batch_to_dict
from repro.faults import FaultInjector, FaultPlan, TornWriteError
from repro.serve import (
    BatchJournal,
    DeliveryError,
    IngestService,
    ServeClient,
    ServiceState,
)
from repro.serve.loadgen import (
    baseline_snapshot_json,
    percentile,
    run_bench,
    synthetic_fleet_batches,
)
from repro.serve.service import _Request
from tests.helpers import torn_forms


def fleet(devices=6, rounds=2, seed=11):
    return synthetic_fleet_batches(seed, devices, rounds)


def flat(fleet_batches):
    return [b for _, batches in fleet_batches for b in batches]


def serial_json(batches):
    aggregator = CrowdAggregator()
    for batch in batches:
        aggregator.ingest(batch)
    from repro.crowd.store import aggregator_to_json

    return aggregator_to_json(aggregator)


# ------------------------------------------------------------- journal


def test_wal_round_trips_batches(tmp_path):
    batches = flat(fleet(3, 1))
    journal = BatchJournal(tmp_path / "wal.jsonl").open()
    for batch in batches:
        journal.append(batch)
    journal.sync()
    journal.close()
    replayed, torn = BatchJournal(tmp_path / "wal.jsonl").replay()
    assert not torn
    assert [b.batch_id for b in replayed] == [b.batch_id for b in batches]
    assert [batch_to_dict(b) for b in replayed] == \
        [batch_to_dict(b) for b in batches]


def test_wal_replay_cuts_torn_tail(tmp_path):
    batches = flat(fleet(3, 1))
    path = tmp_path / "wal.jsonl"
    journal = BatchJournal(path).open()
    for batch in batches:
        journal.append(batch)
    journal.sync()
    journal.close()
    # A crash mid-append: the last record is half-written.
    whole = path.read_bytes()
    torn_record = whole.rstrip(b"\n").rsplit(b"\n", 1)[-1]
    path.write_bytes(whole + torn_record[: len(torn_record) // 2])
    replayed, torn = BatchJournal(path).replay()
    assert torn
    assert [b.batch_id for b in replayed] == [b.batch_id for b in batches]


def test_wal_torn_append_then_repair_keeps_prefix(tmp_path):
    batches = flat(fleet(2, 1))
    path = tmp_path / "wal.jsonl"
    journal = BatchJournal(path).open()
    journal.append(batches[0])
    journal.sync()
    injector = FaultInjector(FaultPlan(torn_write_rate=1.0), seed=0)
    with pytest.raises(TornWriteError):
        journal.append(batches[1], faults=injector)
    journal.repair()
    journal.close()
    replayed, torn = BatchJournal(path).replay()
    assert not torn  # repair removed the torn half-record
    assert [b.batch_id for b in replayed] == [batches[0].batch_id]


def test_wal_reset_empties_after_snapshot(tmp_path):
    journal = BatchJournal(tmp_path / "wal.jsonl").open()
    for batch in flat(fleet(2, 1)):
        journal.append(batch)
    journal.sync()
    journal.reset()
    journal.close()
    assert BatchJournal(tmp_path / "wal.jsonl").replay() == ([], False)


def test_wal_replays_a_hand_framed_record(tmp_path):
    """The on-disk format is pinned: one ``<sha256[:12]> <canonical
    JSON>`` line per batch, and the journal writes exactly that."""
    batch = flat(fleet(1, 1))[0]
    payload = json.dumps(batch_to_dict(batch), sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    line = (hashlib.sha256(payload).hexdigest()[:12].encode() + b" "
            + payload + b"\n")
    path = tmp_path / "wal.jsonl"
    path.write_bytes(line)
    replayed, torn = BatchJournal(path).replay()
    assert not torn
    assert [batch_to_dict(b) for b in replayed] == [batch_to_dict(batch)]
    written = BatchJournal(tmp_path / "written.jsonl").open()
    written.append(batch)
    written.sync()
    written.close()
    assert (tmp_path / "written.jsonl").read_bytes() == line


def test_state_acks_after_a_torn_tail_survive_the_next_restart(tmp_path):
    """Recovery cuts a torn tail before the next ack is appended.

    For every byte offset inside the last record, with and without a
    newline after the fragment: recover, log one more batch, recover
    again.  Every synced batch must replay, and the second recovery
    must find no torn tail — the ack did not land on the fragment's
    line, where replay would stop before it.
    """
    synced, torn_batch, late = flat(fleet(2, 1))[:3]
    # One observation keeps the record, and so the enumeration, short.
    torn_batch = dataclasses.replace(
        torn_batch, observations=torn_batch.observations[:1])
    framed = BatchJournal(tmp_path / "framed.jsonl").open()
    framed.append(synced)
    framed.sync()
    prefix = framed.path.read_bytes()
    framed.append(torn_batch)
    framed.sync()
    framed.close()
    record = framed.path.read_bytes()[len(prefix):]
    state_dir = tmp_path / "state"
    state_dir.mkdir()
    for torn in torn_forms(record):
        (state_dir / "wal.jsonl").write_bytes(prefix + torn)
        state = ServiceState(state_dir).recover()
        assert state.torn_tail_cut, torn
        assert state.replayed == 1
        state.log([late])
        state.close()
        again = ServiceState(state_dir).recover()
        again.close()
        assert not again.torn_tail_cut, torn
        assert again.aggregator.batch_ids() == \
            sorted([synced.batch_id, late.batch_id]), torn


# ------------------------------------------------------- service state


def test_state_recovers_snapshot_plus_journal(tmp_path):
    batches = flat(fleet(4, 2))
    state = ServiceState(tmp_path).recover()
    state.log(batches[:6])
    for batch in batches[:6]:
        state.ingest(batch)
    state.publish()
    state.log(batches[6:])
    for batch in batches[6:]:
        state.ingest(batch)
    state.close()  # no final publish: the tail lives only in the WAL

    recovered = ServiceState(tmp_path).recover()
    assert recovered.replayed == len(batches) - 6
    assert serial_json(recovered.aggregator.batches()) == \
        serial_json(batches)
    recovered.close()


def test_state_crash_between_snapshot_and_reset_is_idempotent(tmp_path):
    """Batches both in the snapshot and still in the WAL count once."""
    from repro.crowd.store import save_aggregator

    batches = flat(fleet(3, 1))
    state = ServiceState(tmp_path).recover()
    state.log(batches)
    for batch in batches:
        state.ingest(batch)
    # Crash after the snapshot rename but before the WAL reset:
    save_aggregator(state.snapshot_path, state.aggregator)
    state.close()

    recovered = ServiceState(tmp_path).recover()
    assert recovered.replayed == len(batches)  # replayed, then deduped
    assert serial_json(recovered.aggregator.batches()) == \
        serial_json(batches)
    recovered.close()


def test_publish_syncs_directory_between_rename_and_wal_reset(
        tmp_path, monkeypatch):
    """Acked implies durable across power loss, not only SIGKILL.

    A rename is durable only once its directory is fsynced.  If the
    WAL truncation reached the disk while the snapshot rename did not,
    a power loss would keep the empty WAL and the old snapshot, and
    every batch acked since the last publish would be gone.  So the
    state directory must be fsynced after the rename and before the
    WAL's fsync.
    """
    batches = flat(fleet(3, 1))
    state = ServiceState(tmp_path / "state").recover()
    state.log(batches)
    for batch in batches:
        state.ingest(batch)
    calls = []
    real_replace, real_fsync = os.replace, os.fsync

    def recording_replace(src, dst, *args, **kwargs):
        real_replace(src, dst, *args, **kwargs)
        calls.append(("rename", os.stat(dst).st_ino))

    def recording_fsync(fd):
        real_fsync(fd)
        info = os.fstat(fd)
        kind = "fsync-dir" if stat.S_ISDIR(info.st_mode) else "fsync"
        calls.append((kind, info.st_ino))

    monkeypatch.setattr(os, "replace", recording_replace)
    monkeypatch.setattr(os, "fsync", recording_fsync)
    state.publish()
    monkeypatch.undo()
    state.close()

    names = {
        os.stat(state.snapshot_path).st_ino: "snapshot",
        os.stat(state.directory).st_ino: "state-dir",
        os.stat(state.wal.path).st_ino: "wal",
    }
    sequence = [f"{kind}({names.get(ino, ino)})" for kind, ino in calls]
    expected = ["rename(snapshot)", "fsync-dir(state-dir)", "fsync(wal)"]
    assert [step for step in sequence if step in expected] == expected, \
        sequence


def test_state_torn_snapshot_write_loses_nothing(tmp_path):
    """A torn publish keeps the old snapshot AND the full journal."""
    batches = flat(fleet(3, 1))
    state = ServiceState(tmp_path).recover()
    state.log(batches)
    for batch in batches:
        state.ingest(batch)
    state.faults = FaultInjector(FaultPlan(torn_write_rate=1.0), seed=0)
    with pytest.raises(TornWriteError):
        state.publish()
    assert not state.snapshot_path.exists()  # no half-written snapshot
    state.close()

    recovered = ServiceState(tmp_path).recover()
    assert recovered.replayed == len(batches)
    assert serial_json(recovered.aggregator.batches()) == \
        serial_json(batches)
    recovered.close()


def test_state_torn_group_append_rolls_back_whole_group(tmp_path):
    """No batch of a torn group commit may be acknowledged."""
    batches = flat(fleet(4, 1))
    state = ServiceState(tmp_path).recover()
    state.log(batches[:2])
    # Tear the append of the *last* batch in the second group.
    plan = FaultPlan(torn_write_rate=1.0)
    probe = FaultInjector(plan, seed=0)
    group = batches[2:]
    # _trip_keyed is keyed per batch: find the seed irrelevant — rate
    # 1.0 tears the first append of the group.
    state.faults = probe
    with pytest.raises(TornWriteError):
        state.log(group)
    state.faults = None
    state.close()
    replayed, torn = BatchJournal(tmp_path / "wal.jsonl").replay()
    assert not torn  # log() repaired before re-raising
    assert [b.batch_id for b in replayed] == \
        [b.batch_id for b in batches[:2]]


# ----------------------------------------------------- service over HTTP


def run(coro):
    return asyncio.run(coro)


async def _started(tmp_path, **kwargs):
    return await IngestService(tmp_path / "state", **kwargs).start()


def test_service_ingest_ack_and_duplicate(tmp_path):
    async def scenario():
        service = await _started(tmp_path)
        client = ServeClient("127.0.0.1", service.port, seed=1)
        batch = flat(fleet(1, 1))[0]
        assert await client.upload(batch) == "ingested"
        assert await client.upload(batch) == "duplicate"
        health = await client.get("/healthz")
        assert health == {"status": "ok"}
        ready = await client.get("/readyz")
        assert ready == {"status": "ready"}
        stats = await client.get("/v1/stats")
        assert stats["ingested"] == 1
        assert stats["duplicates"] == 1
        await client.close()
        await service.stop()
        return service

    service = run(scenario())
    assert service.state.snapshot_bytes()  # final publish landed


def test_service_equivalence_shuffled_duplicated_concurrent(tmp_path):
    """Any delivery schedule converges to the batch-path bytes."""
    fleet_batches = fleet(6, 2, seed=23)
    expected = baseline_snapshot_json(fleet_batches)
    batches = flat(fleet_batches)
    shuffled = batches * 2  # every batch delivered twice
    random.Random(5).shuffle(shuffled)
    thirds = [shuffled[i::3] for i in range(3)]

    async def scenario():
        service = await _started(tmp_path, snapshot_every=7)

        async def device(index, work):
            client = ServeClient("127.0.0.1", service.port, seed=index,
                                 key=f"dev{index}")
            for batch in work:
                await client.upload(batch)
            await client.close()

        await asyncio.gather(*(
            device(i, work) for i, work in enumerate(thirds)
        ))
        await service.stop()
        return service

    service = run(scenario())
    assert service.state.snapshot_bytes() == expected.encode("utf-8")


def test_service_kill_restart_replays_acked_batches(tmp_path):
    """SIGKILL loses nothing acked; the restart replays the WAL and
    re-uploads ack as duplicates."""
    fleet_batches = fleet(5, 2, seed=31)
    expected = baseline_snapshot_json(fleet_batches)
    batches = flat(fleet_batches)
    half = len(batches) // 2

    async def before_kill():
        # snapshot_every larger than the fleet: everything acked before
        # the kill lives only in the WAL.
        service = await _started(tmp_path, snapshot_every=10_000)
        client = ServeClient("127.0.0.1", service.port, seed=2)
        for batch in batches[:half]:
            await client.upload(batch)
        await service.abort()  # SIGKILL stand-in: no drain, no publish
        await client.close()
        return service

    async def after_restart():
        service = await _started(tmp_path, snapshot_every=10_000)
        client = ServeClient("127.0.0.1", service.port, seed=3)
        # Re-upload a few acked-before-the-kill batches (an ambiguous
        # client would): they must come back as duplicates.
        for batch in batches[:3]:
            assert await client.upload(batch) == "duplicate"
        for batch in batches[half:]:
            await client.upload(batch)
        await client.close()
        await service.stop()
        return service

    killed = run(before_kill())
    assert not killed.state.snapshot_bytes()  # nothing published yet
    service = run(after_restart())
    assert service.stats["replayed"] == half
    assert service.state.snapshot_bytes() == expected.encode("utf-8")


def test_service_acks_after_a_torn_tail_survive_the_next_kill(tmp_path):
    """Kill, tear the WAL tail, restart and ack more, kill again: the
    third start holds every acked batch."""
    batches = flat(fleet(4, 2, seed=41))
    half = len(batches) // 2

    async def serve_then_kill(work, seed):
        service = await _started(tmp_path, snapshot_every=10_000)
        client = ServeClient("127.0.0.1", service.port, seed=seed)
        for batch in work:
            assert await client.upload(batch) == "ingested"
        await service.abort()  # SIGKILL stand-in: no drain, no publish
        await client.close()

    async def restart():
        service = await _started(tmp_path, snapshot_every=10_000)
        await service.abort()
        return service

    run(serve_then_kill(batches[:half], seed=4))
    wal = tmp_path / "state" / "wal.jsonl"
    last = wal.read_bytes().splitlines(keepends=True)[-1]
    with open(wal, "ab") as handle:  # died mid-append
        handle.write(last[: len(last) // 2])
    run(serve_then_kill(batches[half:], seed=5))
    service = run(restart())
    assert not service.state.torn_tail_cut
    assert service.stats["replayed"] == len(batches)
    assert service.state.aggregator.batch_ids() == \
        sorted(batch.batch_id for batch in batches)


def test_service_queue_full_sheds_429_with_retry_after(tmp_path):
    async def scenario():
        service = await _started(tmp_path, max_queue=2,
                                 retry_after_s=0.75)
        # Fill the queue directly so the gate is deterministic.
        loop = asyncio.get_running_loop()
        for _ in range(2):
            service._queue.put_nowait((None, loop.create_future()))
        body = json.dumps(batch_to_dict(flat(fleet(1, 1))[0]))
        status, payload, headers = await service._route(
            _Request("POST", "/v1/batches", {}, body)
        )
        assert status == 429
        assert headers["Retry-After"] == "0.75"
        assert service.stats["shed_queue"] == 1
        # Tell the writer to skip the placeholders before stop drains.
        while not service._queue.empty():
            service._queue.get_nowait()
            service._queue.task_done()
        await service.stop()

    run(scenario())


def test_service_tenant_bucket_sheds_429(tmp_path):
    async def scenario():
        clock = [0.0]
        service = await _started(tmp_path, tenant_rate=1.0,
                                 tenant_burst=2,
                                 clock=lambda: clock[0])
        batches = flat(fleet(4, 1, seed=7))[:4]
        client = ServeClient("127.0.0.1", service.port, seed=1,
                             tenant="fleet-a", max_attempts=1,
                             sleep_scale=0.0)
        delivered = 0
        shed = 0
        for batch in batches:
            try:
                await client.upload(batch)
                delivered += 1
            except DeliveryError:
                shed += 1
        assert delivered == 2  # the burst
        assert shed == len(batches) - 2
        assert service.stats["shed_tenant"] == shed
        # Refill: one token per simulated second.
        clock[0] = 10.0
        retry = ServeClient("127.0.0.1", service.port, seed=2,
                            tenant="fleet-a", sleep_scale=0.0)
        assert await retry.upload(batches[2]) == "ingested"
        assert retry.stats.shed_429 == 0
        await client.close()
        await retry.close()
        await service.stop()

    run(scenario())


def test_service_draining_refuses_with_503(tmp_path):
    async def scenario():
        service = await _started(tmp_path)
        service._draining = True
        status, payload, _ = await service._route(
            _Request("GET", "/readyz", {}, "")
        )
        assert (status, payload) == (503, {"status": "draining"})
        body = json.dumps(batch_to_dict(flat(fleet(1, 1))[0]))
        status, _, headers = await service._route(
            _Request("POST", "/v1/batches", {}, body)
        )
        assert status == 503
        assert "Retry-After" in headers
        service._draining = False
        await service.stop()

    run(scenario())


def test_service_rejects_malformed_batch_with_400(tmp_path):
    async def scenario():
        service = await _started(tmp_path)
        status, payload, _ = await service._route(
            _Request("POST", "/v1/batches", {}, '{"nope": 1}')
        )
        assert status == 400
        assert "missing required key" in payload["error"]
        status, _, _ = await service._route(
            _Request("GET", "/nowhere", {}, "")
        )
        assert status == 404
        await service.stop()

    run(scenario())


def test_service_metrics_exposition_agrees_with_stats(tmp_path):
    """``/metrics`` and ``/v1/stats`` are views over one registry: on
    a drained server every stats counter matches its exposition
    sample, and per-request latency histograms appear with the full
    cumulative ``_bucket``/``_sum``/``_count`` shape."""
    async def scenario():
        service = await _started(tmp_path)
        client = ServeClient("127.0.0.1", service.port, seed=1)
        batch = flat(fleet(2, 1))[0]
        assert await client.upload(batch) == "ingested"
        assert await client.upload(batch) == "duplicate"
        stats = await client.get("/v1/stats")
        head, body = await client.get_raw("/metrics")
        await client.close()
        await service.stop()
        return stats, head, body

    stats, head, body = run(scenario())
    assert "Content-Type: text/plain; version=0.0.4" in head
    samples = {}
    for line in body.splitlines():
        if line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        samples[name] = value
    # Every /v1/stats counter has an identical exposition sample.
    for key in ("ingested", "duplicates", "replayed", "shed_queue",
                "publishes", "write_failures"):
        assert samples[f"serve_{key}"] == str(stats[key]), key
    assert samples["serve_queue_depth"] == str(stats["queue_depth"])
    # The upload route's latency histogram, labeled by route and
    # status class, with the cumulative bucket tail.
    labels = '{route="/v1/batches",status="2xx"}'
    count = int(samples[f"serve_http_latency_ms_count{labels}"])
    assert count == 2  # the two uploads
    inf = f'serve_http_latency_ms_bucket{{route="/v1/batches",' \
          f'status="2xx",le="+Inf"}}'
    assert int(samples[inf]) == count
    assert f"serve_http_latency_ms_sum{labels}" in samples
    # /v1/stats itself was observed too (route label, status 2xx).
    stats_labels = '{route="/v1/stats",status="2xx"}'
    assert f"serve_http_latency_ms_count{stats_labels}" in samples


def test_service_stats_snapshot_is_consistent(tmp_path):
    """Queue depth in ``/v1/stats`` comes from the same snapshot as
    the counters (no live ``qsize()`` re-read), and the JSON key
    order is the pinned wire order."""
    from repro.serve.service import STATS_KEYS

    async def scenario():
        service = await _started(tmp_path, max_queue=8)
        loop = asyncio.get_running_loop()
        for _ in range(3):
            service._queue.put_nowait((None, loop.create_future()))
        status, payload, _ = await service._route(
            _Request("GET", "/v1/stats", {}, "")
        )
        assert status == 200
        assert payload["queue_depth"] == 3
        assert list(payload) == list(STATS_KEYS) + [
            "queue_depth", "batches"
        ]
        # The stats property is a registry view with the same keys.
        assert list(service.stats) == list(STATS_KEYS)
        while not service._queue.empty():
            service._queue.get_nowait()
            service._queue.task_done()
        await service.stop()

    run(scenario())


def test_service_never_acks_torn_group_then_recovers(tmp_path):
    """A torn WAL append 500s the whole group; unacked batches retry
    and the final snapshot still matches the batch path."""
    fleet_batches = fleet(3, 1, seed=41)
    expected = baseline_snapshot_json(fleet_batches)
    batches = flat(fleet_batches)
    # Tear the first append attempt of one specific batch, then heal.
    victim = batches[1].batch_id

    class OneShotTear:
        def __init__(self):
            self.torn = []

        def torn_write_fault(self, label):
            if label == f"wal:{victim}:1" and not self.torn:
                self.torn.append(label)
                return True
            return False

    async def scenario():
        service = await IngestService(
            tmp_path / "state", faults=OneShotTear()
        ).start()
        client = ServeClient("127.0.0.1", service.port, seed=5,
                             sleep_scale=0.0)
        for batch in batches:
            await client.upload(batch)
        assert client.stats.server_errors >= 1  # the torn group's 500s
        assert service.stats["write_failures"] >= 1
        await client.close()
        await service.stop()
        return service

    service = run(scenario())
    assert service.state.snapshot_bytes() == expected.encode("utf-8")


def test_service_retries_torn_batch_until_acked_then_replays(tmp_path):
    """A torn append is keyed on the batch and its attempt: a batch
    whose first append tears draws a fresh verdict on the retry, is
    acked, and replays from the WAL after a kill."""
    fleet_batches = fleet(4, 1, seed=43)
    expected = baseline_snapshot_json(fleet_batches)
    batches = flat(fleet_batches)
    faults = FaultInjector(FaultPlan(torn_write_rate=0.5), seed=2,
                           scope=("serve",))
    # Keyed verdicts do not depend on earlier draws, so asking ahead
    # changes nothing the service will see.
    first_tears = [batch.batch_id for batch in batches
                   if faults.torn_write_fault(f"wal:{batch.batch_id}:1")]
    assert first_tears  # the seed tears some batch's first append

    async def killed_after_uploads():
        service = await _started(tmp_path, faults=faults,
                                 snapshot_every=10**6)
        client = ServeClient("127.0.0.1", service.port, seed=3,
                             max_attempts=40, sleep_scale=0.0)
        for batch in batches:
            await client.upload(batch)
        assert client.stats.delivered == len(batches)
        assert service.stats["write_failures"] >= len(first_tears)
        await client.close()
        await service.abort()  # no publish: every ack lives in the WAL

    async def restarted():
        service = await _started(tmp_path)
        assert service.state.replayed == len(batches)
        await service.stop()
        return service

    run(killed_after_uploads())
    assert run(restarted()).state.snapshot_bytes() == expected.encode()


def test_service_rejects_mistyped_batch_and_keeps_publishing(tmp_path):
    """An upload whose batch id is a number is refused with 400 before
    it is journaled; the publishes after it still succeed."""
    batches = flat(fleet(2, 1, seed=47))
    mistyped = dict(batch_to_dict(batches[1]), batch_id=12345)

    async def scenario():
        service = await _started(tmp_path, snapshot_every=1)
        client = ServeClient("127.0.0.1", service.port, seed=5,
                             sleep_scale=0.0)
        await client.upload(batches[0])
        head, body = await client._exchange("POST", "/v1/batches",
                                            json.dumps(mistyped))
        assert head.split()[1] == "400"
        assert "'batch_id' must be a string" in json.loads(body)["error"]
        for batch in batches[1:]:
            await client.upload(batch)
        published = service.stats["publishes"]
        head, _ = await client._exchange("POST", "/v1/publish")
        assert head.split()[1] == "200"
        assert service.stats["publishes"] == published + 1
        await client.close()
        await service.stop()
        return service

    service = run(scenario())
    assert service.stats["bad_requests"] == 1
    assert service.stats["publish_failures"] == 0
    assert service.state.snapshot_bytes() == serial_json(batches).encode()


# ------------------------------------------------------------- client


def _free_port():
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_client_gives_up_with_delivery_error_and_opens_breaker():
    port = _free_port()  # nothing listening: every connect refused

    async def scenario():
        client = ServeClient("127.0.0.1", port, seed=1, max_attempts=8,
                             breaker_threshold=3, sleep_scale=0.0)
        with pytest.raises(DeliveryError):
            await client.upload(flat(fleet(1, 1))[0])
        assert client.stats.attempts == 8
        assert client.stats.connection_errors == 8
        assert client.stats.breaker_opens == 1
        assert client.stats.failed == 1

    run(scenario())


def test_client_delivers_through_network_faults(tmp_path):
    """Seeded drops, resets, delays, and corrupt responses: every
    batch still lands exactly once, and the snapshot matches."""
    fleet_batches = fleet(4, 2, seed=53)
    expected = baseline_snapshot_json(fleet_batches)
    plan = FaultPlan(
        request_drop_rate=0.3, request_delay_rate=0.3,
        connection_reset_rate=0.2, response_corrupt_rate=0.2,
        request_delay_ms=1.0,
    )

    async def scenario():
        service = await _started(tmp_path)
        total_injected = 0
        for index, (_, batches) in enumerate(fleet_batches):
            faults = FaultInjector(plan, seed=9, scope=("serve-net",))
            client = ServeClient("127.0.0.1", service.port, seed=index,
                                 key=f"dev{index}", faults=faults,
                                 max_attempts=40, sleep_scale=0.0)
            for batch in batches:
                await client.upload(batch)
            await client.close()
            total_injected += (client.stats.injected_drops
                               + client.stats.injected_resets
                               + client.stats.corrupt_responses)
        assert total_injected > 0  # the storm actually happened
        await service.stop()
        return service

    service = run(scenario())
    assert service.state.snapshot_bytes() == expected.encode("utf-8")


def test_client_backoff_schedule_is_deterministic():
    recorded = [[], []]

    async def scenario(slot):
        client = ServeClient("127.0.0.1", _free_port(), seed=4,
                             key="dev0", max_attempts=6,
                             sleep=lambda s: _note(slot, s))
        with pytest.raises(DeliveryError):
            await client.upload(flat(fleet(1, 1))[0])

    async def _note(slot, seconds):
        recorded[slot].append(seconds)

    run(scenario(0))
    run(scenario(1))
    assert recorded[0] == recorded[1]
    assert len(recorded[0]) == 5  # max_attempts - 1 sleeps


# ------------------------------------------------------------ loadgen


def test_synthetic_fleet_is_deterministic_and_per_device_stable():
    a = synthetic_fleet_batches(3, 6, 2)
    b = synthetic_fleet_batches(3, 6, 2)
    assert serial_json(flat(a)) == serial_json(flat(b))
    # Device 2's batches do not depend on the fleet size around it.
    small = dict(synthetic_fleet_batches(3, 3, 2))[2]
    large = dict(synthetic_fleet_batches(3, 8, 2))[2]
    assert [batch_to_dict(x) for x in small] == \
        [batch_to_dict(x) for x in large]


def test_percentile_nearest_rank():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0.50) == 20.0
    assert percentile(values, 0.99) == 40.0
    assert percentile([], 0.5) == 0.0


def test_run_bench_rate0_byte_identity(tmp_path):
    report = run_bench(tmp_path / "state", devices=8, rounds=1, seed=13,
                       concurrency=4, snapshot_every=5)
    assert report.snapshot_matches is True
    assert report.stats.failed == 0
    assert report.stats.delivered == report.batches_total
    rendered = report.render()
    assert "snapshot == batch baseline : yes" in rendered
    assert "p99" in rendered


def test_run_bench_under_faults_and_saturation(tmp_path):
    report = run_bench(tmp_path / "state", devices=10, rounds=1, seed=17,
                       concurrency=8, max_queue=2, fault_rate=0.2,
                       request_delay_ms=1.0, sleep_scale=0.0)
    assert report.snapshot_matches is True
    assert report.stats.failed == 0
    assert report.stats.retries > 0


def test_run_bench_real_mode_matches_the_batch_baseline(tmp_path, device):
    """``serve-bench --mode real``: full Hang Doctor device rounds,
    uploaded, served and drained to the batch path's bytes."""
    report = run_bench(tmp_path / "state", mode="real", devices=2,
                       rounds=1, actions=4, device_profile=device)
    assert report.batches_total > 0
    assert report.snapshot_matches is True
    assert report.undelivered == []
    assert report.stats.delivered == report.batches_total


# ------------------------------------------------- connection lifecycle


def _latency(service, route, status):
    """``(count, sum_ms)`` of one route's request-latency histogram."""
    from repro.telemetry import labeled

    return service.metrics.histogram_summary(
        labeled("serve.http.latency_ms", route=route, status=status)
    )


async def _raw_exchange(port, data):
    """Send raw bytes on a fresh connection; read until the server
    closes it."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(data)
    await writer.drain()
    try:
        return await asyncio.wait_for(reader.read(), timeout=5.0)
    finally:
        writer.close()


@pytest.mark.parametrize("request_bytes", [
    b"POST /v1/batches HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
    b"POST /v1/batches HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe",
], ids=["non-numeric-content-length", "body-not-utf8"])
def test_malformed_request_gets_400_and_close(tmp_path, request_bytes):
    async def scenario():
        service = await _started(tmp_path)
        response = await _raw_exchange(service.port, request_bytes)
        await service.stop()
        return service, response

    service, response = run(scenario())
    head = response.decode("latin-1").partition("\r\n\r\n")[0]
    assert head.startswith("HTTP/1.1 400"), response
    assert "Connection: close" in head.split("\r\n")
    assert _latency(service, "other", "4xx")[0] == 1


def test_one_client_uploads_over_one_connection(tmp_path):
    batches = flat(fleet(3, 2, seed=61))[:5]

    async def scenario():
        service = await _started(tmp_path)
        client = ServeClient("127.0.0.1", service.port, seed=1)
        for batch in batches:
            assert await client.upload(batch) == "ingested"
        _, body = await client.get_raw("/metrics")
        await client.close()
        await client.close()  # closing twice is safe
        await service.stop()
        return body

    body = run(scenario())
    assert "serve_connections 1" in body.splitlines()


def test_drive_fleet_opens_one_connection_per_device(tmp_path):
    from repro.serve.loadgen import drive_fleet

    fleet_batches = fleet(8, 3, seed=67) + [(8, [])]
    expected = baseline_snapshot_json(fleet_batches)
    devices = sum(1 for _, batches in fleet_batches if batches)

    async def scenario():
        service = await _started(tmp_path)
        stats, undelivered = await drive_fleet(
            "127.0.0.1", service.port, fleet_batches, concurrency=3,
        )
        await service.stop()
        return service, stats, undelivered

    service, stats, undelivered = run(scenario())
    assert not undelivered
    assert stats.retries == 0
    assert service.metrics.counter_value("serve.connections") == devices
    assert service.state.snapshot_bytes() == expected.encode("utf-8")


def test_stop_closes_an_idle_kept_alive_connection(tmp_path):
    async def scenario():
        service = await _started(tmp_path)
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       service.port)
        writer.write(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
        await writer.drain()
        head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
        status_line, *lines = head.strip().split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines)
        assert status_line.startswith("HTTP/1.1 200")
        assert "Connection" not in headers  # kept alive
        await reader.readexactly(int(headers["Content-Length"]))
        await asyncio.wait_for(service.stop(), timeout=5.0)
        tail = await asyncio.wait_for(reader.read(), timeout=5.0)
        writer.close()
        return tail

    assert run(scenario()) == b""  # the server closed the connection


def test_abort_cancels_a_queued_upload_without_reply(tmp_path):
    async def scenario():
        service = await _started(tmp_path)
        queued = []
        # The batch is queued but its ack never comes: the handler
        # waits on a future nothing will resolve.
        service._queue.put_nowait = queued.append
        client = ServeClient("127.0.0.1", service.port, seed=1,
                             max_attempts=1)
        upload = asyncio.ensure_future(
            client.upload(flat(fleet(1, 1))[0])
        )
        while not queued:
            await asyncio.sleep(0.01)
        await asyncio.wait_for(service.abort(), timeout=5.0)
        with pytest.raises(DeliveryError):
            await asyncio.wait_for(upload, timeout=5.0)
        await client.close()
        return client

    client = run(scenario())
    assert client.stats.connection_errors == 1  # no reply, no 200
    assert client.stats.delivered == 0


def test_timed_out_attempt_retries_on_a_new_connection(tmp_path):
    """A late reply must never answer the retry: the retry opens a new
    connection, so it sees the server's own verdict (duplicate)."""
    fleet_batches = fleet(3, 2, seed=71)
    expected = baseline_snapshot_json(fleet_batches)
    batches = flat(fleet_batches)

    async def scenario():
        service = await _started(tmp_path)
        respond = service._respond
        delays = [0.6]

        async def late_first_ack(writer, status, *args, **kwargs):
            if delays:
                await asyncio.sleep(delays.pop())
            await respond(writer, status, *args, **kwargs)

        service._respond = late_first_ack
        client = ServeClient("127.0.0.1", service.port, seed=1,
                             timeout_s=0.2, sleep_scale=0.0)
        assert await client.upload(batches[0]) == "duplicate"
        assert client.stats.timeouts == 1
        for batch in batches[1:]:
            assert await client.upload(batch) == "ingested"
        await client.close()
        await service.stop()
        return service

    service = run(scenario())
    assert service.metrics.counter_value("serve.connections") == 2
    assert service.state.snapshot_bytes() == expected.encode("utf-8")


def test_idle_gap_between_requests_is_not_request_latency(tmp_path):
    batches = flat(fleet(2, 1, seed=73))[:2]

    async def scenario():
        service = await _started(tmp_path)
        client = ServeClient("127.0.0.1", service.port, seed=1)
        await client.upload(batches[0])
        await asyncio.sleep(0.2)
        await client.upload(batches[1])
        await client.close()
        await service.stop()
        return service

    service = run(scenario())
    assert service.metrics.counter_value("serve.connections") == 1
    count, total_ms = _latency(service, "/v1/batches", "2xx")
    assert count == 2
    assert total_ms < 200.0
