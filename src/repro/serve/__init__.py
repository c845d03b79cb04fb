"""The live crowd ingestion service.

PR 3 built the crowd backend as a *batch library*: sync rounds are
synchronous function calls into
:class:`~repro.crowd.aggregator.CrowdAggregator`.  This package stands
that backend up as a long-running asyncio HTTP service (``repro
serve``): devices POST their
:class:`~repro.crowd.aggregator.ReportBatch`\\ es, the aggregator
absorbs them incrementally — the CRDT merge already makes that safe
under concurrency, duplication, and reordering — and rolling
:class:`~repro.crowd.aggregator.CrowdKnowledge` snapshots are
published through the existing atomic-write persistence.

Robustness is the headline, layered bottom-up:

* :mod:`repro.serve.wal` — a crash-safe, checksum-framed write-ahead
  batch journal: a batch is acknowledged only after its WAL record is
  fsynced, so an acked batch survives SIGKILL and is replayed
  idempotently on restart (CRDT dedup makes replay free);
* :mod:`repro.serve.state` — recovery composition: last complete
  snapshot (atomic writes keep it complete) plus the WAL tail cut at
  the last intact record;
* :mod:`repro.serve.service` — the asyncio HTTP tier: bounded ingest
  queue and per-tenant token buckets with 429 + ``Retry-After``
  admission control, health/readiness endpoints, rolling snapshot
  publication, and graceful drain on shutdown;
* :mod:`repro.serve.client` — the deterministic upload client: seeded
  exponential-backoff-plus-jitter retries
  (:class:`~repro.base.rng.SeededBackoff`), per-request timeouts, a
  circuit breaker, and the :mod:`repro.faults` network channels
  (request_drop / request_delay / connection_reset /
  response_corrupt) injected at the wire;
* :mod:`repro.serve.loadgen` — the ``repro serve-bench`` stress
  harness: thousands of simulated devices, throughput / latency
  percentiles / shed rate / retry counts, and the byte-identity check
  against the batch baseline.

The service's own timing (wall clock, socket scheduling) is
nondeterministic and stays on the telemetry *advisory* channel; the
deterministic guarantee is about *content*: at network fault rate 0
the final published snapshot is byte-identical to the synchronous
batch path over the same fleet, for any client concurrency and across
a mid-run server SIGKILL + restart.  See ``docs/serve.md``.
"""

from repro import _lazy_exports

_EXPORTS = {
    ".client": ("ClientStats", "DeliveryError", "ServeClient"),
    ".loadgen": ("LoadgenReport", "run_bench"),
    ".service": ("IngestService",),
    ".state": ("ServiceState",),
    ".wal": ("BatchJournal",),
}

__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
