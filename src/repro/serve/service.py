"""The asyncio HTTP ingestion tier.

One :class:`IngestService` owns a :class:`~repro.serve.state.
ServiceState` and serves a small HTTP/1.1 surface over plain asyncio
streams (the repo is stdlib-only by design — no aiohttp):

* ``POST /v1/batches`` — upload one ReportBatch (the wire form of
  :func:`repro.crowd.store.batch_to_dict`).  Acknowledged with 200
  only after the batch's WAL record is fsynced; the body says whether
  it was ``ingested`` or recognized as a ``duplicate``.
* ``GET /healthz`` — liveness: 200 whenever the process can answer.
* ``GET /readyz`` — readiness: 200 while accepting uploads, 503 once
  draining.
* ``GET /v1/stats`` — ingestion counters as JSON.
* ``GET /metrics`` — the same counters (plus request-latency
  histograms) in Prometheus text exposition format, rendered from the
  same snapshot the stats JSON uses (see ``docs/serve.md`` for the
  consistency contract).
* ``POST /v1/publish`` — force a snapshot publication.

**Admission control.**  Two independent gates shed load *before* it
costs anything durable, both answering 429 with a ``Retry-After``
header the client's seeded backoff honors:

* a bounded ingest queue — depth beyond ``max_queue`` means the
  fsync pipeline is saturated and new uploads are shed;
* per-tenant token buckets (``tenant_rate``/``tenant_burst`` per
  second, tenant = the ``X-Tenant`` header, defaulting to the batch's
  app) — one chatty fleet cannot starve the rest.

**The write path.**  Handlers enqueue ``(batch, future)`` and await
the future; a single writer task drains the queue in groups, journals
the group under one fsync (group commit), applies it to the
aggregator, and only then resolves the futures.  A torn journal
append fails the *whole* group with 500 — the journal is repaired and
no batch of the group is acknowledged, so "acked" and "durable" stay
synonyms even under injected write faults.

**Connections.**  A connection stays open across requests (HTTP/1.1
keep-alive); every response is framed by ``Content-Length``.  The
service answers with ``Connection: close`` and closes the connection
when the request asked for it, the request is malformed (400), or the
service is draining.  Accepted connections count as
``serve.connections``.

**Shutdown.**  :meth:`IngestService.stop` drains: readiness flips to
503, new uploads are refused with 503 + ``Retry-After``, the queue is
flushed through the writer, a final snapshot is published, and only
then do the idle connections and the socket close.  SIGKILL instead
of drain is the WAL's job: acked batches replay on restart.

Everything timing-related (latencies, queue depths, publish cadence)
is wall-clock and lands on the telemetry *advisory* channel only; the
deterministic channel stays byte-identical whether or not a service
ran in-process.
"""

import asyncio
import json
import time

from repro.crowd.store import batch_from_dict
from repro.obs.prometheus import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.obs.prometheus import render_prometheus
from repro.serve.state import ServiceState
from repro.telemetry import MetricsRegistry, labeled
from repro.telemetry import current as telemetry

#: Default bound on batches queued for the fsync pipeline.
DEFAULT_MAX_QUEUE = 256
#: Default batches per snapshot publication.
DEFAULT_SNAPSHOT_EVERY = 512
#: Largest accepted request body, in bytes.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: The ``/v1/stats`` counter keys, in their wire order.  The JSON
#: shape predates the registry migration and is pinned byte-for-byte:
#: these keys first, then ``queue_depth`` and ``batches``.
STATS_KEYS = (
    "ingested", "duplicates", "replayed", "shed_queue", "shed_tenant",
    "rejected_draining", "bad_requests", "publishes",
    "publish_failures", "write_failures",
)

#: Routes the service understands; anything else is labeled ``other``
#: in the per-request metrics so stray paths cannot explode series
#: cardinality.
_KNOWN_PATHS = ("/healthz", "/metrics", "/readyz", "/v1/batches",
                "/v1/publish", "/v1/stats")

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class _TokenBucket:
    """One tenant's admission budget: *rate* tokens/s, *burst* deep."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate, burst, now):
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.stamp = now

    def admit(self, now):
        """Take one token; returns (admitted, retry_after_seconds)."""
        self.tokens = min(
            self.burst, self.tokens + (now - self.stamp) * self.rate
        )
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self.tokens) / self.rate


class _Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "headers", "body")

    def __init__(self, method, path, headers, body):
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body


class IngestService:
    """The live crowd ingestion service (one state dir, one socket)."""

    def __init__(self, state_dir, host="127.0.0.1", port=0, *,
                 max_queue=DEFAULT_MAX_QUEUE,
                 snapshot_every=DEFAULT_SNAPSHOT_EVERY,
                 tenant_rate=0.0, tenant_burst=32,
                 retry_after_s=0.25, faults=None,
                 clock=time.monotonic):
        self.state = ServiceState(state_dir, faults=faults)
        self.host = host
        self.port = port
        self.max_queue = max_queue
        self.snapshot_every = snapshot_every
        #: Per-tenant admitted batches per second; 0 disables the gate.
        self.tenant_rate = tenant_rate
        self.tenant_burst = tenant_burst
        self.retry_after_s = retry_after_s
        self.clock = clock
        #: The single counter source.  Every number the service
        #: reports — ``/v1/stats`` JSON, the :attr:`stats` view, and
        #: the ``/metrics`` exposition — is a view over this registry,
        #: mirroring the ``HangDoctor.metrics`` pattern.
        self.metrics = MetricsRegistry()
        # Pre-register every stats counter at zero so a fresh scrape
        # of /metrics lists the same counters /v1/stats reports.
        for key in STATS_KEYS:
            self.metrics.count(f"serve.{key}", 0)
        self._queue = None
        self._writer_task = None
        self._server = None
        #: Handler tasks of the open connections.
        self._connections = set()
        #: Writers whose handler waits for the next request line.
        self._idle = set()
        self._draining = False
        self._since_publish = 0
        self._buckets = {}

    # ----------------------------------------------------------- lifecycle

    async def start(self):
        """Recover state, start the writer, bind the socket."""
        self.state.recover()
        self._meter("replayed", self.state.replayed)
        telemetry().advisory_event(
            "serve.start", replayed=self.state.replayed,
            torn_tail_cut=self.state.torn_tail_cut,
            batches=len(self.state.aggregator),
        )
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._writer_task = asyncio.ensure_future(self._writer())
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self):
        """Graceful drain: refuse new work, flush, publish, close."""
        self._draining = True
        if self._queue is not None:
            await self._queue.join()
        if self._writer_task is not None:
            self._writer_task.cancel()
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass
        self._publish(final=True)
        # An idle kept-alive connection holds no request: closing it
        # hands its handler EOF.  Busy handlers close after replying.
        for writer in self._idle:
            writer.close()
        await self._close_server()
        self.state.close()
        telemetry().advisory_event(
            "serve.stop",
            ingested=self.metrics.counter_value("serve.ingested"),
            publishes=self.metrics.counter_value("serve.publishes"),
        )

    async def abort(self):
        """Die without draining or publishing (a SIGKILL stand-in).

        Tests use this to leave behind exactly what a killed process
        leaves: the last published snapshot plus the fsynced WAL tail.
        Every connection handler is cancelled, so in-flight requests
        never get their reply — their clients retry against the
        restarted service.
        """
        self._draining = True  # a late handler must not queue work
        if self._writer_task is not None:
            self._writer_task.cancel()
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass
        for task in self._connections:
            task.cancel()
        await self._close_server()
        self.state.close()

    async def _close_server(self):
        """Stop listening and wait until every handler has exited.

        ``Server.wait_closed`` waits for open connections on some
        Python versions and not on others, so the handlers are awaited
        directly: a kept-alive connection must be closed (or its
        handler cancelled) first.
        """
        if self._server is None:
            return
        self._server.close()
        if self._connections:
            await asyncio.wait(list(self._connections))
        await self._server.wait_closed()

    @property
    def address(self):
        """The bound ``host:port``."""
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------- metrics

    def _meter(self, key, n=1):
        """Increment one service counter (``serve.<key>``)."""
        self.metrics.count(f"serve.{key}", n)

    @property
    def stats(self):
        """The ingestion counters as a plain dict (a registry view)."""
        return {
            key: self.metrics.counter_value(f"serve.{key}")
            for key in STATS_KEYS
        }

    def _snapshot(self):
        """One consistent registry snapshot (the scrape contract).

        Queue depth and aggregated-batch count are sampled into gauges
        immediately before the state copy, all within one event-loop
        step with no await in between — so every value in a scraped
        ``/v1/stats`` or ``/metrics`` response describes the same
        instant, never a queue depth newer than its counters.
        """
        depth = self._queue.qsize() if self._queue is not None else 0
        self.metrics.gauge_set("serve.queue.depth", float(depth))
        self.metrics.gauge_set(
            "serve.batches.aggregated", float(len(self.state.aggregator))
        )
        return self.metrics.state()

    def _observe_request(self, path, status, elapsed_ms):
        """Per-request latency, labeled by route and status class."""
        route = path if path in _KNOWN_PATHS else "other"
        self.metrics.observe(
            labeled("serve.http.latency_ms", route=route,
                    status=f"{status // 100}xx"),
            elapsed_ms,
        )

    # ---------------------------------------------------------- the writer

    async def _writer(self):
        """Drain the queue in groups: journal, fsync once, apply, ack."""
        while True:
            group = [await self._queue.get()]
            while not self._queue.empty() and len(group) < 64:
                group.append(self._queue.get_nowait())
            try:
                self.state.log([batch for batch, _ in group])
            except Exception as error:
                self._meter("write_failures", len(group))
                telemetry().advisory_event(
                    "serve.write_failure", batches=len(group),
                    error=type(error).__name__,
                )
                for _, future in group:
                    if not future.done():
                        future.set_result(("error", str(error)))
                    self._queue.task_done()
                continue
            for batch, future in group:
                if self.state.ingest(batch):
                    self._meter("ingested")
                    status = "ingested"
                else:
                    self._meter("duplicates")
                    status = "duplicate"
                self._since_publish += 1
                if not future.done():
                    future.set_result((status, None))
                self._queue.task_done()
            if self._since_publish >= self.snapshot_every:
                self._publish()

    def _publish(self, final=False):
        """Publish a snapshot; failures are survivable (WAL keeps all)."""
        try:
            self.state.publish()
        except Exception as error:
            self._meter("publish_failures")
            telemetry().advisory_event(
                "serve.publish_failure", error=type(error).__name__,
            )
            return
        self._meter("publishes")
        self._since_publish = 0
        telemetry().advisory_event(
            "serve.publish", batches=len(self.state.aggregator),
            final=final,
        )

    # -------------------------------------------------------- the handler

    async def _handle(self, reader, writer):
        """Serve requests on one connection until it closes."""
        self._meter("connections")
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                self._idle.add(writer)
                try:
                    line = await reader.readline()
                finally:
                    self._idle.discard(writer)
                if not line:
                    break  # the client closed the connection
                # Request latency starts at the request line: time the
                # connection sat idle before it is not request time.
                started = self.clock()
                request = await self._read_request(line, reader)
                if request is None:
                    path, status = "other", 400
                    payload, headers = {"error": "bad request"}, {}
                else:
                    path = request.path
                    status, payload, headers = await self._route(request)
                close = request is None or self._draining or (
                    request.headers.get("connection", "").lower() == "close"
                )
                self._observe_request(
                    path, status, (self.clock() - started) * 1000.0
                )
                await self._respond(writer, status, payload, headers,
                                    close=close)
                if close or self._draining:
                    break  # a drain began while this reply was sent
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            # abort() cancels handlers to end them; the task returns
            # normally so asyncio's stream callback logs nothing.
            pass
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, request):
        """Dispatch one request; returns (status, payload, headers)."""
        key = (request.method, request.path)
        if key == ("GET", "/healthz"):
            return 200, {"status": "ok"}, {}
        if key == ("GET", "/readyz"):
            if self._draining:
                return 503, {"status": "draining"}, {}
            return 200, {"status": "ready"}, {}
        if key == ("GET", "/v1/stats"):
            snapshot = self._snapshot()
            counters = snapshot["counters"]
            stats = {
                name: counters.get(f"serve.{name}", 0)
                for name in STATS_KEYS
            }
            stats["queue_depth"] = int(
                snapshot["gauges"]["serve.queue.depth"]
            )
            stats["batches"] = int(
                snapshot["gauges"]["serve.batches.aggregated"]
            )
            return 200, stats, {}
        if key == ("GET", "/metrics"):
            return 200, render_prometheus(self._snapshot()), {
                "Content-Type": _PROM_CONTENT_TYPE
            }
        if key == ("POST", "/v1/publish"):
            self._publish()
            return 200, {"published": len(self.state.aggregator)}, {}
        if key == ("POST", "/v1/batches"):
            return await self._ingest_request(request)
        if request.path in _KNOWN_PATHS:
            return 405, {"error": "method not allowed"}, {}
        return 404, {"error": "no such endpoint"}, {}

    async def _ingest_request(self, request):
        """The upload path: admission gates, then the durable queue."""
        if self._draining:
            self._meter("rejected_draining")
            return 503, {"error": "draining"}, {
                "Retry-After": f"{self.retry_after_s:g}"
            }
        try:
            batch = batch_from_dict(json.loads(request.body))
        except ValueError as error:
            self._meter("bad_requests")
            return 400, {"error": str(error)}, {}
        tenant = request.headers.get("x-tenant", batch.app_name)
        admitted, wait_s = self._admit(tenant)
        if not admitted:
            self._meter("shed_tenant")
            telemetry().advisory_event("serve.shed", gate="tenant",
                                       tenant=tenant)
            return 429, {"error": "tenant rate exceeded"}, {
                "Retry-After": f"{wait_s:g}"
            }
        future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait((batch, future))
        except asyncio.QueueFull:
            self._meter("shed_queue")
            telemetry().advisory_event("serve.shed", gate="queue",
                                       tenant=tenant)
            return 429, {"error": "ingest queue full"}, {
                "Retry-After": f"{self.retry_after_s:g}"
            }
        status, detail = await future
        if status == "error":
            return 500, {"error": detail}, {}
        return 200, {"status": status, "batch_id": batch.batch_id}, {}

    def _admit(self, tenant):
        """The per-tenant token-bucket gate."""
        if self.tenant_rate <= 0.0:
            return True, 0.0
        now = self.clock()
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = _TokenBucket(
                self.tenant_rate, float(self.tenant_burst), now
            )
        return bucket.admit(now)

    # ------------------------------------------------------------- wire IO

    async def _read_request(self, line, reader):
        """Parse the rest of one HTTP/1.1 request after its request
        *line*; None on malformed input."""
        try:
            parts = line.decode("latin-1").rstrip("\r\n").split(" ")
            if len(parts) != 3:
                return None
            method, path, _version = parts
            headers = {}
            while True:
                line = await reader.readline()
                text = line.decode("latin-1").rstrip("\r\n")
                if not text:
                    break
                name, _, value = text.partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0") or "0")
            if length < 0 or length > MAX_BODY_BYTES:
                return None
            body = await reader.readexactly(length) if length else b""
            return _Request(method, path, headers, body.decode("utf-8"))
        except ValueError:
            # A non-numeric Content-Length, a body that is not UTF-8,
            # or a header line past the stream limit.
            return None

    async def _respond(self, writer, status, payload, headers=None,
                       close=False):
        headers = dict(headers or {})
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = headers.pop(
                "Content-Type", "text/plain; charset=utf-8"
            )
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = headers.pop("Content-Type", "application/json")
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        if close:
            lines.append("Connection: close")
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        # One write per reply, so head and body leave in one send.
        writer.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()
