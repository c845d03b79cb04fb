"""The deterministic upload client.

One :class:`ServeClient` is one device's view of the ingestion
service.  Its job is to make at-least-once delivery *boring*: every
failure mode of the upload path — refused connections, timeouts,
resets mid-exchange, corrupted responses, 429 shedding, 503 drains —
funnels into the same loop: wait a seeded backoff delay, try again,
up to ``max_attempts``.  The server's idempotent ingestion turns
at-least-once into exactly-once.

Determinism: every retry *decision* is reproducible.  Backoff delays
come from :class:`~repro.base.rng.SeededBackoff` (exponential +
decorrelated jitter, keyed per client), injected network faults come
from the :mod:`repro.faults` network channels keyed by
``(batch_id, attempt)`` — independent of concurrency or scheduling —
and the circuit breaker's thresholds and cooldowns are fixed
functions of the observed failure sequence.  What stays wall-clock
(actual socket latencies) only stretches time between decisions; it
never changes which batches are delivered, which is why fault-rate-0
runs publish byte-identical snapshots at any concurrency.

One client keeps one HTTP/1.1 connection open across its attempts
and uploads; every reply is framed by ``Content-Length``.  An attempt
that does not end in a complete framed reply (timeout, reset, refused
connect, short read, bad framing) or a reply carrying ``Connection:
close`` drops the connection, so the next attempt opens a fresh one
and a late reply can never answer a later request.

The circuit breaker trips after ``breaker_threshold`` *consecutive*
failures: further attempts first sit out a seeded cooldown (the
half-open probe), so a down server costs one probe per cooldown
instead of a retry storm.  A success closes the breaker and resets
both backoff schedules.
"""

import asyncio
import json
import time
from dataclasses import dataclass, field

from repro.base.rng import SeededBackoff
from repro.crowd.store import batch_to_dict


class DeliveryError(RuntimeError):
    """A batch could not be delivered within ``max_attempts``."""


@dataclass
class ClientStats:
    """One client's delivery bookkeeping (wall-clock parts advisory)."""

    delivered: int = 0
    duplicates: int = 0
    attempts: int = 0
    #: Attempts beyond the first, per outcome class.
    retries: int = 0
    shed_429: int = 0
    unavailable_503: int = 0
    timeouts: int = 0
    connection_errors: int = 0
    corrupt_responses: int = 0
    server_errors: int = 0
    injected_drops: int = 0
    injected_delays: int = 0
    injected_resets: int = 0
    breaker_opens: int = 0
    failed: int = 0
    #: Wall-clock milliseconds per *successful* upload (first byte of
    #: the first attempt to the final ack) — advisory only.
    latencies_ms: list = field(default_factory=list)

    def merge(self, other):
        """Fold another client's stats into this one."""
        for name in ("delivered", "duplicates", "attempts", "retries",
                     "shed_429", "unavailable_503", "timeouts",
                     "connection_errors", "corrupt_responses",
                     "server_errors", "injected_drops", "injected_delays",
                     "injected_resets", "breaker_opens", "failed"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.latencies_ms.extend(other.latencies_ms)
        return self


class _Breaker:
    """Consecutive-failure circuit breaker with seeded cooldowns."""

    def __init__(self, threshold, cooldown):
        self.threshold = threshold
        self.cooldown = cooldown  # a SeededBackoff
        self.consecutive = 0
        self.open = False

    def failure_ms(self):
        """Record a failure; returns the cooldown to sit out (0 when
        the breaker stays closed)."""
        self.consecutive += 1
        if self.threshold > 0 and self.consecutive >= self.threshold:
            just_opened = not self.open
            self.open = True
            return self.cooldown.next_ms(), just_opened
        return 0.0, False

    def success(self):
        """Close the breaker and rewind its cooldown schedule."""
        self.consecutive = 0
        self.open = False
        self.cooldown.reset()


class ServeClient:
    """Seeded-retry HTTP client for one simulated device."""

    def __init__(self, host, port, seed=0, key="client", *, faults=None,
                 tenant=None, timeout_s=5.0, max_attempts=25,
                 base_backoff_ms=25.0, cap_backoff_ms=2000.0,
                 breaker_threshold=5, sleep_scale=1.0,
                 sleep=asyncio.sleep, clock=time.monotonic):
        self.host = host
        self.port = port
        self.faults = faults
        self.tenant = tenant
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        #: Seeded delay schedule shared by retries and 429 floors.
        self.backoff = SeededBackoff(seed, "serve-client", key,
                                     base_ms=base_backoff_ms,
                                     cap_ms=cap_backoff_ms)
        self.breaker = _Breaker(
            breaker_threshold,
            SeededBackoff(seed, "serve-breaker", key,
                          base_ms=4.0 * base_backoff_ms,
                          cap_ms=8.0 * cap_backoff_ms),
        )
        #: Multiplier on every slept delay — stress runs compress
        #: simulated-milliseconds into real time without changing any
        #: decision (the schedule is the deterministic record).
        self.sleep_scale = sleep_scale
        self._sleep = sleep
        self._clock = clock
        self.stats = ClientStats()
        #: The kept-alive connection, opened on first use.
        self._reader = None
        self._writer = None

    # ------------------------------------------------------------ uploads

    async def upload(self, batch):
        """Deliver one batch at-least-once; returns the server verdict
        (``"ingested"`` or ``"duplicate"``).

        Raises :class:`DeliveryError` when ``max_attempts`` run out —
        the server never acknowledged, so nothing was lost, and the
        caller may retry the whole upload later.
        """
        body = json.dumps(batch_to_dict(batch))
        started = self._clock()
        for attempt in range(1, self.max_attempts + 1):
            self.stats.attempts += 1
            if attempt > 1:
                self.stats.retries += 1
            outcome, retry_after_s = await self._attempt(
                batch.batch_id, attempt, body
            )
            if outcome in ("ingested", "duplicate"):
                self.breaker.success()
                self.backoff.reset()
                self.stats.delivered += 1
                if outcome == "duplicate":
                    self.stats.duplicates += 1
                self.stats.latencies_ms.append(
                    (self._clock() - started) * 1000.0
                )
                return outcome
            if outcome == "fatal":
                break
            cooldown_ms, just_opened = self.breaker.failure_ms()
            if just_opened:
                self.stats.breaker_opens += 1
            if attempt == self.max_attempts:
                break  # no point sleeping before giving up
            delay_ms = max(self.backoff.next_ms(), cooldown_ms,
                           retry_after_s * 1000.0)
            await self._sleep(delay_ms / 1000.0 * self.sleep_scale)
        self.stats.failed += 1
        raise DeliveryError(
            f"{batch.batch_id}: no ack after {self.max_attempts} attempts"
        )

    async def _attempt(self, batch_id, attempt, body):
        """One wire attempt; returns (outcome, retry_after_seconds).

        Outcomes: ``"ingested"``/``"duplicate"`` (acked), ``"retry"``
        (transient — back off and go again), ``"fatal"`` (the server
        rejected the batch itself; retrying cannot help).
        """
        faults = self.faults
        if faults is not None:
            delay_ms = faults.request_delay_fault(batch_id, attempt)
            if delay_ms > 0.0:
                self.stats.injected_delays += 1
                await self._sleep(delay_ms / 1000.0 * self.sleep_scale)
            if faults.request_drop_fault(batch_id, attempt):
                # The request vanishes: the client can only time out.
                self.stats.injected_drops += 1
                self.stats.timeouts += 1
                return "retry", 0.0
        try:
            head, text = await asyncio.wait_for(
                self._exchange("POST", "/v1/batches", body, batch_id,
                               attempt),
                timeout=self.timeout_s,
            )
            status, headers = _parse_head(head)
            payload = json.loads(text)
        except asyncio.TimeoutError:
            self.stats.timeouts += 1
            return "retry", 0.0
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            self.stats.connection_errors += 1
            return "retry", 0.0
        except (ValueError, asyncio.LimitOverrunError):
            # Garbled response (possibly the response_corrupt channel):
            # the ack is unreadable, so treat as undelivered and retry
            # into the idempotent server.
            self.stats.corrupt_responses += 1
            return "retry", 0.0
        try:
            retry_after = float(headers.get("retry-after", "0") or "0")
        except ValueError:
            retry_after = 0.0
        if status == 200:
            return payload.get("status", "ingested"), 0.0
        if status == 429:
            self.stats.shed_429 += 1
            return "retry", retry_after
        if status == 503:
            self.stats.unavailable_503 += 1
            return "retry", retry_after
        if status >= 500:
            self.stats.server_errors += 1
            return "retry", retry_after
        # 4xx other than shedding: the batch itself is malformed.
        return "fatal", 0.0

    async def _exchange(self, method, path, body="", batch_id=None,
                        attempt=0):
        """One request on the kept-alive connection; returns the reply's
        ``(head_text, body_text)``.

        The reply is framed by its ``Content-Length``.  Anything short
        of a complete framed reply — and a reply that says
        ``Connection: close`` — drops the connection.  Uploads pass
        their *batch_id* and *attempt*, which key the reset and
        corruption fault channels.
        """
        faults = self.faults if batch_id is not None else None
        try:
            # EOF on an idle connection: the server closed it (a drain).
            if self._writer is None or self._reader.at_eof():
                self._drop()
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
            payload = body.encode("utf-8")
            lines = [
                f"{method} {path} HTTP/1.1",
                f"Host: {self.host}:{self.port}",
            ]
            if payload:
                lines += ["Content-Type: application/json",
                          f"Content-Length: {len(payload)}"]
            if self.tenant is not None:
                lines.append(f"X-Tenant: {self.tenant}")
            self._writer.write(
                ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                + payload
            )
            await self._writer.drain()
            if (faults is not None
                    and faults.connection_reset_fault(batch_id, attempt)):
                # Reset after the request is on the wire: the server
                # may well have ingested it — the ambiguous failure
                # idempotency exists for.
                self.stats.injected_resets += 1
                raise ConnectionResetError("injected reset mid-exchange")
            head = (await self._reader.readuntil(b"\r\n\r\n")).decode(
                "latin-1"
            )
            _, headers = _parse_head(head)
            length = headers.get("content-length", "")
            if not length.isdigit():
                raise ValueError(f"unframed response: {head!r}")
            raw = await self._reader.readexactly(int(length))
        except BaseException:
            self._drop()
            raise
        if headers.get("connection", "").lower() == "close":
            self._drop()
        text = head + raw.decode("utf-8", errors="replace")
        if faults is not None:
            text = faults.corrupt_response(text, batch_id, attempt)
        head, _, body_text = text.partition("\r\n\r\n")
        return head, body_text

    def _drop(self):
        """Forget the connection; the next request opens a new one."""
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None

    async def close(self):
        """Close the kept-alive connection (safe to call repeatedly)."""
        writer = self._writer
        self._drop()
        if writer is not None:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------ queries

    async def get(self, path):
        """GET *path*; returns the decoded JSON payload."""
        _, body_text = await self.get_raw(path)
        return json.loads(body_text)

    async def get_raw(self, path):
        """GET *path*; returns ``(head_text, body_text)`` undecoded.

        The raw form serves non-JSON endpoints (``/metrics``) and
        tests that assert on headers.
        """
        return await self._exchange("GET", path)


def _parse_head(head):
    """``(status, lower-cased headers)`` of a response head."""
    lines = head.rstrip("\r\n").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ValueError(f"malformed response: {lines[0]!r}")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(parts[1]), headers
