"""HTTP/JSON front door over an asyncio overlay (stdlib only).

``repro serve`` turns the reproduction from a library into a service:
an :class:`~repro.runtime.aio.AioOverlay` of UDP-socketed nodes behind a
small HTTP/1.1 server. Clients POST constraint payloads to ``/query``
and receive the matched node descriptors; ``/healthz`` and ``/metrics``
(Prometheus exposition) make it operable.

Backpressure is explicit and bounded, in the spirit of the paper's
argument that the *system* — not a central registry — should absorb
load:

* a **bounded admission gate** (``max_pending``): once that many
  requests are in flight the server answers ``429`` immediately instead
  of queueing without bound;
* a **per-client concurrency limit**: one greedy client (keyed by peer
  IP) cannot monopolise the admission slots;
* a **request timeout**: a query that outlives ``request_timeout``
  answers ``504`` and releases its slot;
* **graceful drain** on SIGTERM: new work is refused with ``503`` while
  in-flight requests finish (up to ``drain_grace`` seconds), then the
  listener closes.

Everything here is standard-library asyncio; there is no web framework
and no new dependency.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.query import Query
from repro.util.errors import ConfigurationError, HostDownError
from repro.obs.export import prometheus_text
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.runtime.aio import MAX_RECV, AioOverlay

#: Hard cap on request bodies; constraint payloads are tiny.
MAX_BODY = 1 << 20
#: Hard cap on a request line / header line.
MAX_LINE = 8 << 10
#: Hard cap on header count per request.
MAX_HEADERS = 64

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class ServeConfig:
    """Tunables of the HTTP front door."""

    #: Interface the TCP listener binds.
    host: str = "127.0.0.1"
    #: TCP port (0 = ephemeral, the bound port is on ``HttpServer.port``).
    port: int = 0
    #: Admission gate: max requests in flight server-wide before 429.
    max_pending: int = 64
    #: Max concurrent requests per client IP before 429.
    per_client_limit: int = 8
    #: Seconds a single query may run before 504.
    request_timeout: float = 10.0
    #: Seconds the drain waits for in-flight requests before closing.
    drain_grace: float = 10.0
    #: ``Retry-After`` hint (seconds, rounded up on the wire) attached to
    #: 429 and 504 responses so well-behaved clients back off.
    retry_after: float = 1.0


class HttpError(Exception):
    """An error that maps straight to an HTTP status response."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


def query_from_payload(schema, payload: Dict[str, Any]) -> Query:
    """Build a :class:`Query` from a JSON ``constraints`` mapping.

    Numeric attributes take two-element ``[low, high]`` arrays with
    ``null`` for an open end; categorical attributes take arrays of
    labels. Unknown attributes and malformed ranges raise
    :class:`HttpError` 400.
    """
    constraints = payload.get("constraints", {})
    if not isinstance(constraints, dict):
        raise HttpError(400, "'constraints' must be an object")
    specs: Dict[str, Any] = {}
    for name, spec in constraints.items():
        try:
            definition = schema.definition(name)
        except (ConfigurationError, KeyError) as exc:
            raise HttpError(400, f"unknown attribute {name!r}") from exc
        if definition.is_categorical:
            if not isinstance(spec, list) or not spec:
                raise HttpError(
                    400, f"categorical {name!r} takes a non-empty label array"
                )
            specs[name] = list(spec)
        else:
            if (
                not isinstance(spec, list)
                or len(spec) != 2
                or any(
                    value is not None and not isinstance(value, (int, float))
                    for value in spec
                )
            ):
                raise HttpError(
                    400, f"numeric {name!r} takes a [low, high] array "
                    "(null = open end)"
                )
            specs[name] = (spec[0], spec[1])
    try:
        return Query.where(schema, **specs)
    except ConfigurationError as exc:
        raise HttpError(400, str(exc)) from exc


class OverlayQueryService:
    """Translates JSON query payloads into overlay queries."""

    def __init__(self, overlay: AioOverlay) -> None:
        self.overlay = overlay

    async def execute(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Run one query described by *payload* and return the JSON body."""
        query = query_from_payload(self.overlay.schema, payload)
        sigma = payload.get("sigma")
        if sigma is not None and not isinstance(sigma, int):
            raise HttpError(400, "'sigma' must be an integer or null")
        origin = payload.get("origin")
        if origin is not None:
            if not isinstance(origin, int) or origin not in self.overlay.hosts:
                raise HttpError(400, f"unknown origin {origin!r}")
        started = time.perf_counter()
        try:
            found = await self.overlay.execute_query(
                query, sigma=sigma, origin=origin
            )
        except HostDownError as exc:
            raise HttpError(400, str(exc)) from exc
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        return {
            "count": len(found),
            "matches": [
                {
                    "address": descriptor.address,
                    "values": {
                        definition.name: descriptor.values[index]
                        for index, definition in enumerate(
                            self.overlay.schema.definitions
                        )
                    },
                }
                for descriptor in sorted(found, key=lambda d: d.address)
            ],
            "elapsed_ms": round(elapsed_ms, 3),
        }

    def health(self) -> Dict[str, Any]:
        """Liveness payload: host counts of the underlying overlay."""
        alive = sum(1 for host in self.overlay.hosts.values() if host.alive)
        return {"hosts": len(self.overlay.hosts), "alive": alive}


class HttpServer:
    """A bounded, drainable HTTP/1.1 server over one query service."""

    def __init__(
        self,
        service: OverlayQueryService,
        config: Optional[ServeConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.service = service
        self.config = config or ServeConfig()
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.draining = False
        self.inflight = 0
        self.per_client: Dict[str, int] = {}
        self._idle = asyncio.Event()
        self._idle.set()
        self._server: Optional[asyncio.base_events.Server] = None
        self.port: Optional[int] = None
        self._m_requests = {
            status: self.registry.counter("http.responses", status=status)
            for status in _REASONS
        }
        self._m_rejected_full = self.registry.counter(
            "http.rejected", reason="queue_full"
        )
        self._m_rejected_client = self.registry.counter(
            "http.rejected", reason="client_limit"
        )
        self._m_rejected_drain = self.registry.counter(
            "http.rejected", reason="draining"
        )
        self._m_timeouts = self.registry.counter("http.timeouts")
        self._m_latency = self.registry.histogram("http.latency_ms")
        #: Admission-gate queue depth, exported so /metrics shows how
        #: full the gate is at scrape time (http_inflight).
        self._m_inflight = self.registry.gauge("http.inflight")

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Bind the TCP listener (``self.port`` holds the bound port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def install_signal_handlers(self) -> None:
        """Drain gracefully on SIGTERM/SIGINT (event-loop thread only)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(self.drain())
            )

    async def drain(self) -> None:
        """Refuse new work, wait for in-flight requests, close the listener.

        Deterministic drain-or-reject, mirroring the runtimes: after this
        returns, every admitted request has completed (or the grace
        period expired) and the listener is closed; every request that
        arrived during the drain got an explicit ``503``.
        """
        if self.draining:
            return
        self.draining = True
        try:
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.config.drain_grace
            )
        except asyncio.TimeoutError:
            pass
        await self.close()

    async def close(self) -> None:
        """Close the TCP listener immediately."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_until_closed(self) -> None:
        """Block until the listener closes (i.e. until a drain finishes)."""
        if self._server is not None:
            try:
                await self._server.serve_forever()
            except asyncio.CancelledError:
                pass

    # -- request handling -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # asyncio's default 256 KiB read can cost an mmap per recv; read
        # at most MAX_RECV, as every host's UDP socket does.
        writer.transport.max_size = MAX_RECV
        peer = writer.get_extra_info("peername")
        client = peer[0] if peer else "unknown"
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "keep-alive") != "close"
                status, payload, extra_headers = await self._dispatch(
                    client, method, path, body
                )
                self._m_requests.get(
                    status, self._m_requests[500]
                ).inc()
                await self._write_response(
                    writer, status, payload, keep_alive=keep_alive,
                    extra_headers=extra_headers,
                )
                if not keep_alive:
                    break
        except HttpError as exc:
            # A framing error: answer it, then close the untrusted stream.
            self._m_requests[exc.status].inc()
            try:
                await self._write_response(
                    writer, exc.status, {"error": exc.detail}, keep_alive=False
                )
            except (ConnectionError, OSError):
                pass
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        try:
            line = await reader.readline()
        except (ValueError, ConnectionError):
            raise HttpError(400, "request line too long")
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) != 3:
            raise HttpError(400, "malformed request line")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(raw) > MAX_LINE or len(headers) >= MAX_HEADERS:
                raise HttpError(400, "headers too large")
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        if not (declared.isascii() and declared.isdecimal()):
            raise HttpError(400, "Content-Length must be a decimal integer")
        length = int(declared)
        if length > MAX_BODY:
            raise HttpError(413, "body too large")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    def _retry_headers(self) -> Dict[str, str]:
        """The backoff hint attached to 429/504 responses."""
        seconds = max(1, int(-(-self.config.retry_after // 1)))
        return {"Retry-After": str(seconds)}

    async def _dispatch(
        self, client: str, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        path = path.split("?", 1)[0]
        if path == "/healthz":
            health = dict(self.service.health())
            health["draining"] = self.draining
            health["inflight"] = self.inflight
            status = 503 if self.draining else 200
            health["status"] = "draining" if self.draining else "ok"
            return status, health, {}
        if path == "/metrics":
            return 200, {"_raw": prometheus_text(self.registry.snapshot())}, {}
        if path != "/query":
            return 404, {"error": f"no such route {path!r}"}, {}
        if method != "POST":
            return 405, {"error": "POST /query"}, {}
        if self.draining:
            self._m_rejected_drain.inc()
            return 503, {"error": "draining"}, self._retry_headers()
        if self.inflight >= self.config.max_pending:
            self._m_rejected_full.inc()
            return (
                429,
                {
                    "error": "server at capacity",
                    "retry_after": self.config.retry_after,
                },
                self._retry_headers(),
            )
        if self.per_client.get(client, 0) >= self.config.per_client_limit:
            self._m_rejected_client.inc()
            return (
                429,
                {
                    "error": "per-client limit",
                    "retry_after": self.config.retry_after,
                },
                self._retry_headers(),
            )
        self.inflight += 1
        self._m_inflight.set(self.inflight)
        self.per_client[client] = self.per_client.get(client, 0) + 1
        self._idle.clear()
        started = time.perf_counter()
        try:
            try:
                payload = json.loads(body or b"{}")
                if not isinstance(payload, dict):
                    raise HttpError(400, "body must be a JSON object")
            except json.JSONDecodeError as exc:
                raise HttpError(400, f"invalid JSON: {exc}") from exc
            result = await asyncio.wait_for(
                self.service.execute(payload),
                timeout=self.config.request_timeout,
            )
            return 200, result, {}
        except asyncio.TimeoutError:
            self._m_timeouts.inc()
            return 504, {"error": "query timed out"}, self._retry_headers()
        except HttpError as exc:
            return exc.status, {"error": exc.detail}, {}
        except Exception as exc:  # noqa: BLE001 - a request must not kill the server
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, {}
        finally:
            self._m_latency.observe((time.perf_counter() - started) * 1000.0)
            self.inflight -= 1
            self._m_inflight.set(self.inflight)
            remaining = self.per_client.get(client, 1) - 1
            if remaining <= 0:
                self.per_client.pop(client, None)
            else:
                self.per_client[client] = remaining
            if self.inflight == 0:
                self._idle.set()

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        keep_alive: bool,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        if "_raw" in payload:
            body = payload["_raw"].encode()
            content_type = "text/plain; version=0.0.4"
        else:
            body = json.dumps(payload).encode()
            content_type = "application/json"
        reason = _REASONS.get(status, "Unknown")
        extras = "".join(
            f"{name}: {value}\r\n"
            for name, value in (extra_headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"{extras}"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[Dict[str, Any]] = None,
) -> Tuple[int, Any]:
    """A minimal one-shot HTTP client (tests, smoke runs, benchmarks).

    Returns ``(status, parsed_body)``; the body is JSON-decoded when the
    response declares ``application/json``, raw text otherwise.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await request_on_connection(
            reader, writer, method, path, body, keep_alive=False
        )
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def request_on_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    body: Optional[Dict[str, Any]] = None,
    keep_alive: bool = True,
    return_headers: bool = False,
) -> Any:
    """Issue one request on an already-open connection (keep-alive).

    Returns ``(status, parsed_body)``, or ``(status, parsed_body,
    headers)`` with lower-cased header names when *return_headers* is
    set (tests assert on ``Retry-After`` and friends).
    """
    raw = json.dumps(body).encode() if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: repro\r\n"
        f"Content-Length: {len(raw)}\r\n"
        "Content-Type: application/json\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    writer.write(head.encode("latin-1") + raw)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    payload = await reader.readexactly(length) if length else b""
    if headers.get("content-type", "").startswith("application/json"):
        parsed: Any = json.loads(payload or b"{}")
    else:
        parsed = payload.decode()
    if return_headers:
        return status, parsed, headers
    return status, parsed


async def serve_overlay(
    overlay: AioOverlay,
    config: Optional[ServeConfig] = None,
    registry: Optional[MetricsRegistry] = None,
) -> HttpServer:
    """Start an :class:`HttpServer` fronting *overlay* and return it."""
    server = HttpServer(
        OverlayQueryService(overlay), config=config, registry=registry
    )
    await server.start()
    return server
