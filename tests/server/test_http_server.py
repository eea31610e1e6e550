"""Tests for the HTTP front door: routes, backpressure, drain.

The backpressure tests use an injected slow service whose completion is
gated by the test, so queue-full, per-client-limit, timeout and drain
behaviour are exercised deterministically — no sleeps racing real
queries.
"""

import asyncio
import json

import pytest

from repro.core.attributes import AttributeSchema, numeric
from repro.obs.registry import MetricsRegistry
from repro.runtime.aio import AioOverlay
from repro.server import (
    MAX_BODY,
    HttpError,
    HttpServer,
    OverlayQueryService,
    ServeConfig,
    http_request,
    query_from_payload,
    request_on_connection,
    serve_overlay,
)
from repro.workloads.distributions import uniform_sampler


@pytest.fixture
def schema():
    return AttributeSchema.regular(
        [numeric("cpu", 0, 80), numeric("mem", 0, 80)], max_level=3
    )


class _GatedService:
    """A query service whose responses are released by the test."""

    def __init__(self) -> None:
        self.gate = asyncio.Event()
        self.calls = 0

    async def execute(self, payload):
        self.calls += 1
        await self.gate.wait()
        return {"ok": True, "echo": payload}

    def health(self):
        return {"hosts": 0, "alive": 0}


async def _start(service, **config):
    server = HttpServer(
        service, config=ServeConfig(port=0, **config),
        registry=MetricsRegistry(),
    )
    await server.start()
    return server


class TestPayloadParsing:
    def test_numeric_and_open_ranges(self, schema):
        query = query_from_payload(
            schema, {"constraints": {"cpu": [10, None], "mem": [None, 50]}}
        )
        assert query.matches_mapping({"cpu": 30, "mem": 30})
        assert not query.matches_mapping({"cpu": 5, "mem": 30})
        assert not query.matches_mapping({"cpu": 30, "mem": 70})

    def test_rejections(self, schema):
        for bad in [
            {"constraints": {"nope": [1, 2]}},
            {"constraints": {"cpu": "wide"}},
            {"constraints": {"cpu": [1, 2, 3]}},
            {"constraints": {"cpu": ["a", "b"]}},
            {"constraints": []},
        ]:
            with pytest.raises(HttpError) as err:
                query_from_payload(schema, bad)
            assert err.value.status == 400


class TestRoutes:
    def test_query_health_metrics_and_404(self, schema):
        async def scenario():
            registry = MetricsRegistry()
            async with AioOverlay(
                schema, seed=21, registry=registry
            ) as overlay:
                await overlay.populate(uniform_sampler(schema), 24)
                overlay.bootstrap()
                server = await serve_overlay(
                    overlay, ServeConfig(port=0), registry
                )
                try:
                    status, body = await http_request(
                        "127.0.0.1", server.port, "POST", "/query",
                        {"constraints": {"cpu": [0, None]}},
                    )
                    expected = len(overlay.matching_descriptors(
                        query_from_payload(
                            schema, {"constraints": {"cpu": [0, None]}}
                        )
                    ))
                    health = await http_request(
                        "127.0.0.1", server.port, "GET", "/healthz"
                    )
                    metrics = await http_request(
                        "127.0.0.1", server.port, "GET", "/metrics"
                    )
                    missing = await http_request(
                        "127.0.0.1", server.port, "GET", "/nope"
                    )
                    bad = await http_request(
                        "127.0.0.1", server.port, "POST", "/query",
                        {"constraints": {"bogus": [1, 2]}},
                    )
                    return status, body, expected, health, metrics, bad, missing
                finally:
                    await server.close()

        status, body, expected, health, metrics, bad, missing = asyncio.run(
            scenario()
        )
        assert status == 200
        assert body["count"] == expected == len(body["matches"])
        assert all("address" in match for match in body["matches"])
        assert health[0] == 200 and health[1]["status"] == "ok"
        assert metrics[0] == 200
        assert "aio_datagrams_sent" in metrics[1]
        assert "http_latency_ms" in metrics[1]
        assert missing[0] == 404
        assert bad[0] == 400

    def test_crashed_origin_is_400(self, schema):
        """A down origin gets a typed 400, not a timeout or an empty 200."""

        async def scenario():
            registry = MetricsRegistry()
            async with AioOverlay(schema, seed=21) as overlay:
                await overlay.populate(uniform_sampler(schema), 16)
                overlay.bootstrap()
                overlay.hosts[5].crash()
                server = await serve_overlay(
                    overlay, ServeConfig(port=0, request_timeout=2.0),
                    registry,
                )
                try:
                    response = await http_request(
                        "127.0.0.1", server.port, "POST", "/query",
                        {"constraints": {}, "origin": 5},
                    )
                finally:
                    await server.close()
            return response, registry.snapshot()["counters"]

        (status, body), counters = asyncio.run(scenario())
        assert status == 400
        assert body == {"error": "origin 5 is down"}
        assert counters["http.responses{status=400}"] == 1

    def test_malformed_json_is_400(self, schema):
        async def scenario():
            service = _GatedService()
            server = await _start(service)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                raw = b"not json"
                writer.write(
                    b"POST /query HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(raw), raw)
                )
                await writer.drain()
                line = await reader.readline()
                writer.close()
                return int(line.split()[1]), service.calls

            finally:
                await server.close()

        status, calls = asyncio.run(scenario())
        assert status == 400
        assert calls == 0

    def test_framing_errors_are_answered_with_their_status(self):
        requests = [
            b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
            % (MAX_BODY + 1),
            b"GET /healthz\r\n\r\n",
            b"POST /query HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}",
            b"POST /query HTTP/1.1\r\nContent-Length: -1\r\n\r\n{}",
        ]

        async def scenario():
            escaped = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: escaped.append(context)
            )
            service = _GatedService()
            server = await _start(service)
            try:
                lines = []
                for raw in requests:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(raw)
                    await writer.drain()
                    lines.append(await reader.readline())
                    writer.close()
                    await writer.wait_closed()
                snapshot = server.registry.snapshot()
                return lines, escaped, service.calls, snapshot
            finally:
                await server.close()

        lines, escaped, calls, snapshot = asyncio.run(scenario())
        assert [line.split()[1] for line in lines] == [
            b"413", b"400", b"400", b"400",
        ]
        assert escaped == []
        assert calls == 0
        counters = snapshot["counters"]
        assert counters["http.responses{status=413}"] == 1
        assert counters["http.responses{status=400}"] == 3


class TestLargeBody:
    def test_a_body_of_max_body_bytes_arrives_whole(self):
        """Reads of at most 64 KiB still assemble a MAX_BODY request."""

        async def scenario():
            service = _GatedService()
            service.gate.set()
            server = await _start(service)
            try:
                pad = "x" * (MAX_BODY - len(json.dumps({"pad": ""})))
                assert len(json.dumps({"pad": pad})) == MAX_BODY
                return await http_request(
                    "127.0.0.1", server.port, "POST", "/query", {"pad": pad}
                ), pad
            finally:
                await server.close()

        (status, body), pad = asyncio.run(scenario())
        assert status == 200
        assert body["echo"]["pad"] == pad


class TestBackpressure:
    def test_queue_full_answers_429(self):
        async def scenario():
            service = _GatedService()
            server = await _start(
                service, max_pending=2, per_client_limit=10
            )
            try:
                blocked = [
                    asyncio.create_task(http_request(
                        "127.0.0.1", server.port, "POST", "/query", {}
                    ))
                    for _ in range(2)
                ]
                while service.calls < 2:
                    await asyncio.sleep(0.01)
                overflow_status, overflow = await http_request(
                    "127.0.0.1", server.port, "POST", "/query", {}
                )
                service.gate.set()
                results = await asyncio.gather(*blocked)
                return overflow_status, overflow, results
            finally:
                await server.close()

        overflow_status, overflow, results = asyncio.run(scenario())
        assert overflow_status == 429
        assert "retry_after" in overflow
        assert [status for status, _ in results] == [200, 200]

    def test_per_client_limit_answers_429(self):
        async def scenario():
            service = _GatedService()
            server = await _start(
                service, max_pending=10, per_client_limit=1
            )
            try:
                first = asyncio.create_task(http_request(
                    "127.0.0.1", server.port, "POST", "/query", {}
                ))
                while service.calls < 1:
                    await asyncio.sleep(0.01)
                second_status, _ = await http_request(
                    "127.0.0.1", server.port, "POST", "/query", {}
                )
                service.gate.set()
                first_status, _ = await first
                return first_status, second_status
            finally:
                await server.close()

        first_status, second_status = asyncio.run(scenario())
        assert first_status == 200
        assert second_status == 429

    def test_slow_query_answers_504_and_releases_slot(self):
        async def scenario():
            service = _GatedService()  # never released: guaranteed timeout
            server = await _start(
                service, max_pending=1, request_timeout=0.1
            )
            try:
                timeout_status, _ = await http_request(
                    "127.0.0.1", server.port, "POST", "/query", {}
                )
                # The slot must be free again: a fresh request is admitted
                # (and times out too, rather than being rejected 429).
                followup_status, _ = await http_request(
                    "127.0.0.1", server.port, "POST", "/query", {}
                )
                return timeout_status, followup_status, server.inflight
            finally:
                await server.close()

        timeout_status, followup_status, inflight = asyncio.run(scenario())
        assert timeout_status == 504
        assert followup_status == 504
        assert inflight == 0


class TestRetryAfter:
    """429 and 504 responses must carry a Retry-After header (S2)."""

    @staticmethod
    async def _raw_request(port, method="POST", path="/query", body=None):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            return await request_on_connection(
                reader, writer, method, path, body if body is not None else {},
                keep_alive=False, return_headers=True,
            )
        finally:
            writer.close()

    def test_queue_full_429_has_retry_after(self):
        async def scenario():
            service = _GatedService()
            server = await _start(
                service, max_pending=1, per_client_limit=10, retry_after=2.5
            )
            try:
                blocked = asyncio.create_task(http_request(
                    "127.0.0.1", server.port, "POST", "/query", {}
                ))
                while service.calls < 1:
                    await asyncio.sleep(0.01)
                status, _, headers = await self._raw_request(server.port)
                service.gate.set()
                await blocked
                return status, headers
            finally:
                await server.close()

        status, headers = asyncio.run(scenario())
        assert status == 429
        # Retry-After is integer seconds, rounded up from the config.
        assert headers["retry-after"] == "3"

    def test_per_client_429_has_retry_after(self):
        async def scenario():
            service = _GatedService()
            server = await _start(
                service, max_pending=10, per_client_limit=1
            )
            try:
                blocked = asyncio.create_task(http_request(
                    "127.0.0.1", server.port, "POST", "/query", {}
                ))
                while service.calls < 1:
                    await asyncio.sleep(0.01)
                status, _, headers = await self._raw_request(server.port)
                service.gate.set()
                await blocked
                return status, headers
            finally:
                await server.close()

        status, headers = asyncio.run(scenario())
        assert status == 429
        assert headers["retry-after"] == "1"

    def test_timeout_504_has_retry_after(self):
        async def scenario():
            service = _GatedService()  # never released: guaranteed timeout
            server = await _start(service, request_timeout=0.05)
            try:
                return await self._raw_request(server.port)
            finally:
                await server.close()

        status, _, headers = asyncio.run(scenario())
        assert status == 504
        assert headers["retry-after"] == "1"

    def test_success_has_no_retry_after(self):
        async def scenario():
            service = _GatedService()
            service.gate.set()
            server = await _start(service)
            try:
                return await self._raw_request(server.port)
            finally:
                await server.close()

        status, _, headers = asyncio.run(scenario())
        assert status == 200
        assert "retry-after" not in headers

    def test_metrics_export_admission_queue_depth(self):
        async def scenario():
            service = _GatedService()
            server = await _start(service)
            try:
                blocked = [
                    asyncio.create_task(http_request(
                        "127.0.0.1", server.port, "POST", "/query", {}
                    ))
                    for _ in range(2)
                ]
                while service.calls < 2:
                    await asyncio.sleep(0.01)
                _, busy = await http_request(
                    "127.0.0.1", server.port, "GET", "/metrics"
                )
                service.gate.set()
                await asyncio.gather(*blocked)
                _, idle = await http_request(
                    "127.0.0.1", server.port, "GET", "/metrics"
                )
                return busy, idle
            finally:
                await server.close()

        busy, idle = asyncio.run(scenario())
        assert "http_inflight 2" in busy
        assert "http_inflight 0" in idle


class TestDrain:
    def test_drain_rejects_new_work_and_waits_for_inflight(self):
        async def scenario():
            service = _GatedService()
            server = await _start(service, drain_grace=5.0)
            try:
                inflight = asyncio.create_task(http_request(
                    "127.0.0.1", server.port, "POST", "/query", {}
                ))
                while service.calls < 1:
                    await asyncio.sleep(0.01)
                drain = asyncio.create_task(server.drain())
                await asyncio.sleep(0.05)
                rejected_status, _ = await http_request(
                    "127.0.0.1", server.port, "POST", "/query", {}
                )
                health_status, health = await http_request(
                    "127.0.0.1", server.port, "GET", "/healthz"
                )
                assert not drain.done()  # still waiting on the in-flight one
                service.gate.set()
                inflight_status, _ = await inflight
                await drain
                refused = False
                try:
                    await http_request(
                        "127.0.0.1", server.port, "GET", "/healthz"
                    )
                except (ConnectionError, OSError):
                    refused = True
                return (
                    rejected_status, health_status, health,
                    inflight_status, refused,
                )
            finally:
                await server.close()

        rejected_status, health_status, health, inflight_status, refused = (
            asyncio.run(scenario())
        )
        assert rejected_status == 503
        assert health_status == 503
        assert health["status"] == "draining"
        assert inflight_status == 200  # admitted work finished during drain
        assert refused  # listener is closed after the drain


class TestDrainUnderLoss:
    """S4: SIGTERM drain with in-flight queries over a lossy transport.

    Every admitted request must resolve deterministically — a real
    answer, a 503 (drain), or a 504 (timeout) — and the drain itself
    must finish; no request may hang on a future the drain abandoned.
    """

    def test_sigterm_drains_cleanly_with_injected_loss(self, schema):
        import os
        import signal

        from repro.faults.model import FaultSchedule, LinkLossFault
        from repro.util.rng import derive_rng

        async def scenario():
            registry = MetricsRegistry()
            async with AioOverlay(
                schema, seed=61, registry=registry
            ) as overlay:
                await overlay.populate(uniform_sampler(schema), 24)
                overlay.bootstrap()
                overlay.install_faults(
                    FaultSchedule().add(LinkLossFault({}, default=0.2)),
                    derive_rng(61, "drain-test"),
                )
                server = await serve_overlay(
                    overlay,
                    ServeConfig(
                        port=0, request_timeout=2.0, drain_grace=8.0,
                        max_pending=16, per_client_limit=16,
                    ),
                    registry,
                )
                server.install_signal_handlers()
                try:
                    requests = [
                        asyncio.create_task(http_request(
                            "127.0.0.1", server.port, "POST", "/query",
                            {"constraints": {"cpu": [0, None]}},
                        ))
                        for _ in range(6)
                    ]
                    while server.inflight == 0:
                        await asyncio.sleep(0.005)
                    os.kill(os.getpid(), signal.SIGTERM)
                    # Every request resolves within a hard bound: no
                    # request may outlive the drain as a hung future.
                    statuses = [
                        status for status, _ in await asyncio.wait_for(
                            asyncio.gather(*requests), timeout=15.0
                        )
                    ]
                    while server._server is not None:
                        await asyncio.sleep(0.02)
                    refused = False
                    try:
                        await http_request(
                            "127.0.0.1", server.port, "GET", "/healthz"
                        )
                    except (ConnectionError, OSError):
                        refused = True
                    return statuses, refused, server.inflight
                finally:
                    await server.close()

        statuses, refused, inflight = asyncio.run(scenario())
        assert len(statuses) == 6
        assert all(status in (200, 503, 504) for status in statuses)
        assert refused  # the listener really closed after the drain
        assert inflight == 0


class TestServeBenchmark:
    def test_smoke_benchmark_delivers_everything(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.serve_smoke import run_serve_smoke

        row = asyncio.run(run_serve_smoke(
            ExperimentConfig(network_size=24, seed=5, dimensions=3),
            40,
            8,
            ServeConfig(port=0, max_pending=64, per_client_limit=8),
            MetricsRegistry(),
        ))
        assert row == {
            "queries": 40, "delivered": 1.0, "errors": 0, "drained": True
        }

    def test_smoke_honours_dimensions(self, monkeypatch, capsys):
        """``repro serve --smoke`` used to hard-code a 3-attribute schema."""
        from repro import cli

        served = []
        populate = AioOverlay.populate

        async def spy(overlay, sampler, count):
            served.append(overlay.schema)
            return await populate(overlay, sampler, count)

        monkeypatch.setattr(AioOverlay, "populate", spy)
        code = cli.main([
            "serve", "--size", "16", "--smoke", "20", "--concurrency", "4",
            "--seed", "5", "--dimensions", "2",
        ])
        assert code == 0
        assert "smoke: OK" in capsys.readouterr().out
        assert [len(schema.definitions) for schema in served] == [2]
