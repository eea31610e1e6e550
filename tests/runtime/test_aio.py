"""Tests for the asyncio runtime: real UDP sockets, real loop timers.

Includes the parity test: on a converged seeded overlay every query,
from every origin, must return exactly the brute-force matched set, and
the same seed must build the same population twice.
"""

import asyncio
import socket

import pytest

from repro.core.attributes import AttributeSchema, numeric
from repro.core.query import Query
from repro.gossip.maintenance import GossipConfig
from repro.gossip.messages import CyclonRequest
from repro.obs.registry import MetricsRegistry
from repro.runtime.aio import AioOverlay
from repro.util.errors import HostDownError
from repro.workloads.distributions import uniform_sampler


@pytest.fixture
def schema():
    return AttributeSchema.regular(
        [numeric("cpu", 0, 80), numeric("mem", 0, 80)], max_level=3
    )


QUERIES = [
    dict(cpu=(40, None)),
    dict(mem=(None, 30)),
    dict(cpu=(20, 60), mem=(20, 60)),
    dict(),
]


class TestRuntimeParity:
    def test_exact_matched_sets_and_seeded_population(self, schema):
        """Every (query, origin) is exact; same seed => same population."""
        seed, count = 1234, 48
        origins = [0, 7, 31]

        async def run_aio():
            async with AioOverlay(schema, seed=seed) as overlay:
                await overlay.populate(uniform_sampler(schema), count)
                overlay.bootstrap()
                descriptors = {
                    address: host.node.descriptor
                    for address, host in overlay.hosts.items()
                }
                matched, expected = {}, {}
                for qi, spec in enumerate(QUERIES):
                    query = Query.where(schema, **spec)
                    for origin in origins:
                        found = await overlay.execute_query(
                            query, origin=origin, timeout=30.0
                        )
                        matched[(qi, origin)] = sorted(
                            d.address for d in found
                        )
                        expected[(qi, origin)] = sorted(
                            d.address
                            for d in overlay.matching_descriptors(query)
                        )
                return descriptors, matched, expected

        descriptors, matched, expected = asyncio.run(run_aio())
        descriptors_again, _, _ = asyncio.run(run_aio())

        # All 12 matched sets equal brute force over the overlay's own
        # population, whichever node the query entered at.
        assert len(matched) == len(QUERIES) * len(origins)
        assert matched == expected
        assert len(matched[(3, 0)]) == count  # the full-space query

        # Identical populations from one seed: same RNG stream, same
        # addresses, same attribute values and coordinates — bit for bit.
        assert set(descriptors_again) == set(descriptors)
        for address, descriptor in descriptors.items():
            other = descriptors_again[address]
            assert descriptor.values == other.values
            assert descriptor.coordinates == other.coordinates


class TestAioOverlay:
    def test_crashed_origin_refuses_the_query(self, schema):
        """A crashed host raises instead of timing out into ``[]``."""

        async def scenario():
            async with AioOverlay(
                schema, seed=7, registry=MetricsRegistry()
            ) as overlay:
                await overlay.populate(uniform_sampler(schema), 16)
                overlay.bootstrap()
                overlay.hosts[5].crash()
                sent = overlay.metrics.datagrams_sent.value
                with pytest.raises(HostDownError, match="origin 5 is down"):
                    await overlay.execute_query(
                        Query.where(schema), origin=5, timeout=2.0
                    )
                return sent, overlay.metrics.datagrams_sent.value

        sent_before, sent_after = asyncio.run(scenario())
        assert sent_after == sent_before

    def test_query_over_real_udp_sockets(self, schema):
        async def scenario():
            registry = MetricsRegistry()
            async with AioOverlay(
                schema, seed=7, registry=registry
            ) as overlay:
                await overlay.populate(uniform_sampler(schema), 32)
                overlay.bootstrap()
                query = Query.where(schema, cpu=(10, None))
                found = await overlay.execute_query(query, timeout=20.0)
                expected = {
                    d.address for d in overlay.matching_descriptors(query)
                }
                return (
                    {d.address for d in found},
                    expected,
                    registry.snapshot(),
                )

        found, expected, snapshot = asyncio.run(scenario())
        assert found == expected
        # The traffic really crossed sockets: datagrams were counted on
        # both sides of the wire.
        counters = snapshot["counters"]
        assert counters.get("aio.datagrams_sent", 0) > 0
        assert counters.get("aio.datagrams_received", 0) > 0

    def test_receive_buffer_is_capped_at_64k(self, schema):
        """asyncio's 256 KiB default made glibc mmap a buffer per datagram."""

        async def scenario():
            async with AioOverlay(schema, seed=7) as overlay:
                await overlay.populate(uniform_sampler(schema), 2)
                sizes = [host.udp.max_size for host in overlay.hosts.values()]
                return sizes, overlay.reliable.max_datagram

        sizes, max_datagram = asyncio.run(scenario())
        # Any UDP payload (<= 65,507 bytes) fits; 128 KiB is glibc's
        # default mmap threshold.
        assert all(65_507 <= size < 128 * 1024 for size in sizes)
        assert max_datagram <= 65_507

    def test_http_receive_buffer_is_capped_at_64k(self, schema):
        """The HTTP front door reads a request as a host reads a datagram."""
        from repro.server import (
            HttpServer, OverlayQueryService, ServeConfig, request_on_connection,
        )

        transports = []

        class RecordingServer(HttpServer):
            async def _handle_connection(self, reader, writer):
                transports.append(writer.transport)
                await super()._handle_connection(reader, writer)

        async def scenario():
            async with AioOverlay(schema, seed=7) as overlay:
                await overlay.populate(uniform_sampler(schema), 2)
                server = RecordingServer(
                    OverlayQueryService(overlay), ServeConfig(port=0)
                )
                await server.start()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                try:
                    status, _ = await request_on_connection(
                        reader, writer, "GET", "/healthz"
                    )
                    # Still open: the server side is read while it serves.
                    (transport,) = transports
                    return status, transport.is_closing(), transport.max_size
                finally:
                    writer.close()
                    await server.close()

        status, closing, size = asyncio.run(scenario())
        assert status == 200 and not closing
        assert 65_507 <= size < 128 * 1024

    def test_gossip_converges_over_udp(self, schema):
        async def scenario():
            gossip = GossipConfig(period=0.05, answer_timeout=0.5)
            async with AioOverlay(
                schema, seed=8, gossip_config=gossip
            ) as overlay:
                await overlay.populate(uniform_sampler(schema), 16)
                overlay.start_gossip(seeds_per_node=3)
                await asyncio.sleep(1.5)
                sizes = [
                    len(host.maintenance.cyclon.view)
                    for host in overlay.hosts.values()
                ]
                return sizes

        sizes = asyncio.run(scenario())
        assert all(size > 0 for size in sizes)

    def test_close_is_idempotent_and_silences_timers(self, schema):
        async def scenario():
            overlay = AioOverlay(schema, seed=9)
            host = await overlay.add_host({"cpu": 10, "mem": 10})
            fired = []
            host.transport.call_later(0.05, lambda: fired.append("late"))
            await overlay.close()
            await overlay.close()  # idempotent
            await asyncio.sleep(0.2)
            return fired

        assert asyncio.run(scenario()) == []


class TestHostileDatagrams:
    """Satellite: truncated/garbage-frame rejection on the UDP receive path."""

    def _blast(self, endpoint, frames):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            for frame in frames:
                sock.sendto(frame, endpoint)

    async def _wait_for(self, predicate, timeout=5.0):
        deadline = asyncio.get_running_loop().time() + timeout
        while not predicate():
            if asyncio.get_running_loop().time() > deadline:
                return False
            await asyncio.sleep(0.02)
        return True

    def test_garbage_and_truncated_frames_are_rejected_not_fatal(self, schema):
        async def scenario():
            async with AioOverlay(schema, seed=10) as overlay:
                await overlay.populate(uniform_sampler(schema), 8)
                overlay.bootstrap()
                victim = overlay.hosts[0]

                real = overlay.codec.encode(1, CyclonRequest(entries=()))
                hostile = [
                    b"",  # empty datagram
                    b"\x00",  # shorter than the header
                    b"not a frame at all, just text" * 3,
                    real[: len(real) - 1],  # truncated real frame
                    real[:7],  # truncated inside the header
                    b"\xff" * 64,  # alien magic
                    real + b"\x00",  # trailing garbage
                ]
                self._blast(victim.endpoint, hostile)
                arrived = await self._wait_for(
                    lambda: victim.rejected_frames >= len(hostile)
                )
                assert arrived, (
                    f"only {victim.rejected_frames} of "
                    f"{len(hostile)} hostile frames were rejected"
                )
                # Exactly the hostile frames were rejected — the real
                # frame would have been accepted, proving the counter
                # tracks rejection, not mere receipt.
                assert victim.rejected_frames == len(hostile)

                # The overlay still works after the attack.
                query = Query.where(schema)
                found = await overlay.execute_query(query, timeout=20.0)
                expected = {
                    d.address for d in overlay.matching_descriptors(query)
                }
                return {d.address for d in found}, expected

        found, expected = asyncio.run(scenario())
        assert found == expected

    def test_valid_frame_from_raw_socket_is_accepted(self, schema):
        async def scenario():
            registry = MetricsRegistry()
            async with AioOverlay(
                schema, seed=11, registry=registry
            ) as overlay:
                host = await overlay.add_host({"cpu": 10, "mem": 10})
                frame = overlay.codec.encode(999, CyclonRequest(entries=()))
                self._blast(host.endpoint, [frame])
                await self._wait_for(
                    lambda: registry.snapshot()["counters"].get(
                        "aio.datagrams_received", 0
                    )
                    >= 1
                )
                return host.rejected_frames

        # A well-formed frame is never counted as rejected (the node may
        # ignore an unexpected gossip message, but the codec accepts it).
        assert asyncio.run(scenario()) == 0
