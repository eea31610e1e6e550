"""Asyncio production runtime: every overlay node behind a real UDP socket.

This is the live runtime of the reproduction, the one that speaks
actual bytes. Each overlay node is an :class:`AioHost` that binds
its own UDP datagram socket; messages between nodes are real datagrams
framed by :class:`repro.core.codec.Codec`, timers are
``loop.call_later`` wall-clock timers, and the clock is the event loop's
monotonic clock — yet the protocol objects inside are the *identical*
:class:`~repro.core.node.ResourceNode` and
:class:`~repro.gossip.maintenance.TwoLayerMaintenance` the simulator
drives, behind a different :class:`~repro.core.transport.Transport`.
The paper's DAS-3 deployment ("20 processes per node on 50 nodes") maps
onto this runtime one process at a time; a single process can also
emulate a whole loopback overlay, which is what ``repro serve`` and
``repro chaos --runtime aio`` do.

Robustness is layered under the protocol, not into it: every outgoing
frame passes through a per-host
:class:`~repro.runtime.reliable.ReliableChannel` (fragmentation above
the datagram cap, optional ack/retransmit), every datagram the channel
emits passes through the overlay's optional :class:`FaultyTransport`
(the simulator's fault schedules judging real sockets), and each host
supports the crash/restart lifecycle of the simulator's ``SimHost``:
:meth:`AioHost.crash` kills the socket mid-run and bumps the host's
*incarnation* so stale timers die, :meth:`AioHost.restart` rejoins under
the same identity on a fresh port.

Because asyncio is single-threaded, no locks are needed: every datagram
receipt, timer callback and query completion runs on the event loop.

Everything random is drawn from seeded RNG streams of the overlay's own
(``runtime-population``, ``runtime-bootstrap``, ``runtime-seeds``,
``runtime-faults`` and ``runtime-host:<addr>``), so two overlays built
from the same seed hold bit-identical populations and routing tables.
"""

from __future__ import annotations

import asyncio
import random
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.attributes import AttributeSchema, AttributeValue
from repro.core.codec import Codec, CodecError, Fragment, FragmentAck
from repro.core.descriptors import Address, NodeDescriptor
from repro.core.health import HealthMonitor
from repro.core.node import NodeConfig, ResourceNode
from repro.core.observer import ProtocolObserver
from repro.core.query import Query
from repro.core.store import DescriptorStore, seed_tables
from repro.core.transport import TimerHandle, Transport
from repro.faults.model import FaultSchedule
from repro.gossip.maintenance import GossipConfig, TwoLayerMaintenance
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.runtime.reliable import ChannelMetrics, ReliableChannel, ReliableConfig
from repro.util.errors import HostDownError
from repro.util.rng import derive_rng

#: A UDP endpoint: ``(ip, port)``.
Endpoint = Tuple[str, int]

#: Loopback UDP caps a datagram at ~64 KiB; larger frames fragment
#: through the reliability layer (or are dropped and counted when
#: fragmentation is disabled).
MAX_DATAGRAM = 65_000

#: Largest read asked of the kernel per ``recv``. asyncio's default of
#: 256 KiB makes glibc, depending on what the heap freed earlier, mmap
#: and unmap a buffer per read: page faults on every receive. No UDP
#: datagram exceeds 64 KiB, and that stays below the mmap threshold.
MAX_RECV = 65_536


class AsyncioTransport(Transport):
    """Per-host :class:`Transport` over a real UDP socket and loop timers.

    ``send`` encodes the message with the shared codec and hands the
    frame to the host's reliability channel (which fragments, tracks and
    finally transmits datagrams to the receiver's endpoint); ``now`` is
    the event loop's monotonic clock; ``call_later``/``cancel`` map to
    ``loop.call_later`` handles, guarded so no callback runs after the
    owning host closed *or crashed and restarted* (each timer captures
    the host's incarnation at arm time).
    """

    __slots__ = ("host", "loop", "codec")

    def __init__(self, host: "AioHost", codec: Codec) -> None:
        self.host = host
        self.loop = host.loop
        self.codec = codec

    def send(self, sender: Address, receiver: Address, message: object) -> None:
        """Encode *message* and hand the frame to the reliability layer."""
        host = self.host
        if host.closed:
            host.overlay.metrics.unknown_receiver.inc()
            return
        frame = self.codec.encode(sender, message)
        host.channel.send_frame(receiver, frame)

    def now(self) -> float:
        """The event loop's monotonic clock, in seconds."""
        return self.loop.time()

    def call_later(
        self, delay: float, callback: Callable[..., None], *args: object
    ) -> TimerHandle:
        """Arm a wall-clock timer on the event loop."""
        return self.loop.call_later(
            max(0.0, delay), self._fire, self.host.incarnation, callback, args
        )

    def _fire(
        self, incarnation: int, callback: Callable[..., None], args: tuple
    ) -> None:
        """Run a timer unless its host closed, or restarted, since arming."""
        host = self.host
        if not host.closed and host.incarnation == incarnation:
            callback(*args)

    def cancel(self, handle: TimerHandle) -> None:
        """Cancel a ``loop.call_later`` handle (idempotent)."""
        if isinstance(handle, asyncio.TimerHandle):
            handle.cancel()


class FaultyTransport:
    """Datagram-level fault injector between the channels and the sockets.

    The single choke point every outgoing datagram of a faulted overlay
    passes through. Each datagram is judged by the same severity-
    parameterized :class:`~repro.faults.model.FaultSchedule` the
    simulator uses — drops vanish (counted), latency goes through real
    ``loop.call_later`` holds, duplicates transmit extra copies — so the
    scenarios of :mod:`repro.faults.scenarios` abuse real sockets with
    the identical fault model that drives the simulation.
    """

    __slots__ = ("schedule", "rng", "loop", "metrics")

    def __init__(
        self,
        schedule: FaultSchedule,
        rng: random.Random,
        loop: asyncio.AbstractEventLoop,
        metrics: "_OverlayMetrics",
    ) -> None:
        self.schedule = schedule
        self.rng = rng
        self.loop = loop
        self.metrics = metrics

    def transmit(self, host: "AioHost", receiver: Address, frame: bytes) -> None:
        """Judge one datagram and deliver the surviving (delayed) copies."""
        delivery = self.schedule.apply(
            host.address, receiver, frame, self.loop.time(), self.rng
        )
        if delivery.drop:
            self.metrics.injected_drops.inc()
            return
        delays = delivery.delays
        if len(delays) > 1:
            self.metrics.injected_duplicates.inc(len(delays) - 1)
        for delay in delays:
            if delay <= 0.0:
                host.sendto(receiver, frame)
            else:
                self.metrics.injected_delays.inc()
                self.loop.call_later(delay, host.sendto, receiver, frame)


class _NodeDatagramProtocol(asyncio.DatagramProtocol):
    """Receive loop of one host's UDP socket."""

    __slots__ = ("host",)

    def __init__(self, host: "AioHost") -> None:
        self.host = host

    def connection_made(self, transport) -> None:
        """Capture the datagram transport once the socket is bound."""
        self.host.udp = transport
        transport.max_size = MAX_RECV

    def datagram_received(self, data: bytes, addr: Endpoint) -> None:
        """Decode and dispatch one datagram (hostile bytes never escape)."""
        self.host.on_datagram(data)

    def error_received(self, exc: Exception) -> None:
        """Count ICMP-style transmission errors (e.g. a closed peer port)."""
        self.host.overlay.metrics.send_errors.inc()


class _OverlayMetrics:
    """The runtime's socket-layer counters, shared by all hosts."""

    __slots__ = (
        "datagrams_sent",
        "datagrams_received",
        "frames_rejected",
        "unknown_receiver",
        "send_errors",
        "injected_drops",
        "injected_delays",
        "injected_duplicates",
        "crashes",
        "restarts",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.datagrams_sent = registry.counter("aio.datagrams_sent")
        self.datagrams_received = registry.counter("aio.datagrams_received")
        self.frames_rejected = registry.counter("aio.frames_rejected")
        self.unknown_receiver = registry.counter("aio.unknown_receiver")
        self.send_errors = registry.counter("aio.send_errors")
        self.injected_drops = registry.counter(
            "aio.datagrams_injected", effect="drop"
        )
        self.injected_delays = registry.counter(
            "aio.datagrams_injected", effect="delay"
        )
        self.injected_duplicates = registry.counter(
            "aio.datagrams_injected", effect="duplicate"
        )
        self.crashes = registry.counter("aio.host_crashes")
        self.restarts = registry.counter("aio.host_restarts")


class AioHost:
    """One overlay node bound to one real UDP socket."""

    __slots__ = (
        "overlay",
        "loop",
        "closed",
        "incarnation",
        "udp",
        "endpoint",
        "transport",
        "health",
        "node",
        "maintenance",
        "channel",
        "rejected_frames",
    )

    def __init__(
        self,
        overlay: "AioOverlay",
        descriptor: NodeDescriptor,
        schema: AttributeSchema,
        node_config: Optional[NodeConfig],
        gossip_config: Optional[GossipConfig],
        observer: Optional[ProtocolObserver],
        seed: int,
    ) -> None:
        self.overlay = overlay
        self.loop = overlay.loop
        self.closed = False
        #: Bumped on every crash; timers armed before the crash compare
        #: their captured incarnation and stay dead after a restart.
        self.incarnation = 0
        self.udp: Optional[asyncio.DatagramTransport] = None
        self.endpoint: Optional[Endpoint] = None
        self.transport = AsyncioTransport(self, overlay.codec)
        config = node_config if node_config is not None else NodeConfig()
        #: Per-neighbor failure-detection state, shared by the query
        #: protocol and gossip maintenance (exactly as in ``SimHost``).
        self.health = HealthMonitor(config.health, registry=overlay.registry)
        self.node = ResourceNode(
            descriptor, schema, self.transport,
            config=node_config, observer=observer, health=self.health,
        )
        self.maintenance: Optional[TwoLayerMaintenance] = None
        if gossip_config is not None:
            self.maintenance = TwoLayerMaintenance(
                self.node,
                self.transport,
                derive_rng(seed, f"runtime-host:{descriptor.address}"),
                gossip_config,
                registry=overlay.registry,
                health=self.node.reliability.gossip_health,
            )
        self.channel = ReliableChannel(
            address=descriptor.address,
            codec=overlay.codec,
            config=overlay.reliable,
            clock=self.loop.time,
            call_later=self.transport.call_later,
            cancel=self.transport.cancel,
            transmit=self._transmit,
            deliver=self._dispatch,
            metrics=overlay.channel_metrics,
        )
        #: Frames this host's receive loop rejected as corrupt/truncated.
        self.rejected_frames = 0

    @property
    def address(self) -> Address:
        """This host's overlay address."""
        return self.node.address

    @property
    def alive(self) -> bool:
        """True while the host's socket is open and callbacks may run."""
        return not self.closed

    async def open(self, bind_host: str) -> None:
        """Bind the UDP socket and register in the overlay directory."""
        _, _ = await self.loop.create_datagram_endpoint(
            lambda: _NodeDatagramProtocol(self),
            local_addr=(bind_host, 0),
        )
        assert self.udp is not None
        sock = self.udp.get_extra_info("sockname")
        self.endpoint = (sock[0], sock[1])
        self.overlay.endpoints[self.address] = self.endpoint

    # -- datagram path ---------------------------------------------------------

    def _transmit(self, receiver: Address, frame: bytes) -> None:
        """Channel hook: judge injected faults, then hit the wire."""
        faults = self.overlay.faults
        if faults is not None:
            faults.transmit(self, receiver, frame)
        else:
            self.sendto(receiver, frame)

    def sendto(self, receiver: Address, frame: bytes) -> None:
        """Put one datagram on the wire to *receiver*'s current endpoint.

        The endpoint is resolved at send time (not enqueue time), so a
        datagram a fault held back still reaches a peer that crashed and
        rejoined on a new port in the meantime.
        """
        if self.closed or self.udp is None:
            return
        endpoint = self.overlay.endpoints.get(receiver)
        if endpoint is None:
            self.overlay.metrics.unknown_receiver.inc()
            return
        try:
            self.udp.sendto(frame, endpoint)
        except OSError:
            self.overlay.metrics.send_errors.inc()
            return
        self.overlay.metrics.datagrams_sent.inc()

    def on_datagram(self, data: bytes) -> None:
        """Decode one received datagram and dispatch it to the protocol.

        A frame that fails strict decoding — truncated, corrupt, alien
        magic, lying length — is counted and dropped; it can never crash
        the receive loop or reach the protocol objects. Fragment and ack
        frames are consumed by the reliability channel; everything else
        goes straight up to gossip/query handling.
        """
        if self.closed:
            return
        try:
            sender, message = self.overlay.codec.decode(data)
        except CodecError:
            self.rejected_frames += 1
            self.overlay.metrics.frames_rejected.inc()
            return
        self.overlay.metrics.datagrams_received.inc()
        if isinstance(message, Fragment):
            self.channel.on_fragment(sender, message)
            return
        if isinstance(message, FragmentAck):
            self.channel.on_ack(sender, message)
            return
        self._dispatch(sender, message)

    def _dispatch(self, sender: Address, message: object) -> None:
        """Route one protocol message to gossip maintenance or the node."""
        if self.maintenance is not None and self.maintenance.handle_message(
            sender, message
        ):
            return
        self.node.handle_message(sender, message)

    # -- protocol lifecycle ----------------------------------------------------

    def start_gossip(self, seeds: Sequence[NodeDescriptor]) -> None:
        """Seed the views and start periodic maintenance."""
        if self.maintenance is None:
            raise RuntimeError("host was built without a gossip configuration")
        self.maintenance.seed(seeds)
        self.maintenance.start()

    def issue_query(self, query: Query, sigma=None, on_complete=None):
        """Originate a query here (event-loop thread); refused if closed."""
        if self.closed:
            raise HostDownError(f"origin {self.address} is down")
        return self.node.issue_query(query, sigma=sigma, on_complete=on_complete)

    def crash(self) -> None:
        """Kill the socket mid-run, exactly as a process crash would.

        Gossip stops, every armed timer dies (the incarnation bump
        outlives even handles asyncio has already scheduled), channel
        state vanishes, and the endpoint leaves the directory — but the
        node object survives for :meth:`restart`. Idempotent.
        """
        if self.closed:
            return
        self._teardown()
        self.overlay.metrics.crashes.inc()

    async def restart(self) -> None:
        """Rejoin under the same identity after :meth:`crash`.

        Mirrors the simulator's ``SimHost.restart``: in-flight query
        state is abandoned (``node.restart()``), the routing table is
        kept (stale but a working warm start), the channel advances its
        message-id epoch, and the socket rebinds on a fresh port. If the
        host gossips, maintenance resumes from the surviving views.
        """
        if not self.closed:
            return
        self.node.restart()
        self.channel.reset()
        self.closed = False
        await self.open(self.overlay.bind_host)
        if self.maintenance is not None:
            self.maintenance.start()
        self.overlay.metrics.restarts.inc()

    def close(self) -> None:
        """Stop gossip, silence timers, and close the socket (idempotent)."""
        if self.closed:
            return
        self._teardown()

    def _teardown(self) -> None:
        """The shared crash/close path: silence everything, free the port."""
        self.closed = True
        self.incarnation += 1
        if self.maintenance is not None:
            self.maintenance.stop()
        self.channel.close()
        if self.udp is not None:
            self.udp.close()
            self.udp = None
        self.endpoint = None
        self.overlay.endpoints.pop(self.address, None)


class AioOverlay:
    """A set of UDP-socketed hosts forming one overlay in one process.

    The live counterpart of :class:`~repro.sim.deployment.Deployment`:
    the same populate / bootstrap / execute_query surface, but every
    message is a real datagram and every timer a real
    ``loop.call_later``. All methods must run on the event loop (use
    ``async with`` / :meth:`populate` from a coroutine).
    """

    def __init__(
        self,
        schema: AttributeSchema,
        seed: int = 42,
        node_config: Optional[NodeConfig] = None,
        gossip_config: Optional[GossipConfig] = None,
        observer: Optional[ProtocolObserver] = None,
        registry: Optional[MetricsRegistry] = None,
        bind_host: str = "127.0.0.1",
        reliable: Optional[ReliableConfig] = None,
    ) -> None:
        self.schema = schema
        self.seed = seed
        self.node_config = node_config
        self.gossip_config = gossip_config
        self.observer = observer
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.metrics = _OverlayMetrics(self.registry)
        self.bind_host = bind_host
        self.codec = Codec(schema)
        self.reliable = reliable if reliable is not None else ReliableConfig()
        self.channel_metrics = ChannelMetrics(self.registry)
        #: Installed fault injector, or None for a clean network.
        self.faults: Optional[FaultyTransport] = None
        self.loop = asyncio.get_running_loop()
        self.hosts: Dict[Address, AioHost] = {}
        self.endpoints: Dict[Address, Endpoint] = {}
        self._next_address = 0

    # -- membership -----------------------------------------------------------

    async def add_host(self, values: Mapping[str, AttributeValue]) -> AioHost:
        """Create one host, bind its socket, and join the directory."""
        address = self._next_address
        self._next_address += 1
        descriptor = NodeDescriptor.build(address, self.schema, values)
        host = AioHost(
            self,
            descriptor,
            self.schema,
            self.node_config,
            self.gossip_config,
            self.observer,
            self.seed,
        )
        await host.open(self.bind_host)
        self.hosts[address] = host
        return host

    async def populate(self, sampler, count: int) -> List[AioHost]:
        """Create *count* hosts from a value sampler.

        Draws from the ``runtime-population`` RNG stream, so the same
        seed yields the same descriptors.
        """
        rng = derive_rng(self.seed, "runtime-population")
        return [await self.add_host(sampler(rng)) for _ in range(count)]

    def bootstrap(self) -> None:
        """Install converged routing tables (no gossip warm-up needed)."""
        seed_tables(
            DescriptorStore.from_descriptors(
                self.schema,
                [host.node.descriptor for host in self.hosts.values()],
            ),
            lambda address: self.hosts[address].node.routing,
            self.seed,
            stream="runtime-bootstrap",
        )

    def start_gossip(self, seeds_per_node: int = 5) -> None:
        """Seed every host with random contacts and start maintenance."""
        rng = derive_rng(self.seed, "runtime-seeds")
        descriptors = [host.node.descriptor for host in self.hosts.values()]
        for host in self.hosts.values():
            pool = [
                descriptor
                for descriptor in rng.sample(
                    descriptors, min(len(descriptors), seeds_per_node + 1)
                )
                if descriptor.address != host.address
            ][:seeds_per_node]
            host.start_gossip(pool)

    # -- fault injection ------------------------------------------------------

    def install_faults(
        self, schedule: FaultSchedule, rng: Optional[random.Random] = None
    ) -> FaultyTransport:
        """Route every outgoing datagram through *schedule* from now on."""
        self.faults = FaultyTransport(
            schedule,
            rng if rng is not None else derive_rng(self.seed, "runtime-faults"),
            self.loop,
            self.metrics,
        )
        return self.faults

    def clear_faults(self) -> None:
        """Restore the clean network (already-delayed datagrams still land)."""
        self.faults = None

    # -- queries --------------------------------------------------------------

    async def execute_query(
        self,
        query: Query,
        sigma: Optional[int] = None,
        origin: Optional[Address] = None,
        timeout: float = 30.0,
    ) -> List[NodeDescriptor]:
        """Issue a query and await its dissemination over real sockets."""
        alive = [host for host in self.hosts.values() if host.alive]
        if not alive:
            raise RuntimeError("no live hosts")
        host = self.hosts[origin] if origin is not None else alive[0]
        future: "asyncio.Future[List[NodeDescriptor]]" = (
            self.loop.create_future()
        )

        def on_complete(query_id, descriptors) -> None:
            if not future.done():
                future.set_result(list(descriptors))

        host.issue_query(query, sigma=sigma, on_complete=on_complete)
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            return []

    def alive_hosts(self) -> List[AioHost]:
        """Hosts currently up (not crashed)."""
        return [host for host in self.hosts.values() if host.alive]

    def matching_descriptors(self, query: Query) -> List[NodeDescriptor]:
        """Ground truth across live hosts."""
        return [
            host.node.descriptor
            for host in self.hosts.values()
            if host.alive and query.matches(host.node.descriptor.values)
        ]

    # -- lifecycle ------------------------------------------------------------

    @property
    def rejected_frames(self) -> int:
        """Total corrupt/truncated frames rejected across all hosts."""
        return sum(host.rejected_frames for host in self.hosts.values())

    async def close(self) -> None:
        """Close every socket and let the loop flush transport teardown."""
        for host in self.hosts.values():
            host.close()
        # One tick so asyncio completes the datagram-transport closes.
        await asyncio.sleep(0)

    async def __aenter__(self) -> "AioOverlay":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()
