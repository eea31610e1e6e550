"""Reliable datagram framing: fragmentation, reassembly, ack/retransmit.

UDP caps a datagram at ~64 KiB and delivers best-effort; the protocol
above (:mod:`repro.core.node`) was built for lossy links but a frame that
cannot fit a datagram at all — a σ-unbounded reply at scale — used to be
silently impossible to send. :class:`ReliableChannel` sits between a
host's protocol objects and its socket and fixes both problems without
touching the protocol:

* **Fragmentation.** A frame above the datagram cap is sliced into
  :class:`~repro.core.codec.Fragment` frames (per-message id, index,
  count) and reassembled on the receiver from bounded, TTL-evicted
  buffers. The joined bytes are decoded as an ordinary frame — strictly,
  so a hostile fragment stream can corrupt nothing.
* **Optional ack/retransmit.** With :attr:`ReliableConfig.ack` on, every
  fragment is individually acknowledged; unacked fragments are
  retransmitted under Karn-style exponential backoff driven by a
  per-peer :class:`~repro.core.health.RttEstimator`, with capped retries.
  Duplicate deliveries (retransmit races, network duplication) are
  suppressed by a bounded seen-LRU on the receiver.

The channel is runtime-agnostic: it is wired to its host through four
callables (clock, timer arm/cancel, raw transmit, upward deliver), so
unit tests drive it with a fake clock and the asyncio runtime with
``loop.call_later``. All state is per-host and bounded; ``close()``
cancels every timer, which is how a crashed host silences its channel.
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.codec import Codec, CodecError, Fragment, FragmentAck
from repro.core.descriptors import Address
from repro.core.health import HealthConfig, RttEstimator
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY

log = logging.getLogger(__name__)

#: Key of one in-flight inbound message: ``(sender, message_id)``.
MessageKey = Tuple[Address, int]


@dataclass(frozen=True)
class ReliableConfig:
    """Tuning knobs for the reliability layer of one overlay."""

    #: Largest datagram the channel will put on the wire; frames above it
    #: fragment (or drop, counted, when :attr:`fragment` is off).
    max_datagram: int = 65_000
    #: Slice oversized frames into fragments instead of dropping them.
    fragment: bool = True
    #: Acknowledge every fragment and retransmit unacked ones. Off by
    #: default: small frames then take the raw fast path, byte-identical
    #: to the pre-reliability wire format.
    ack: bool = False
    #: Retransmission rounds before the sender gives up on a message.
    max_retries: int = 4
    #: Seed for cold per-peer RTT estimators (loopback-realistic).
    initial_rtt: float = 0.05
    #: Floor/ceiling for the retransmission timeout (seconds).
    rto_min: float = 0.05
    rto_max: float = 2.0
    #: Seconds an incomplete reassembly buffer may idle before eviction.
    reassembly_ttl: float = 5.0
    #: At most this many concurrent reassembly buffers per host.
    max_reassembly_buffers: int = 256
    #: At most this many buffered chunk bytes per host.
    max_reassembly_bytes: int = 32 * 1024 * 1024
    #: Completed message ids remembered for duplicate suppression.
    seen_history: int = 4096

    def health_config(self) -> HealthConfig:
        """The :class:`HealthConfig` backing the retransmit estimators."""
        return HealthConfig(
            rto_min=self.rto_min,
            rto_max=self.rto_max,
            initial_rtt=self.initial_rtt,
        )


class ChannelMetrics:
    """Reliability counters, shared by every channel of one overlay."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.frames_dropped_oversize = registry.counter(
            "runtime.frames_dropped", reason="oversize"
        )
        self.frames_dropped_overflow = registry.counter(
            "runtime.frames_dropped", reason="fragment_overflow"
        )
        self.fragments_sent = registry.counter(
            "reliable.fragments", direction="sent"
        )
        self.fragments_received = registry.counter(
            "reliable.fragments", direction="received"
        )
        self.messages_fragmented = registry.counter(
            "reliable.messages_fragmented"
        )
        self.reassembled = registry.counter("reliable.reassembled")
        self.reassembly_evicted_ttl = registry.counter(
            "reliable.reassembly_evicted", reason="ttl"
        )
        self.reassembly_evicted_capacity = registry.counter(
            "reliable.reassembly_evicted", reason="capacity"
        )
        self.reassembly_rejected = registry.counter(
            "reliable.reassembly_rejected"
        )
        self.acks_sent = registry.counter("reliable.acks", direction="sent")
        self.acks_received = registry.counter(
            "reliable.acks", direction="received"
        )
        self.retransmits = registry.counter("reliable.retransmits")
        self.gave_up = registry.counter("reliable.gave_up")
        self.duplicates_suppressed = registry.counter(
            "reliable.duplicates_suppressed"
        )
        #: One warning per overlay when oversized frames start dropping.
        self.warned_oversize = False


class _Outbound:
    """Sender-side state of one acked message awaiting full acknowledgement."""

    __slots__ = ("receiver", "frames", "unacked", "retries", "sent_at", "timer")

    def __init__(
        self, receiver: Address, frames: List[bytes], sent_at: float
    ) -> None:
        self.receiver = receiver
        self.frames = frames
        self.unacked: Set[int] = set(range(len(frames)))
        self.retries = 0
        self.sent_at = sent_at
        self.timer: Optional[object] = None


class _Reassembly:
    """Receiver-side buffer for the fragments of one inbound message."""

    __slots__ = ("count", "chunks", "created", "size")

    def __init__(self, count: int, created: float) -> None:
        self.count = count
        self.chunks: Dict[int, bytes] = {}
        self.created = created
        self.size = 0


class ReliableChannel:
    """Per-host reliability layer between the protocol and the socket.

    Outbound: :meth:`send_frame` is the single entry point — small frames
    without ack semantics pass straight through to *transmit*; everything
    else is fragmented, tracked, and (optionally) retransmitted until
    acked or retries are exhausted. Inbound: the host routes decoded
    :class:`Fragment` / :class:`FragmentAck` messages to
    :meth:`on_fragment` / :meth:`on_ack`; completed messages come back up
    through *deliver* as ``(sender, message)``.
    """

    def __init__(
        self,
        address: Address,
        codec: Codec,
        config: ReliableConfig,
        clock: Callable[[], float],
        call_later: Callable[[float, Callable[[], None]], object],
        cancel: Callable[[object], None],
        transmit: Callable[[Address, bytes], None],
        deliver: Callable[[Address, object], None],
        metrics: Optional[ChannelMetrics] = None,
    ) -> None:
        self.address = address
        self.codec = codec
        self.config = config
        self.clock = clock
        self.call_later = call_later
        self.cancel = cancel
        self.transmit = transmit
        self.deliver = deliver
        self.metrics = metrics if metrics is not None else ChannelMetrics(
            NULL_REGISTRY
        )
        self._health = config.health_config()
        self._estimators: Dict[Address, RttEstimator] = {}
        #: Message ids are ``(epoch << 40) | counter``; :meth:`reset`
        #: bumps the epoch so a restarted incarnation never reuses ids
        #: that peers may still hold in their seen-LRUs.
        self._epoch = 0
        self._counter = 0
        self._outbound: Dict[int, _Outbound] = {}
        #: Incomplete inbound messages, in creation order (front = oldest).
        self._buffers: "OrderedDict[MessageKey, _Reassembly]" = OrderedDict()
        self._buffered_bytes = 0
        #: Completed message keys, LRU-bounded, for duplicate suppression.
        self._seen: "OrderedDict[MessageKey, None]" = OrderedDict()

    # -- sending ---------------------------------------------------------------

    def send_frame(self, receiver: Address, frame: bytes) -> None:
        """Put one encoded frame on the wire, fragmenting if oversized."""
        config = self.config
        if len(frame) <= config.max_datagram and not config.ack:
            self.transmit(receiver, frame)
            return
        if len(frame) > config.max_datagram and not config.fragment:
            self.metrics.frames_dropped_oversize.inc()
            if not self.metrics.warned_oversize:
                self.metrics.warned_oversize = True
                log.warning(
                    "dropping %d-byte frame to %s: exceeds the %d-byte "
                    "datagram cap and fragmentation is disabled",
                    len(frame), receiver, config.max_datagram,
                )
            return
        message_id = (self._epoch << 40) | self._counter
        self._counter += 1
        try:
            frames = self.codec.fragment(
                self.address, message_id, frame, config.max_datagram
            )
        except CodecError:
            self.metrics.frames_dropped_overflow.inc()
            if not self.metrics.warned_oversize:
                self.metrics.warned_oversize = True
                log.warning(
                    "dropping %d-byte frame to %s: exceeds the fragment "
                    "index space at a %d-byte datagram cap",
                    len(frame), receiver, config.max_datagram,
                )
            return
        if len(frames) > 1:
            self.metrics.messages_fragmented.inc()
        self.metrics.fragments_sent.inc(len(frames))
        for fragment_frame in frames:
            self.transmit(receiver, fragment_frame)
        if config.ack:
            entry = _Outbound(receiver, frames, sent_at=self.clock())
            self._outbound[message_id] = entry
            self._arm(message_id, entry)

    def _estimator(self, peer: Address) -> RttEstimator:
        estimator = self._estimators.get(peer)
        if estimator is None:
            estimator = RttEstimator(self._health)
            self._estimators[peer] = estimator
        return estimator

    def _arm(self, message_id: int, entry: _Outbound) -> None:
        delay = self._estimator(entry.receiver).rto()
        if delay is None:
            delay = self.config.rto_min
        entry.timer = self.call_later(
            delay, lambda: self._on_retransmit_timer(message_id)
        )

    def _on_retransmit_timer(self, message_id: int) -> None:
        entry = self._outbound.get(message_id)
        if entry is None:
            return
        entry.timer = None
        if entry.retries >= self.config.max_retries:
            del self._outbound[message_id]
            self.metrics.gave_up.inc()
            return
        entry.retries += 1
        self._estimator(entry.receiver).on_timeout()
        for index in sorted(entry.unacked):
            self.transmit(entry.receiver, entry.frames[index])
        self.metrics.retransmits.inc(len(entry.unacked))
        self.metrics.fragments_sent.inc(len(entry.unacked))
        self._arm(message_id, entry)

    def on_ack(self, sender: Address, ack: FragmentAck) -> None:
        """Fold one received acknowledgement into the outbound state."""
        self.metrics.acks_received.inc()
        entry = self._outbound.get(ack.message_id)
        if entry is None or entry.receiver != sender:
            return
        entry.unacked.discard(ack.index)
        if entry.unacked:
            return
        if entry.timer is not None:
            self.cancel(entry.timer)
        del self._outbound[ack.message_id]
        if entry.retries == 0:
            # Karn rule: only a never-retransmitted exchange is an
            # unambiguous round-trip sample.
            self._estimator(sender).observe(self.clock() - entry.sent_at)

    # -- receiving -------------------------------------------------------------

    def on_fragment(self, sender: Address, fragment: Fragment) -> None:
        """Buffer one received fragment; deliver on completion."""
        self.metrics.fragments_received.inc()
        now = self.clock()
        self.expire(now)
        if self.config.ack:
            self.transmit(
                sender,
                self.codec.encode(
                    self.address,
                    FragmentAck(fragment.message_id, fragment.index),
                ),
            )
            self.metrics.acks_sent.inc()
        key: MessageKey = (sender, fragment.message_id)
        if key in self._seen:
            self._seen.move_to_end(key)
            self.metrics.duplicates_suppressed.inc()
            return
        buffer = self._buffers.get(key)
        if buffer is None:
            while len(self._buffers) >= self.config.max_reassembly_buffers:
                self._evict_oldest(self.metrics.reassembly_evicted_capacity)
            buffer = _Reassembly(count=fragment.count, created=now)
            self._buffers[key] = buffer
        if fragment.count != buffer.count:
            # The sender contradicts itself (or someone is forging
            # fragments): nothing from this stream can be trusted.
            self._drop_buffer(key)
            self.metrics.reassembly_rejected.inc()
            return
        if fragment.index in buffer.chunks:
            self.metrics.duplicates_suppressed.inc()
            return
        buffer.chunks[fragment.index] = fragment.chunk
        buffer.size += len(fragment.chunk)
        self._buffered_bytes += len(fragment.chunk)
        while (
            self._buffered_bytes > self.config.max_reassembly_bytes
            and self._buffers
        ):
            self._evict_oldest(self.metrics.reassembly_evicted_capacity)
        if key not in self._buffers:
            return  # the byte bound just evicted this very message
        if len(buffer.chunks) < buffer.count:
            return
        self._drop_buffer(key)
        self._remember(key)
        data = b"".join(buffer.chunks[i] for i in range(buffer.count))
        try:
            inner_sender, message = self.codec.decode(data)
        except CodecError:
            self.metrics.reassembly_rejected.inc()
            return
        if isinstance(message, (Fragment, FragmentAck)):
            # Nested framing is never produced by a well-behaved sender.
            self.metrics.reassembly_rejected.inc()
            return
        self.metrics.reassembled.inc()
        self.deliver(inner_sender, message)

    def expire(self, now: float) -> None:
        """Evict reassembly buffers idle past the TTL (front = oldest)."""
        ttl = self.config.reassembly_ttl
        while self._buffers:
            key, buffer = next(iter(self._buffers.items()))
            if now - buffer.created < ttl:
                return
            self._drop_buffer(key)
            self.metrics.reassembly_evicted_ttl.inc()

    def _evict_oldest(self, counter) -> None:
        key = next(iter(self._buffers))
        self._drop_buffer(key)
        counter.inc()

    def _drop_buffer(self, key: MessageKey) -> None:
        buffer = self._buffers.pop(key, None)
        if buffer is not None:
            self._buffered_bytes -= buffer.size

    def _remember(self, key: MessageKey) -> None:
        self._seen[key] = None
        self._seen.move_to_end(key)
        while len(self._seen) > self.config.seen_history:
            self._seen.popitem(last=False)

    # -- introspection / lifecycle ---------------------------------------------

    @property
    def pending_outbound(self) -> int:
        """Messages still awaiting full acknowledgement (leak probe)."""
        return len(self._outbound)

    @property
    def pending_reassembly(self) -> int:
        """Incomplete inbound reassembly buffers (leak probe)."""
        return len(self._buffers)

    @property
    def buffered_bytes(self) -> int:
        """Chunk bytes currently held by reassembly buffers."""
        return self._buffered_bytes

    def close(self) -> None:
        """Cancel every retransmit timer and drop all buffered state."""
        for entry in self._outbound.values():
            if entry.timer is not None:
                self.cancel(entry.timer)
                entry.timer = None
        self._outbound.clear()
        self._buffers.clear()
        self._buffered_bytes = 0

    def reset(self) -> None:
        """Close and advance the message-id epoch (crash-restart rejoin)."""
        self.close()
        self._epoch += 1
        self._counter = 0
        self._estimators.clear()
        self._seen.clear()
