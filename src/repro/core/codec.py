"""Versioned, length-prefixed wire serialization for overlay messages.

The simulator passes message *objects* between nodes; the asyncio runtime
(:mod:`repro.runtime.aio`) passes real UDP datagrams between real
sockets, so every message of the protocol needs an exact byte
representation. This module provides it for the whole overlay
vocabulary: the query-routing messages of :mod:`repro.core.messages` and
the gossip messages of :mod:`repro.gossip.messages`.

Frame layout (big-endian)::

    +--------+---------+------+------------+----------+---------------+
    | magic  | version | type | sender     | length   | payload       |
    | u16    | u8      | u8   | i64        | u32      | length bytes  |
    +--------+---------+------+------------+----------+---------------+

``sender`` is the overlay address of the transmitting node — gossip
messages do not carry one in-band (the object model hands ``sender`` to
``handle_message`` separately), so the frame header does. ``length``
prefixes the payload so the same frames stream over TCP unchanged, and so
a receiver can reject truncated or trailing-garbage datagrams outright.

Decoding is *strict*: a wrong magic, an unsupported version, an unknown
message type, a length that disagrees with the datagram, or a payload
that ends mid-field all raise :class:`CodecError` (the UDP receive loop
counts and drops such frames; it never crashes on hostile bytes).
Encoding a field outside its wire width raises :class:`CodecError` too.

Every fixed run of fields is one precompiled :class:`struct.Struct`: a
descriptor record (address, value count, values, coordinate count,
coordinates) is one ``pack`` / one ``unpack_from``, and so are the fixed
head and tail sections of each message. The record layout for the
schema's arity is compiled once per :class:`Codec`; a record whose count
bytes say otherwise builds its layout on the spot, and decoding rejects
it once read.

The codec is schema-bound: attribute *values* travel as raw doubles and
cell coordinates as integers, while the :class:`~repro.core.attributes.
AttributeSchema` itself is deployment configuration agreed out-of-band
(every node of one overlay is built from the same schema, exactly as the
paper's deployment assumes a common attribute space). Decoded coordinate
tuples are interned through the schema so a decoded descriptor shares
the canonical tuple and C0 key with every local descriptor in the same
cell. A descriptor record must carry the schema's arity and coordinates
on its grid, ``[0, 2**max_level)`` per dimension; anything else raises
:class:`CodecError`, checked only when a tuple is new to the intern
table. Encoding carries any record that fits the wire widths.

The same query crosses every hop of its tree, and the same descriptors
ride every reply up it, so one :class:`Codec` remembers what it already
did: a QUERY's constant section and each descriptor record are packed and
parsed once per process, in memos bounded by :data:`MAX_MEMO_SECTIONS`
and :data:`MAX_MEMO_RECORDS`. A memo hit needs byte equality with bytes
that already parsed cleanly, so every frame rejected without the memos is
rejected with them, and every frame is byte-identical.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple, Type

from repro.core.attributes import AttributeSchema
from repro.core.descriptors import Address, NodeDescriptor
from repro.core.messages import QueryMessage, ReplyMessage, mask_dimensions
from repro.core.query import CategoricalSet, Constraint, Query, ValueRange
from repro.gossip.messages import (
    CyclonReply,
    CyclonRequest,
    VicinityReply,
    VicinityRequest,
)
from repro.gossip.view import ViewEntry

MAGIC = 0xA55E
VERSION = 1

#: Frame header: magic u16, version u8, type u8, sender i64, length u32.
_HEADER = struct.Struct(">HBBqI")

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

#: QUERY head: query id (origin, counter), sender.
_QUERY_HEAD = struct.Struct(">qqq")
#: QUERY tail, first half: level, dimension count.
_LEVEL_DIMENSIONS = struct.Struct(">iH")
#: REPLY head: query id (origin, counter), sender, descriptor count.
_REPLY_HEAD = struct.Struct(">qqqI")
#: REPLY tail: coverage, duplicate flag.
_REPLY_TAIL = struct.Struct(">d?")
#: FRAGMENT head: message id, fragment index, fragment count.
_FRAGMENT_HEAD = struct.Struct(">qHH")
#: ACK: message id, fragment index.
_ACK = struct.Struct(">qH")

#: Upper bound on the declared payload length; anything larger is hostile
#: or corrupt (a σ-bounded reply at paper scale is a few hundred KB).
MAX_PAYLOAD = 16 * 1024 * 1024

_TYPE_QUERY = 1
_TYPE_REPLY = 2
_TYPE_CYCLON_REQUEST = 3
_TYPE_CYCLON_REPLY = 4
_TYPE_VICINITY_REQUEST = 5
_TYPE_VICINITY_REPLY = 6
_TYPE_FRAGMENT = 7
_TYPE_ACK = 8

_KIND_RANGE = 0
_KIND_CATEGORICAL = 1

#: Bytes a fragment payload spends before the chunk: message id (i64),
#: fragment index (u16), fragment count (u16).
FRAGMENT_OVERHEAD = _FRAGMENT_HEAD.size

#: Query sections each memo of a :class:`Codec` holds before it is cleared.
MAX_MEMO_SECTIONS = 1024
#: Descriptor records each memo of a :class:`Codec` holds before it is cleared.
MAX_MEMO_RECORDS = 4096


def _record_layout(value_count: int, coordinate_count: int) -> struct.Struct:
    """Descriptor record: address, value count, values, coord count, coords."""
    return struct.Struct(f">qB{value_count}dB{coordinate_count}i")


def _ranges_layout(count: int) -> struct.Struct:
    """*count* index ranges as flat (low, high) i32 pairs."""
    return struct.Struct(f">{2 * count}i")


def _dimensions_layout(count: int) -> struct.Struct:
    """QUERY tail, second half: *count* dimensions (u16), budget (f64)."""
    return struct.Struct(f">{count}Hd")


def _remember(memo: Dict[Any, Any], bound: int, key: Any, value: Any) -> None:
    """Store *value* under *key*, clearing *memo* first if it is full."""
    if len(memo) >= bound:
        memo.clear()
    memo[key] = value


def _mask_of(dimensions: Tuple[int, ...]) -> int:
    """The bitmask of a QUERY's wire dimensions, built in linear time.

    ORing ``1 << dim`` per entry would copy an up-to-8 KB integer per entry.
    """
    if not dimensions:
        return 0
    bits = bytearray((max(dimensions) >> 3) + 1)
    for dim in dimensions:
        bits[dim >> 3] |= 1 << (dim & 7)
    return int.from_bytes(bits, "little")


class CodecError(ValueError):
    """A frame could not be decoded (corrupt, truncated, alien) or encoded."""


@dataclass(frozen=True)
class Fragment:
    """One slice of a frame too large for a single datagram.

    The *chunk* bytes are a contiguous slice of a complete inner frame
    (header included); the receiver reassembles ``count`` slices of one
    ``message_id`` in index order and decodes the joined bytes as an
    ordinary frame. ``count == 1`` is legal — it is how the reliability
    layer wraps small frames that want ack/retransmit semantics.
    """

    message_id: int
    index: int
    count: int
    chunk: bytes


@dataclass(frozen=True)
class FragmentAck:
    """Receiver-side acknowledgement of one fragment of one message."""

    message_id: int
    index: int


class _Writer:
    """Append-only byte builder with the primitive field encoders."""

    __slots__ = ("parts",)

    def __init__(self) -> None:
        self.parts: List[bytes] = []

    def u8(self, value: int) -> None:
        """Append an unsigned byte."""
        self.parts.append(_U8.pack(value))

    def u16(self, value: int) -> None:
        """Append an unsigned 16-bit integer."""
        self.parts.append(_U16.pack(value))

    def u32(self, value: int) -> None:
        """Append an unsigned 32-bit integer."""
        self.parts.append(_U32.pack(value))

    def i64(self, value: int) -> None:
        """Append a signed 64-bit integer."""
        self.parts.append(_I64.pack(value))

    def f64(self, value: float) -> None:
        """Append an IEEE-754 double (bit-exact round trip)."""
        self.parts.append(_F64.pack(value))

    def text(self, value: str) -> None:
        """Append a length-prefixed UTF-8 string."""
        raw = value.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise CodecError(f"string too long for wire ({len(raw)} bytes)")
        self.u16(len(raw))
        self.parts.append(raw)

    def getvalue(self) -> bytes:
        """The accumulated bytes."""
        return b"".join(self.parts)


class _Reader:
    """Strict cursor over a payload; raises :class:`CodecError` on underrun.

    ``canonical`` turns false once the bytes read so far hold a field the
    encoder never writes that way (unsorted or repeated ordinals, spare
    flag bits): they parse, but packing what they parsed to gives other
    bytes.
    """

    __slots__ = ("data", "offset", "canonical")

    def __init__(self, data: bytes, offset: int) -> None:
        self.data = data
        self.offset = offset
        self.canonical = True

    def _claim(self, count: int) -> int:
        """Advance past *count* bytes; return the offset they start at."""
        offset = self.offset
        end = offset + count
        if end > len(self.data):
            raise CodecError(
                f"payload truncated: need {count} bytes at offset "
                f"{offset}, have {len(self.data) - offset}"
            )
        self.offset = end
        return offset

    def unpack(self, layout: struct.Struct) -> Tuple[Any, ...]:
        """Read one fixed run of fields laid out by *layout*."""
        return layout.unpack_from(self.data, self._claim(layout.size))

    def u8(self) -> int:
        """Read an unsigned byte."""
        return _U8.unpack_from(self.data, self._claim(1))[0]

    def u16(self) -> int:
        """Read an unsigned 16-bit integer."""
        return _U16.unpack_from(self.data, self._claim(2))[0]

    def u32(self) -> int:
        """Read an unsigned 32-bit integer."""
        return _U32.unpack_from(self.data, self._claim(4))[0]

    def i64(self) -> int:
        """Read a signed 64-bit integer."""
        return _I64.unpack_from(self.data, self._claim(8))[0]

    def f64(self) -> float:
        """Read an IEEE-754 double."""
        return _F64.unpack_from(self.data, self._claim(8))[0]

    def text(self) -> str:
        """Read a length-prefixed UTF-8 string."""
        length = self.u16()
        start = self._claim(length)
        try:
            return self.data[start:start + length].decode("utf-8")
        except UnicodeDecodeError as error:
            raise CodecError(f"invalid UTF-8 in string field: {error}") from None

    def rest(self) -> bytes:
        """Read every remaining byte (may be empty)."""
        chunk = self.data[self.offset:]
        self.offset = len(self.data)
        return chunk

    def done(self) -> None:
        """Require the payload to be fully consumed (no trailing bytes)."""
        if self.offset != len(self.data):
            raise CodecError(
                f"{len(self.data) - self.offset} trailing bytes after payload"
            )


class Codec:
    """Schema-bound encoder/decoder for every overlay message type.

    One instance serves a whole deployment: every host of an
    :class:`~repro.runtime.aio.AioOverlay` shares it. :meth:`encode`
    wraps a message object in a framed datagram carrying the sender's
    overlay address; :meth:`decode` is its strict inverse, returning
    ``(sender, message)``.

    Beside the schema and the layouts compiled for its arity, it keeps
    four bounded memos of work it already did:

    * a QUERY's *section* — constraints, index ranges and σ, the same at
      every hop of one query — is packed once per (query, ranges, σ)
      objects, and parsed once per query id as long as its bytes stay
      the same. A parse hit hands back the parsed query, ranges and σ,
      and the ``(origin, counter)`` tuple itself, so the seen-LRUs of
      all nodes of a process keep one id object per query. A parsed
      section is packed as the bytes it arrived in;
    * a descriptor record is parsed once per distinct record bytes, and
      packed once per descriptor object. A parsed descriptor is packed as
      the very bytes it arrived in.

    Each memo is cleared when full, so a peer that floods new ids or
    records costs only misses.
    """

    __slots__ = (
        "schema", "_arity", "_record", "_ranges", "_dimensions",
        "_sections_out", "_sections_in", "_records_out", "_records_in",
    )

    def __init__(self, schema: AttributeSchema) -> None:
        self.schema = schema
        arity = schema.dimensions
        self._arity = arity
        self._record = _record_layout(arity, arity)
        self._ranges = _ranges_layout(arity)
        #: One tail layout per dimension-set size a schema query can carry.
        self._dimensions = tuple(
            _dimensions_layout(count) for count in range(arity + 1)
        )
        #: ``id(query)`` -> (query, ranges, σ, section bytes) last packed;
        #: the entry keeps the query alive, so its id is not reused.
        self._sections_out: Dict[int, Tuple[Any, ...]] = {}
        #: Query id -> (section bytes, query id, query, ranges, σ) last parsed.
        self._sections_in: Dict[Tuple[int, int], Tuple[Any, ...]] = {}
        #: ``id(descriptor)`` -> (descriptor, record bytes); the entry keeps
        #: the descriptor alive, so its id is not reused while it is held.
        self._records_out: Dict[int, Tuple[NodeDescriptor, bytes]] = {}
        #: Record bytes -> the descriptor they parsed to.
        self._records_in: Dict[bytes, NodeDescriptor] = {}

    # -- framing ---------------------------------------------------------------

    def encode(self, sender: Address, message: Any) -> bytes:
        """Encode *message* from *sender* as one framed datagram.

        Raises :class:`CodecError` for an unencodable type or a field
        outside its wire width (an address beyond i64, a coordinate
        beyond i32, more than 255 values in a descriptor, ...).
        """
        encoder = _ENCODERS.get(type(message))
        if encoder is None:
            raise CodecError(f"unencodable message type {type(message).__name__}")
        frame_type, encode_payload = encoder
        writer = _Writer()
        try:
            encode_payload(self, writer, message)
            payload = writer.getvalue()
            return _HEADER.pack(
                MAGIC, VERSION, frame_type, sender, len(payload)
            ) + payload
        except struct.error as error:
            raise CodecError(f"field outside its wire width: {error}") from None

    def decode(self, datagram: bytes) -> Tuple[Address, Any]:
        """Decode one framed datagram into ``(sender, message)``.

        Raises :class:`CodecError` on any malformation: short header,
        wrong magic, unsupported version, unknown type, length mismatch,
        truncated payload, or trailing garbage.
        """
        if len(datagram) < _HEADER.size:
            raise CodecError(
                f"frame shorter than header ({len(datagram)} bytes)"
            )
        magic, version, frame_type, sender, length = _HEADER.unpack_from(
            datagram
        )
        if magic != MAGIC:
            raise CodecError(f"bad magic 0x{magic:04x}")
        if version != VERSION:
            raise CodecError(f"unsupported wire version {version}")
        if length > MAX_PAYLOAD:
            raise CodecError(f"declared payload too large ({length} bytes)")
        carried = len(datagram) - _HEADER.size
        if carried != length:
            raise CodecError(
                f"length mismatch: header says {length}, frame carries "
                f"{carried}"
            )
        decoder = _DECODERS.get(frame_type)
        if decoder is None:
            raise CodecError(f"unknown message type {frame_type}")
        reader = _Reader(datagram, _HEADER.size)
        message = decoder(self, reader)
        reader.done()
        return sender, message

    # -- compiled layouts ------------------------------------------------------

    def _record_for(
        self, value_count: int, coordinate_count: int
    ) -> struct.Struct:
        if value_count == coordinate_count == self._arity:
            return self._record
        return _record_layout(value_count, coordinate_count)

    def _ranges_for(self, count: int) -> struct.Struct:
        if count == self._arity:
            return self._ranges
        return _ranges_layout(count)

    def _dimensions_for(self, count: int) -> struct.Struct:
        if count <= self._arity:
            return self._dimensions[count]
        return _dimensions_layout(count)

    # -- shared value encoders -------------------------------------------------

    def _pack_descriptor(self, descriptor: NodeDescriptor) -> bytes:
        entry = self._records_out.get(id(descriptor))
        if entry is not None and entry[0] is descriptor:
            return entry[1]
        record = self._pack_record(descriptor)
        _remember(
            self._records_out, MAX_MEMO_RECORDS, id(descriptor),
            (descriptor, record),
        )
        return record

    def _pack_record(self, descriptor: NodeDescriptor) -> bytes:
        values = descriptor.values
        coordinates = descriptor.coordinates
        return self._record_for(len(values), len(coordinates)).pack(
            descriptor.address,
            len(values),
            *values,
            len(coordinates),
            *coordinates,
        )

    def _decode_descriptor(self, reader: _Reader) -> NodeDescriptor:
        # Only records at the schema's arity enter the memo, so a hit
        # is exactly one record of the compiled layout's size.
        offset = reader.offset
        end = offset + self._record.size
        descriptor = self._records_in.get(reader.data[offset:end])
        if descriptor is None:
            return self._parse_record(reader)
        reader.offset = end
        return descriptor

    def _parse_record(self, reader: _Reader) -> NodeDescriptor:
        data = reader.data
        offset = reader.offset
        try:
            value_count = data[offset + 8]
            coordinate_count = data[offset + 9 + 8 * value_count]
        except IndexError:
            raise CodecError(
                f"payload truncated: descriptor record at offset {offset} "
                f"ends before its count bytes"
            ) from None
        fields = reader.unpack(self._record_for(value_count, coordinate_count))
        if not value_count == coordinate_count == self._arity:
            raise CodecError(
                f"descriptor record with {value_count} values and "
                f"{coordinate_count} coordinates off the schema's "
                f"{self._arity} dimensions"
            )
        split = 2 + value_count
        try:
            cell = self.schema.intern_cell(fields[split + 1:])
        except ValueError as error:
            raise CodecError(str(error)) from None
        descriptor = NodeDescriptor(fields[0], fields[2:split], *cell)
        # Every field of a record round-trips bit for bit, so these bytes
        # are also what packing the descriptor gives.
        record = data[offset:reader.offset]
        _remember(self._records_in, MAX_MEMO_RECORDS, record, descriptor)
        _remember(
            self._records_out, MAX_MEMO_RECORDS, id(descriptor),
            (descriptor, record),
        )
        return descriptor

    def _encode_constraint(self, writer: _Writer, constraint: Constraint) -> None:
        if isinstance(constraint, CategoricalSet):
            writer.u8(_KIND_CATEGORICAL)
            ordinals = sorted(constraint.ordinals)
            writer.u16(len(ordinals))
            for ordinal in ordinals:
                writer.i64(ordinal)
            return
        writer.u8(_KIND_RANGE)
        flags = (0 if constraint.low is None else 1) | (
            0 if constraint.high is None else 2
        )
        writer.u8(flags)
        if constraint.low is not None:
            writer.f64(constraint.low)
        if constraint.high is not None:
            writer.f64(constraint.high)

    def _decode_constraint(self, reader: _Reader) -> Constraint:
        kind = reader.u8()
        if kind == _KIND_CATEGORICAL:
            count = reader.u16()
            if count == 0:
                raise CodecError("categorical constraint with no ordinals")
            ordinals = [reader.i64() for _ in range(count)]
            members = frozenset(ordinals)
            if ordinals != sorted(members):
                reader.canonical = False
            return CategoricalSet(members)
        if kind == _KIND_RANGE:
            flags = reader.u8()
            if flags > 3:
                reader.canonical = False
            low = reader.f64() if flags & 1 else None
            high = reader.f64() if flags & 2 else None
            try:
                return ValueRange(low, high)
            except Exception as error:  # empty range: low > high
                raise CodecError(f"invalid range on wire: {error}") from None
        raise CodecError(f"unknown constraint kind {kind}")

    def _encode_query(self, writer: _Writer, query: Query) -> None:
        writer.u16(len(query.constraints))
        for name, constraint in query.constraints:
            writer.text(name)
            self._encode_constraint(writer, constraint)
        writer.u16(len(query.dynamic_constraints))
        for name, constraint in query.dynamic_constraints:
            writer.text(name)
            self._encode_constraint(writer, constraint)

    def _decode_query(self, reader: _Reader) -> Query:
        constraints = tuple(
            (reader.text(), self._decode_constraint(reader))
            for _ in range(reader.u16())
        )
        dynamic = []
        for _ in range(reader.u16()):
            name = reader.text()
            constraint = self._decode_constraint(reader)
            if not isinstance(constraint, ValueRange):
                raise CodecError("dynamic constraint must be a value range")
            dynamic.append((name, constraint))
        return Query(
            schema=self.schema,
            constraints=constraints,
            dynamic_constraints=tuple(dynamic),
        )

    # -- message payloads ------------------------------------------------------

    def _encode_query_message(
        self, writer: _Writer, message: QueryMessage
    ) -> None:
        query_id = message.query_id
        writer.parts.append(
            _QUERY_HEAD.pack(query_id[0], query_id[1], message.sender)
        )
        query = message.query
        index_ranges = message.index_ranges
        sigma = message.sigma
        entry = self._sections_out.get(id(query))
        if (
            entry is not None
            and entry[0] is query
            and entry[1] is index_ranges
            and entry[2] is sigma
        ):
            writer.parts.append(entry[3])
        else:
            section = self._pack_section(query, index_ranges, sigma)
            _remember(
                self._sections_out, MAX_MEMO_SECTIONS, id(query),
                (query, index_ranges, sigma, section),
            )
            writer.parts.append(section)
        mask = message.dimensions
        if mask < 0:
            raise CodecError("dimension bitmask outside its wire width")
        # The bitmask travels as its set bits, ascending, one u16 each.
        dimensions = mask_dimensions(mask)
        writer.parts.append(
            _LEVEL_DIMENSIONS.pack(message.level, len(dimensions))
        )
        writer.parts.append(
            self._dimensions_for(len(dimensions)).pack(
                *dimensions, message.budget
            )
        )

    def _pack_section(
        self,
        query: Query,
        index_ranges: Tuple[Tuple[int, int], ...],
        sigma: Any,
    ) -> bytes:
        """The QUERY bytes between head and tail: query, ranges, σ."""
        writer = _Writer()
        self._encode_query(writer, query)
        writer.u8(len(index_ranges))
        writer.parts.append(
            self._ranges_for(len(index_ranges)).pack(
                *itertools.chain.from_iterable(index_ranges)
            )
        )
        if sigma is None:
            writer.u8(0)
        else:
            writer.u8(1)
            writer.i64(sigma)
        return writer.getvalue()

    def _decode_query_message(self, reader: _Reader) -> QueryMessage:
        origin, counter, sender = reader.unpack(_QUERY_HEAD)
        query_id = (origin, counter)
        entry = self._sections_in.get(query_id)
        if entry is not None and reader.data.startswith(entry[0], reader.offset):
            # The parser is a pure function of the bytes it reads, so the
            # same section bytes parse to what they parsed to before.
            section, query_id, query, index_ranges, sigma = entry
            reader.offset += len(section)
        else:
            query, index_ranges, sigma = self._parse_section(reader, query_id)
        level, count = reader.unpack(_LEVEL_DIMENSIONS)
        tail = reader.unpack(self._dimensions_for(count))
        return QueryMessage(
            query_id=query_id,
            sender=sender,
            query=query,
            index_ranges=index_ranges,
            sigma=sigma,
            level=level,
            dimensions=_mask_of(tail[:count]),
            budget=tail[count],
        )

    def _parse_section(
        self, reader: _Reader, query_id: Tuple[int, int]
    ) -> Tuple[Query, Tuple[Tuple[int, int], ...], Any]:
        """Parse a QUERY section and remember it under *query_id*."""
        start = reader.offset
        query = self._decode_query(reader)
        bounds = reader.unpack(self._ranges_for(reader.u8()))
        flag = reader.u8()
        if flag > 1:
            reader.canonical = False
        sigma = reader.i64() if flag else None
        index_ranges = tuple(zip(bounds[0::2], bounds[1::2]))
        section = reader.data[start:reader.offset]
        _remember(
            self._sections_in, MAX_MEMO_SECTIONS, query_id,
            (section, query_id, query, index_ranges, sigma),
        )
        if reader.canonical:
            # Packing what these bytes parsed to gives these bytes back,
            # so a forwarding host sends them on as they arrived.
            _remember(
                self._sections_out, MAX_MEMO_SECTIONS, id(query),
                (query, index_ranges, sigma, section),
            )
        return query, index_ranges, sigma

    def _encode_reply_message(
        self, writer: _Writer, message: ReplyMessage
    ) -> None:
        query_id = message.query_id
        parts = writer.parts
        parts.append(
            _REPLY_HEAD.pack(
                query_id[0], query_id[1], message.sender, len(message.matching)
            )
        )
        parts.extend(map(self._pack_descriptor, message.matching))
        parts.append(_REPLY_TAIL.pack(message.coverage, message.duplicate))

    def _decode_reply_message(self, reader: _Reader) -> ReplyMessage:
        origin, counter, sender, count = reader.unpack(_REPLY_HEAD)
        decode_descriptor = self._decode_descriptor
        matching = tuple(decode_descriptor(reader) for _ in range(count))
        coverage, duplicate = reader.unpack(_REPLY_TAIL)
        return ReplyMessage(
            query_id=(origin, counter),
            sender=sender,
            matching=matching,
            coverage=coverage,
            duplicate=duplicate,
        )

    def _encode_fragment(self, writer: _Writer, message: Fragment) -> None:
        writer.parts.append(
            _FRAGMENT_HEAD.pack(message.message_id, message.index, message.count)
        )
        writer.parts.append(message.chunk)

    def _decode_fragment(self, reader: _Reader) -> Fragment:
        message_id, index, count = reader.unpack(_FRAGMENT_HEAD)
        chunk = reader.rest()
        if count == 0:
            raise CodecError("fragment with zero count")
        if index >= count:
            raise CodecError(f"fragment index {index} >= count {count}")
        if not chunk:
            raise CodecError("fragment with empty chunk")
        return Fragment(
            message_id=message_id, index=index, count=count, chunk=chunk
        )

    def _encode_ack(self, writer: _Writer, message: FragmentAck) -> None:
        writer.parts.append(_ACK.pack(message.message_id, message.index))

    def _decode_ack(self, reader: _Reader) -> FragmentAck:
        message_id, index = reader.unpack(_ACK)
        return FragmentAck(message_id=message_id, index=index)

    def fragment(
        self,
        sender: Address,
        message_id: int,
        frame: bytes,
        max_datagram: int,
    ) -> List[bytes]:
        """Slice one encoded *frame* into fragment frames ≤ *max_datagram*.

        The inner frame (header and all) is cut into equal-budget chunks;
        each chunk ships as its own :class:`Fragment` frame small enough
        for one datagram. Raises :class:`CodecError` if the datagram cap
        leaves no room for a chunk or the frame needs more than 65535
        fragments (the u16 index space).
        """
        chunk_size = max_datagram - _HEADER.size - FRAGMENT_OVERHEAD
        if chunk_size <= 0:
            raise CodecError(
                f"datagram cap {max_datagram} leaves no room for a chunk"
            )
        count = max(1, -(-len(frame) // chunk_size))
        if count > 0xFFFF:
            raise CodecError(
                f"frame of {len(frame)} bytes needs {count} fragments "
                f"(u16 index space allows 65535)"
            )
        return [
            self.encode(
                sender,
                Fragment(
                    message_id=message_id,
                    index=index,
                    count=count,
                    chunk=frame[index * chunk_size:(index + 1) * chunk_size],
                ),
            )
            for index in range(count)
        ]

    def _encode_entries(
        self, writer: _Writer, entries: Tuple[ViewEntry, ...]
    ) -> None:
        writer.u16(len(entries))
        for entry in entries:
            writer.parts.append(self._pack_descriptor(entry.descriptor))
            writer.u32(entry.age)

    def _decode_entries(self, reader: _Reader) -> Tuple[ViewEntry, ...]:
        return tuple(
            ViewEntry(descriptor=self._decode_descriptor(reader), age=reader.u32())
            for _ in range(reader.u16())
        )


def _gossip_encoder(codec: Codec, writer: _Writer, message: Any) -> None:
    """Payload encoder shared by all four gossip message types."""
    codec._encode_entries(writer, tuple(message.entries))


def _gossip_decoder(
    message_type: Type,
) -> Callable[[Codec, _Reader], Any]:
    """Build the payload decoder for one gossip message type."""

    def decode(codec: Codec, reader: _Reader) -> Any:
        return message_type(entries=codec._decode_entries(reader))

    return decode


_ENCODERS: Dict[Type, Tuple[int, Callable[[Codec, _Writer, Any], None]]] = {
    QueryMessage: (_TYPE_QUERY, Codec._encode_query_message),
    ReplyMessage: (_TYPE_REPLY, Codec._encode_reply_message),
    CyclonRequest: (_TYPE_CYCLON_REQUEST, _gossip_encoder),
    CyclonReply: (_TYPE_CYCLON_REPLY, _gossip_encoder),
    VicinityRequest: (_TYPE_VICINITY_REQUEST, _gossip_encoder),
    VicinityReply: (_TYPE_VICINITY_REPLY, _gossip_encoder),
    Fragment: (_TYPE_FRAGMENT, Codec._encode_fragment),
    FragmentAck: (_TYPE_ACK, Codec._encode_ack),
}

_DECODERS: Dict[int, Callable[[Codec, _Reader], Any]] = {
    _TYPE_QUERY: Codec._decode_query_message,
    _TYPE_REPLY: Codec._decode_reply_message,
    _TYPE_CYCLON_REQUEST: _gossip_decoder(CyclonRequest),
    _TYPE_CYCLON_REPLY: _gossip_decoder(CyclonReply),
    _TYPE_VICINITY_REQUEST: _gossip_decoder(VicinityRequest),
    _TYPE_VICINITY_REPLY: _gossip_decoder(VicinityReply),
    _TYPE_FRAGMENT: Codec._decode_fragment,
    _TYPE_ACK: Codec._decode_ack,
}
