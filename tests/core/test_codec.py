"""Property tests for the wire codec: bit-exact round trips, byte identity
with a field-at-a-time reference encoder, and fail-closed decoding and
encoding."""

import dataclasses
import math
import struct
import timeit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attributes import AttributeSchema, categorical, numeric
from repro.core.codec import (
    FRAGMENT_OVERHEAD,
    MAGIC,
    MAX_MEMO_RECORDS,
    MAX_MEMO_SECTIONS,
    VERSION,
    Codec,
    CodecError,
    Fragment,
    FragmentAck,
    _HEADER,
)
from repro.core.descriptors import NodeDescriptor
from repro.core.messages import QueryMessage, ReplyMessage
from repro.core.query import CategoricalSet, Query, ValueRange
from repro.gossip.messages import (
    CyclonReply,
    CyclonRequest,
    VicinityReply,
    VicinityRequest,
)
from repro.gossip.view import ViewEntry

SCHEMA = AttributeSchema.regular(
    [
        numeric("cpu", 0, 100),
        numeric("mem_mb", 0, 8192),
        categorical("os", ["linux", "bsd", "darwin"]),
    ],
    max_level=3,
)

CODEC = Codec(SCHEMA)

addresses = st.integers(min_value=0, max_value=2**40)
finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)
query_ids = st.tuples(addresses, st.integers(min_value=0, max_value=2**40))


@st.composite
def descriptors(draw):
    """Arbitrary descriptors, including hand-built coordinate tuples."""
    if draw(st.booleans()):
        values = tuple(
            draw(st.floats(min_value=0, max_value=hi, allow_nan=False))
            for hi in (100.0, 8192.0, 2.0)
        )
        return NodeDescriptor.from_numeric(draw(addresses), SCHEMA, values)
    # Direct construction: values and cell need not agree, but the cell
    # must lie on the schema's grid for the codec to carry it.
    top = SCHEMA.cells_per_dimension - 1
    return NodeDescriptor(
        draw(addresses),
        tuple(draw(finite) for _ in range(SCHEMA.dimensions)),
        *SCHEMA.intern_cell(
            tuple(draw(st.integers(0, top)) for _ in range(SCHEMA.dimensions))
        ),
    )


def off_grid(address, values, coordinates):
    """A descriptor naming no cell of SCHEMA: it encodes, but never decodes."""
    return NodeDescriptor(address, values, coordinates, code=0)


@st.composite
def value_ranges(draw):
    """Well-formed (low <= high, possibly open-ended) value ranges."""
    low = draw(st.none() | finite)
    high = draw(st.none() | finite)
    if low is not None and high is not None and low > high:
        low, high = high, low
    return ValueRange(low, high)


@st.composite
def queries(draw):
    """Queries mixing range and categorical constraints + dynamic ones."""
    constraints = []
    if draw(st.booleans()):
        constraints.append(("cpu", draw(value_ranges())))
    if draw(st.booleans()):
        constraints.append(("mem_mb", draw(value_ranges())))
    if draw(st.booleans()):
        ordinals = draw(st.sets(st.integers(0, 2), min_size=1, max_size=3))
        constraints.append(("os", CategoricalSet(frozenset(ordinals))))
    dynamic = []
    if draw(st.booleans()):
        dynamic.append(("free_disk_gb", draw(value_ranges())))
    return Query(
        schema=SCHEMA,
        constraints=tuple(constraints),
        dynamic_constraints=tuple(dynamic),
    )


@st.composite
def query_messages(draw):
    """Arbitrary QUERY messages, at the schema's arity and off it."""
    query = draw(queries())
    range_count = draw(st.sampled_from([SCHEMA.dimensions, 0, 1, 5]))
    return QueryMessage(
        query_id=draw(query_ids),
        sender=draw(addresses),
        query=query,
        index_ranges=tuple(
            (draw(st.integers(0, 7)), draw(st.integers(0, 7)))
            for _ in range(range_count)
        ),
        sigma=draw(st.none() | st.integers(min_value=0, max_value=2**31)),
        level=draw(st.integers(min_value=-1, max_value=SCHEMA.max_level)),
        dimensions=sum(
            1 << dim
            for dim in draw(
                st.sets(st.integers(0, SCHEMA.dimensions + 2), max_size=5)
            )
        ),
        budget=draw(st.floats(min_value=0.0, max_value=3600.0, allow_nan=False)),
    )


@st.composite
def reply_messages(draw):
    """Arbitrary REPLY messages carrying descriptor payloads."""
    return ReplyMessage(
        query_id=draw(query_ids),
        sender=draw(addresses),
        matching=tuple(draw(st.lists(descriptors(), max_size=8))),
        coverage=draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
        duplicate=draw(st.booleans()),
    )


view_entries = st.builds(
    ViewEntry,
    descriptor=descriptors(),
    age=st.integers(min_value=0, max_value=2**31),
)


def roundtrip(sender, message):
    """Encode, decode, and return the decoded (sender, message) pair."""
    return CODEC.decode(CODEC.encode(sender, message))


# -- reference encoder ---------------------------------------------------------
#
# The wire layout written out one field at a time, one ``struct.pack`` per
# field, independent of the codec's compiled layouts. Round trips alone
# cannot catch a reordered field whose decoder was reordered to match;
# byte identity against this oracle can.


def _field(fmt, value):
    return struct.pack(">" + fmt, value)


def _reference_descriptor(descriptor):
    parts = [_field("q", descriptor.address), _field("B", len(descriptor.values))]
    parts += [_field("d", value) for value in descriptor.values]
    parts.append(_field("B", len(descriptor.coordinates)))
    parts += [_field("i", coordinate) for coordinate in descriptor.coordinates]
    return b"".join(parts)


def _reference_constraint(constraint):
    if isinstance(constraint, CategoricalSet):
        ordinals = sorted(constraint.ordinals)
        return b"".join(
            [_field("B", 1), _field("H", len(ordinals))]
            + [_field("q", ordinal) for ordinal in ordinals]
        )
    parts = [
        _field("B", 0),
        _field(
            "B",
            (0 if constraint.low is None else 1)
            | (0 if constraint.high is None else 2),
        ),
    ]
    if constraint.low is not None:
        parts.append(_field("d", constraint.low))
    if constraint.high is not None:
        parts.append(_field("d", constraint.high))
    return b"".join(parts)


def _reference_query(query):
    parts = []
    for constraints in (query.constraints, query.dynamic_constraints):
        parts.append(_field("H", len(constraints)))
        for name, constraint in constraints:
            raw = name.encode("utf-8")
            parts += [_field("H", len(raw)), raw, _reference_constraint(constraint)]
    return b"".join(parts)


def _reference_payload(message):
    """``(frame type, payload bytes)`` of *message*, field by field."""
    if isinstance(message, QueryMessage):
        parts = [
            _field("q", message.query_id[0]),
            _field("q", message.query_id[1]),
            _field("q", message.sender),
            _reference_query(message.query),
            _field("B", len(message.index_ranges)),
        ]
        for low, high in message.index_ranges:
            parts += [_field("i", low), _field("i", high)]
        if message.sigma is None:
            parts.append(_field("B", 0))
        else:
            parts += [_field("B", 1), _field("q", message.sigma)]
        dims = [
            dim
            for dim in range(message.dimensions.bit_length())
            if message.dimensions >> dim & 1
        ]
        parts += [_field("i", message.level), _field("H", len(dims))]
        parts += [_field("H", dim) for dim in dims]
        parts.append(_field("d", message.budget))
        return 1, b"".join(parts)
    if isinstance(message, ReplyMessage):
        parts = [
            _field("q", message.query_id[0]),
            _field("q", message.query_id[1]),
            _field("q", message.sender),
            _field("I", len(message.matching)),
        ]
        parts += [_reference_descriptor(d) for d in message.matching]
        parts += [
            _field("d", message.coverage),
            _field("B", 1 if message.duplicate else 0),
        ]
        return 2, b"".join(parts)
    gossip_types = {
        CyclonRequest: 3,
        CyclonReply: 4,
        VicinityRequest: 5,
        VicinityReply: 6,
    }
    if type(message) in gossip_types:
        parts = [_field("H", len(message.entries))]
        for entry in message.entries:
            parts += [_reference_descriptor(entry.descriptor), _field("I", entry.age)]
        return gossip_types[type(message)], b"".join(parts)
    if isinstance(message, Fragment):
        return 7, b"".join(
            [
                _field("q", message.message_id),
                _field("H", message.index),
                _field("H", message.count),
                message.chunk,
            ]
        )
    assert isinstance(message, FragmentAck)
    return 8, _field("q", message.message_id) + _field("H", message.index)


def reference_encode(sender, message):
    """The frame of *message* from *sender*, one field at a time."""
    frame_type, payload = _reference_payload(message)
    return (
        struct.pack(">HBBqI", 0xA55E, 1, frame_type, sender, len(payload))
        + payload
    )


# -- fixed frames for the fail-closed tests -----------------------------------

SCHEMA_DESCRIPTORS = tuple(
    NodeDescriptor.build(address, SCHEMA, values)
    for address, values in (
        (11, {"cpu": 10, "mem_mb": 512, "os": "linux"}),
        (12, {"cpu": 55.5, "mem_mb": 4096, "os": "bsd"}),
        (13, {"cpu": 99, "mem_mb": 8000, "os": "darwin"}),
    )
)

OFF_ARITY_DESCRIPTORS = (
    off_grid(21, (), ()),
    off_grid(22, (1.5, 2.5, 3.5, 4.5, 5.5), (1,)),
    off_grid(23, (0.25,), (7, 8, 9, 10)),
    off_grid(24, (0.5, 0.5), (1, 2, 3)),
    off_grid(25, (0.5, 0.5, 0.5), (1, 2)),
)

#: Grid corners: the first and last cell of every dimension.
CORNER_DESCRIPTORS = (
    NodeDescriptor(31, (-1.0, -1.0, -1.0), *SCHEMA.intern_cell((0, 0, 0))),
    NodeDescriptor(32, (1e9, 1e9, 1e9), *SCHEMA.intern_cell((7, 7, 7))),
)

RICH_QUERY = QueryMessage(
    query_id=(3, 1),
    sender=3,
    query=Query(
        schema=SCHEMA,
        constraints=(
            ("cpu", ValueRange(10.0, None)),
            ("os", CategoricalSet(frozenset({0, 2}))),
        ),
        dynamic_constraints=(("free_disk_gb", ValueRange(None, 50.0)),),
    ),
    index_ranges=((1, 7), (0, 7), (0, 2)),
    sigma=None,
    level=2,
    dimensions=0,
)

FIXED_MESSAGES = {
    "reply-schema-arity": ReplyMessage(
        query_id=(5, 2), sender=6, matching=SCHEMA_DESCRIPTORS, coverage=0.75
    ),
    "reply-off-arity": ReplyMessage(
        query_id=(5, 3), sender=6, matching=OFF_ARITY_DESCRIPTORS, duplicate=True
    ),
    "query-categorical-dynamic": RICH_QUERY,
    "gossip-entries": VicinityReply(
        entries=(
            ViewEntry(descriptor=SCHEMA_DESCRIPTORS[0], age=4),
            ViewEntry(descriptor=CORNER_DESCRIPTORS[0], age=0),
            ViewEntry(descriptor=CORNER_DESCRIPTORS[1], age=2**31),
        )
    ),
}

#: Fixed frames the encoder emits but the decoder must refuse.
REJECTED_FRAMES = {"reply-off-arity"}


class TestRoundTrips:
    @given(sender=addresses, message=query_messages())
    @settings(max_examples=200, deadline=None)
    def test_query_message(self, sender, message):
        got_sender, got = roundtrip(sender, message)
        assert got_sender == sender
        assert got == message
        # The schema is compare=False on Query; pin it explicitly.
        assert got.query.schema is SCHEMA
        assert got.query.dynamic_constraints == message.query.dynamic_constraints

    @given(sender=addresses, message=reply_messages())
    @settings(max_examples=200, deadline=None)
    def test_reply_message(self, sender, message):
        got_sender, got = roundtrip(sender, message)
        assert got_sender == sender
        assert got == message
        for ours, theirs in zip(message.matching, got.matching):
            assert ours.values == theirs.values
            assert ours.coordinates == theirs.coordinates

    @given(
        sender=addresses,
        entries=st.lists(view_entries, max_size=6),
        message_type=st.sampled_from(
            [CyclonRequest, CyclonReply, VicinityRequest, VicinityReply]
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_gossip_messages(self, sender, entries, message_type):
        message = message_type(entries=tuple(entries))
        got_sender, got = roundtrip(sender, message)
        assert got_sender == sender
        assert type(got) is message_type
        assert got == message

    def test_decoded_coordinates_are_interned(self):
        descriptor = NodeDescriptor.build(
            7, SCHEMA, {"cpu": 50, "mem_mb": 1024, "os": "linux"}
        )
        reply = ReplyMessage(query_id=(7, 0), sender=7, matching=(descriptor,))
        _, got = roundtrip(7, reply)
        assert got.matching[0].coordinates is descriptor.coordinates
        assert got.matching[0].code == descriptor.code

    def test_float_fidelity_is_bit_exact(self):
        tricky = (
            (0.1 + 0.2, math.nextafter(1.0, 2.0), 1e-300),
            (-0.0, 5e-324, -math.inf),
        )
        matching = tuple(
            NodeDescriptor(1, values, *SCHEMA.intern_cell((0, 0, 0)))
            for values in tricky
        )
        _, got = roundtrip(1, ReplyMessage((1, 0), 1, matching))
        for values, descriptor in zip(tricky, got.matching):
            assert all(
                struct.pack(">d", a) == struct.pack(">d", b)
                for a, b in zip(values, descriptor.values)
            )


gossip_messages = st.builds(
    lambda message_type, entries: message_type(entries=tuple(entries)),
    st.sampled_from([CyclonRequest, CyclonReply, VicinityRequest, VicinityReply]),
    st.lists(view_entries, max_size=6),
)


class TestByteIdentity:
    """The compiled layouts emit exactly the field-by-field bytes."""

    @given(
        sender=addresses,
        message=st.one_of(
            query_messages(),
            reply_messages(),
            gossip_messages,
            st.builds(
                Fragment,
                message_id=st.integers(-(2**62), 2**62),
                index=st.integers(0, 0xFFFF),
                count=st.integers(0, 0xFFFF),
                chunk=st.binary(max_size=64),
            ),
            st.builds(
                FragmentAck,
                message_id=st.integers(-(2**62), 2**62),
                index=st.integers(0, 0xFFFF),
            ),
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_every_message_type(self, sender, message):
        assert CODEC.encode(sender, message) == reference_encode(sender, message)

    @pytest.mark.parametrize("name", sorted(FIXED_MESSAGES))
    def test_fixed_frames(self, name):
        message = FIXED_MESSAGES[name]
        frame = CODEC.encode(9, message)
        assert frame == reference_encode(9, message)
        if name in REJECTED_FRAMES:
            with pytest.raises(CodecError, match="dimensions"):
                CODEC.decode(frame)
        else:
            assert CODEC.decode(frame) == (9, message)


class TestRejection:
    def frame(self):
        message = QueryMessage(
            query_id=(3, 1),
            sender=3,
            query=Query.where(SCHEMA, cpu=(10, 90)),
            index_ranges=((0, 7), (0, 7), (0, 2)),
            sigma=5,
            level=3,
            dimensions=0b111,
        )
        return CODEC.encode(3, message)

    @given(data=st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes_never_crash(self, data):
        try:
            CODEC.decode(data)
        except CodecError:
            pass  # the only acceptable failure mode

    def test_every_truncation_is_rejected(self):
        frame = self.frame()
        for cut in range(len(frame)):
            with pytest.raises(CodecError):
                CODEC.decode(frame[:cut])

    def test_trailing_garbage_is_rejected(self):
        with pytest.raises(CodecError):
            CODEC.decode(self.frame() + b"\x00")

    def test_bad_magic(self):
        frame = bytearray(self.frame())
        frame[0] ^= 0xFF
        with pytest.raises(CodecError, match="magic"):
            CODEC.decode(bytes(frame))

    def test_unsupported_version(self):
        frame = bytearray(self.frame())
        frame[2] = VERSION + 1
        with pytest.raises(CodecError, match="version"):
            CODEC.decode(bytes(frame))

    def test_unknown_message_type(self):
        frame = bytearray(self.frame())
        frame[3] = 0x7F
        with pytest.raises(CodecError, match="type"):
            CODEC.decode(bytes(frame))

    def test_lying_length_field(self):
        frame = self.frame()
        header = bytearray(frame[:_HEADER.size])
        magic, version, ftype, sender, length = _HEADER.unpack(bytes(header))
        for lie in (length - 1, length + 1):
            bad = _HEADER.pack(magic, version, ftype, sender, lie)
            with pytest.raises(CodecError, match="length|large"):
                CODEC.decode(bad + frame[_HEADER.size:])

    def test_oversized_declared_length(self):
        bad = _HEADER.pack(MAGIC, VERSION, 1, 0, 2**31)
        with pytest.raises(CodecError, match="large"):
            CODEC.decode(bad)

    def test_unencodable_object_raises(self):
        with pytest.raises(CodecError, match="unencodable"):
            CODEC.encode(0, object())


def reply_frame(descriptor_bytes, count=1):
    """A REPLY frame around hand-built descriptor record bytes."""
    payload = (
        struct.pack(">qqqI", 1, 0, 1, count)
        + descriptor_bytes
        + struct.pack(">dB", 1.0, 0)
    )
    return _HEADER.pack(MAGIC, VERSION, 2, 1, len(payload)) + payload


class TestFailClosed:
    """Every malformed frame raises CodecError; so does every unencodable one."""

    @pytest.mark.parametrize("name", sorted(FIXED_MESSAGES))
    def test_every_truncation_is_rejected(self, name):
        frame = CODEC.encode(9, FIXED_MESSAGES[name])
        for cut in range(len(frame)):
            with pytest.raises(CodecError):
                CODEC.decode(frame[:cut])

    @pytest.mark.parametrize("name", sorted(FIXED_MESSAGES))
    def test_every_single_byte_corruption_fails_closed(self, name):
        frame = CODEC.encode(9, FIXED_MESSAGES[name])
        for position in range(_HEADER.size, len(frame)):
            for byte in (0x00, 0x7F, 0xFF):
                corrupt = bytearray(frame)
                corrupt[position] = byte
                try:
                    CODEC.decode(bytes(corrupt))
                except CodecError:
                    pass  # the only acceptable failure mode

    def test_value_count_beyond_the_frame_is_rejected(self):
        record = struct.pack(">qB", 7, 200) + struct.pack(">3d", 1.0, 2.0, 3.0)
        with pytest.raises(CodecError, match="truncated"):
            CODEC.decode(reply_frame(record))

    def test_coordinate_count_beyond_the_frame_is_rejected(self):
        record = (
            struct.pack(">qB3d", 7, 3, 1.0, 2.0, 3.0)
            + struct.pack(">B", 40)
            + struct.pack(">3i", 1, 2, 3)
        )
        with pytest.raises(CodecError, match="truncated"):
            CODEC.decode(reply_frame(record))

    @pytest.mark.parametrize("descriptor", OFF_ARITY_DESCRIPTORS)
    def test_off_arity_record_is_rejected(self, descriptor):
        with pytest.raises(CodecError, match="dimensions"):
            CODEC.decode(reply_frame(_reference_descriptor(descriptor)))

    @pytest.mark.parametrize(
        "coordinates",
        [(8, 0, 0), (0, -1, 0), (0, 0, 2**31 - 1), (1000, -5, 9)],
    )
    def test_off_grid_coordinates_are_rejected_and_never_interned(
        self, coordinates
    ):
        descriptor = off_grid(7, (1.0, 2.0, 0.0), coordinates)
        record = _reference_descriptor(descriptor)
        interned = len(SCHEMA._intern)
        for _ in range(3):
            with pytest.raises(CodecError, match="grid"):
                CODEC.decode(reply_frame(record))
        assert len(SCHEMA._intern) == interned

    def test_descriptor_count_beyond_the_frame_is_rejected(self):
        record = _reference_descriptor(SCHEMA_DESCRIPTORS[0])
        with pytest.raises(CodecError, match="truncated"):
            CODEC.decode(reply_frame(record, count=2))

    @pytest.mark.parametrize(
        "descriptor",
        [
            off_grid(1, (1.0,), (2**31,)),
            off_grid(1, (1.0,), (-(2**31) - 1,)),
            off_grid(2**63, (), ()),
            off_grid(1, (0.5,) * 256, ()),
            off_grid(1, (), (0,) * 256),
            dataclasses.replace(SCHEMA_DESCRIPTORS[0], address=-(2**63) - 1),
        ],
    )
    def test_descriptor_field_beyond_its_width_raises_codec_error(
        self, descriptor
    ):
        for message in (
            ReplyMessage(query_id=(1, 0), sender=1, matching=(descriptor,)),
            CyclonRequest(entries=(ViewEntry(descriptor=descriptor, age=0),)),
        ):
            with pytest.raises(CodecError, match="wire width"):
                CODEC.encode(1, message)

    @pytest.mark.parametrize(
        "change",
        [
            {"query_id": (2**63, 0)},
            {"sender": -(2**63) - 1},
            {"index_ranges": ((0, 2**31),) * 3},
            {"index_ranges": ((0, 1),) * 256},
            {"sigma": 2**63},
            {"level": 2**31},
            {"dimensions": 1 << 0x10000},
            {"dimensions": -1},
        ],
    )
    def test_query_field_beyond_its_width_raises_codec_error(self, change):
        fields = {
            name: getattr(RICH_QUERY, name)
            for name in (
                "query_id", "sender", "query", "index_ranges", "sigma",
                "level", "dimensions", "budget",
            )
        }
        fields.update(change)
        with pytest.raises(CodecError, match="wire width"):
            CODEC.encode(1, QueryMessage(**fields))

    def test_maximal_dimension_count_decodes_in_linear_time(self):
        """65,535 wire dimensions near 65535 decode as fast as near 0.

        The entries are wire-controlled: building the bitmask one OR at
        a time copies an 8 KB integer per entry when the values are
        high, an order of magnitude slower than for small values.
        """
        count = 0xFFFF
        frame = CODEC.encode(
            1, dataclasses.replace(RICH_QUERY, dimensions=(1 << count) - 1)
        )
        start, stop = len(frame) - 8 - 2 * count, len(frame) - 8

        def with_dimensions(value):
            entries = struct.pack(f">{count}H", *[value] * count)
            return frame[:start] + entries + frame[stop:]

        high, low = with_dimensions(0xFFFF), with_dimensions(0)
        assert CODEC.decode(high)[1].dimensions == 1 << 0xFFFF
        assert CODEC.decode(low)[1].dimensions == 1

        def fastest(frame):
            return min(
                timeit.repeat(lambda: CODEC.decode(frame), number=1, repeat=5)
            )

        assert fastest(high) < 3 * fastest(low)

    def test_frame_sender_beyond_its_width_raises_codec_error(self):
        with pytest.raises(CodecError, match="wire width"):
            CODEC.encode(2**63, FragmentAck(message_id=1, index=0))


message_ids = st.integers(min_value=-(2**62), max_value=2**62)


@st.composite
def fragments(draw):
    """Arbitrary well-formed fragments (index < count, non-empty chunk)."""
    count = draw(st.integers(min_value=1, max_value=0xFFFF))
    return Fragment(
        message_id=draw(message_ids),
        index=draw(st.integers(min_value=0, max_value=count - 1)),
        count=count,
        chunk=draw(st.binary(min_size=1, max_size=256)),
    )


class TestFragmentRoundTrips:
    @given(sender=addresses, message=fragments())
    @settings(max_examples=200, deadline=None)
    def test_fragment(self, sender, message):
        got_sender, got = roundtrip(sender, message)
        assert got_sender == sender
        assert got == message
        assert got.chunk == message.chunk  # bytes, bit-for-bit

    @given(
        sender=addresses,
        message_id=message_ids,
        index=st.integers(min_value=0, max_value=0xFFFF),
    )
    @settings(max_examples=100, deadline=None)
    def test_ack(self, sender, message_id, index):
        got_sender, got = roundtrip(
            sender, FragmentAck(message_id=message_id, index=index)
        )
        assert got_sender == sender
        assert got == FragmentAck(message_id=message_id, index=index)

    @given(
        payload=st.binary(min_size=1, max_size=4096),
        max_datagram=st.integers(
            min_value=_HEADER.size + FRAGMENT_OVERHEAD + 1, max_value=512
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_fragmentation_reassembles_bit_identically(
        self, payload, max_datagram
    ):
        """fragment() slices any frame so the joined chunks restore it."""
        inner = CODEC.encode(
            5, ReplyMessage(query_id=(5, 1), sender=5, matching=())
        )
        inner += b""  # the inner frame itself is what gets sliced
        datagrams = CODEC.fragment(5, 42, payload, max_datagram)
        assert all(len(d) <= max_datagram for d in datagrams)
        pieces = {}
        count = None
        for datagram in datagrams:
            sender, frag = CODEC.decode(datagram)
            assert sender == 5
            assert isinstance(frag, Fragment)
            assert frag.message_id == 42
            count = frag.count
            pieces[frag.index] = frag.chunk
        assert len(pieces) == count == len(datagrams)
        joined = b"".join(pieces[i] for i in range(count))
        assert joined == payload

    def test_fragment_cap_too_small_raises(self):
        with pytest.raises(CodecError, match="no room"):
            CODEC.fragment(1, 1, b"x" * 100, _HEADER.size + FRAGMENT_OVERHEAD)

    def test_fragment_count_overflow_raises(self):
        cap = _HEADER.size + FRAGMENT_OVERHEAD + 1  # one byte per fragment
        with pytest.raises(CodecError, match="65535"):
            CODEC.fragment(1, 1, b"x" * 0x10000, cap)


class TestFragmentRejection:
    def fragment_frame(self, **overrides):
        fields = dict(message_id=9, index=0, count=2, chunk=b"abc")
        fields.update(overrides)
        return CODEC.encode(4, Fragment(**fields))

    def test_every_truncation_is_rejected(self):
        frame = self.fragment_frame()
        for cut in range(len(frame)):
            with pytest.raises(CodecError):
                CODEC.decode(frame[:cut])

    def test_every_ack_truncation_is_rejected(self):
        frame = CODEC.encode(4, FragmentAck(message_id=9, index=1))
        for cut in range(len(frame)):
            with pytest.raises(CodecError):
                CODEC.decode(frame[:cut])

    def test_zero_count_is_rejected(self):
        # Hand-build the payload: encode() would happily emit count=0 but
        # a hostile peer can too, and decode must refuse it.
        payload = struct.pack(">qHH", 9, 0, 0) + b"abc"
        frame = _HEADER.pack(MAGIC, VERSION, 7, 4, len(payload)) + payload
        with pytest.raises(CodecError, match="zero count"):
            CODEC.decode(frame)

    def test_index_beyond_count_is_rejected(self):
        payload = struct.pack(">qHH", 9, 3, 2) + b"abc"
        frame = _HEADER.pack(MAGIC, VERSION, 7, 4, len(payload)) + payload
        with pytest.raises(CodecError, match="index"):
            CODEC.decode(frame)

    def test_empty_chunk_is_rejected(self):
        payload = struct.pack(">qHH", 9, 0, 2)
        frame = _HEADER.pack(MAGIC, VERSION, 7, 4, len(payload)) + payload
        with pytest.raises(CodecError, match="empty chunk"):
            CODEC.decode(frame)

    @given(data=st.binary(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_random_fragment_payloads_never_crash(self, data):
        frame = _HEADER.pack(MAGIC, VERSION, 7, 4, len(data)) + data
        try:
            CODEC.decode(frame)
        except CodecError:
            pass  # the only acceptable failure mode


# -- memos ---------------------------------------------------------------------


def outcome(codec, frame):
    """What *codec* makes of *frame*: ``(sender, message)`` or "rejected"."""
    try:
        return codec.decode(frame)
    except CodecError:
        return "rejected"


def memo_sizes(codec):
    return (
        len(codec._sections_out), len(codec._sections_in),
        len(codec._records_out), len(codec._records_in),
    )


@st.composite
def frame_sequences(draw):
    """Frames one long-lived codec may meet, built by the reference encoder.

    Further hops of earlier queries (same section, new head and tail),
    the same query id with another section, replies that repeat earlier
    records, off-arity records beside them, and truncated or corrupted
    copies of frames earlier in the sequence, repeats included.
    """
    queries_ = draw(st.lists(query_messages(), min_size=1, max_size=3))
    replies = draw(st.lists(reply_messages(), min_size=1, max_size=3))
    frames = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kind = draw(st.sampled_from([
            "hop", "resection", "reply", "off-arity", "truncate",
            "corrupt", "repeat",
        ]))
        if kind == "hop":
            message = dataclasses.replace(
                draw(st.sampled_from(queries_)),
                sender=draw(addresses),
                level=draw(st.integers(-1, SCHEMA.max_level)),
                dimensions=draw(st.integers(0, 7)),
            )
        elif kind == "resection":
            message = dataclasses.replace(
                draw(query_messages()),
                query_id=draw(st.sampled_from(queries_)).query_id,
            )
        elif kind in ("reply", "off-arity"):
            message = draw(st.sampled_from(replies))
            matching = list(draw(st.permutations(message.matching)))
            if kind == "off-arity":
                matching.insert(
                    draw(st.integers(0, len(matching))),
                    draw(st.sampled_from(OFF_ARITY_DESCRIPTORS)),
                )
            message = dataclasses.replace(message, matching=tuple(matching))
        elif not any(frames):
            continue
        else:
            frame = draw(st.sampled_from([frame for frame in frames if frame]))
            if kind == "truncate":
                frame = frame[:draw(st.integers(0, len(frame) - 1))]
            elif kind == "corrupt":
                damaged = bytearray(frame)
                damaged[draw(st.integers(0, len(frame) - 1))] = draw(
                    st.integers(0, 255)
                )
                frame = bytes(damaged)
            frames.append(frame)
            continue
        frames.append(reference_encode(draw(addresses), message))
    return frames


class TestMemos:
    """A long-lived codec decodes and encodes exactly like a fresh one."""

    @given(frames=frame_sequences())
    @settings(max_examples=300, deadline=None)
    def test_long_lived_codec_matches_a_fresh_one(self, frames):
        codec = Codec(SCHEMA)
        for frame in frames:
            got = outcome(codec, frame)
            assert got == outcome(Codec(SCHEMA), frame)
            if got != "rejected":
                sender, message = got
                assert codec.encode(sender, message) == reference_encode(
                    sender, message
                )

    @pytest.mark.parametrize(
        "name", ["query-categorical-dynamic", "reply-schema-arity"]
    )
    def test_every_single_byte_corruption_of_a_memoized_frame(self, name):
        codec = Codec(SCHEMA)
        frame = CODEC.encode(9, FIXED_MESSAGES[name])
        assert codec.decode(frame) == (9, FIXED_MESSAGES[name])
        for position in range(len(frame)):
            for byte in {0x00, 0x7F, 0xFF, frame[position] ^ 1}:
                corrupt = bytearray(frame)
                corrupt[position] = byte
                corrupt = bytes(corrupt)
                assert outcome(codec, corrupt) == outcome(Codec(SCHEMA), corrupt)
            # What a corruption parsed to never stands in for the original.
            assert codec.decode(frame) == (9, FIXED_MESSAGES[name])

    @pytest.mark.parametrize(
        "name", ["query-categorical-dynamic", "reply-schema-arity"]
    )
    def test_every_truncation_of_a_memoized_frame_is_rejected(self, name):
        codec = Codec(SCHEMA)
        frame = CODEC.encode(9, FIXED_MESSAGES[name])
        codec.decode(frame)
        for cut in range(len(frame)):
            with pytest.raises(CodecError):
                codec.decode(frame[:cut])
            # The truncated frame's own length, declared honestly.
            payload = frame[_HEADER.size:cut]
            relabelled = _HEADER.pack(
                MAGIC, VERSION, frame[3], 9, len(payload)
            ) + payload
            assert outcome(codec, relabelled) == "rejected"

    @pytest.mark.parametrize("descriptor", OFF_ARITY_DESCRIPTORS)
    def test_off_arity_records_beside_memoized_ones_are_rejected(
        self, descriptor
    ):
        codec = Codec(SCHEMA)
        codec.decode(CODEC.encode(9, FIXED_MESSAGES["reply-schema-arity"]))
        for position in range(len(SCHEMA_DESCRIPTORS) + 1):
            matching = list(SCHEMA_DESCRIPTORS)
            matching.insert(position, descriptor)
            frame = reference_encode(
                9, ReplyMessage((5, 2), 6, tuple(matching))
            )
            with pytest.raises(CodecError, match="dimensions"):
                codec.decode(frame)

    def test_another_section_under_a_known_id_is_parsed(self):
        codec = Codec(SCHEMA)
        codec.decode(CODEC.encode(3, RICH_QUERY))
        other = dataclasses.replace(
            RICH_QUERY, query=Query.where(SCHEMA, cpu=(0, 5)), sigma=4
        )
        assert codec.decode(reference_encode(3, other)) == (3, other)

    def test_hops_of_one_query_share_what_they_decode_to(self):
        """The seen-LRU of every node in a process keeps one id object."""
        codec = Codec(SCHEMA)
        _, first = codec.decode(CODEC.encode(3, RICH_QUERY))
        hop = dataclasses.replace(
            RICH_QUERY, sender=4, level=1, dimensions=0b101, budget=7.5
        )
        _, second = codec.decode(CODEC.encode(4, hop))
        assert second == hop
        assert second.query_id is first.query_id
        assert second.query is first.query
        assert second.index_ranges is first.index_ranges

    def test_forwarding_what_arrived_packs_nothing_again(self, monkeypatch):
        codec = Codec(SCHEMA)
        _, query = codec.decode(reference_encode(3, RICH_QUERY))
        _, reply = codec.decode(
            reference_encode(6, FIXED_MESSAGES["reply-schema-arity"])
        )

        def packed_again(*args):
            raise AssertionError("packed again")

        monkeypatch.setattr(Codec, "_pack_section", packed_again)
        monkeypatch.setattr(Codec, "_pack_record", packed_again)
        for sender, message in (
            (4, dataclasses.replace(query, sender=4, level=1)),
            (9, dataclasses.replace(reply, sender=9)),
        ):
            assert codec.encode(sender, message) == reference_encode(
                sender, message
            )

    @pytest.mark.parametrize(
        "ordinals, flags, sigma_flag",
        [
            ((0, 2), 1, 1),  # canonical: forwarded as it arrived
            ((2, 0), 1, 1),  # unsorted ordinals
            ((0, 0, 2), 1, 1),  # a repeated ordinal
            ((0, 2), 5, 1),  # a spare range flag bit
            ((0, 2), 1, 2),  # a sigma flag other than 1
        ],
    )
    def test_a_non_canonical_section_is_packed_afresh(
        self, ordinals, flags, sigma_flag
    ):
        """Forwarding sends the encoder's bytes, whatever a peer sent."""
        section = b"".join(
            [_field("H", 2), _field("H", 3), b"cpu", _field("B", 0),
             _field("B", flags), _field("d", 10.0),
             _field("H", 2), b"os", _field("B", 1),
             _field("H", len(ordinals))]
            + [_field("q", ordinal) for ordinal in ordinals]
            + [_field("H", 0), _field("B", 0), _field("B", sigma_flag),
               _field("q", 5)]
        )
        payload = (
            struct.pack(">qqq", 3, 8, 3) + section
            + struct.pack(">iHd", 1, 0, 30.0)
        )
        frame = _HEADER.pack(MAGIC, VERSION, 1, 3, len(payload)) + payload
        codec = Codec(SCHEMA)
        _, message = codec.decode(frame)
        assert (3, message) == Codec(SCHEMA).decode(frame)
        assert message.query == Query.where(
            SCHEMA, cpu=(10, None), os=["linux", "darwin"]
        )
        hop = dataclasses.replace(message, sender=4, level=0)
        assert codec.encode(4, hop) == reference_encode(4, hop)

    def test_memos_stay_within_their_bounds(self):
        codec = Codec(SCHEMA)
        for counter in range(MAX_MEMO_SECTIONS + 40):
            message = dataclasses.replace(
                RICH_QUERY,
                query_id=(3, counter),
                query=Query.where(SCHEMA, cpu=(counter, None)),
            )
            assert codec.decode(codec.encode(3, message)) == (3, message)
            assert max(memo_sizes(codec)[:2]) <= MAX_MEMO_SECTIONS
        cell = SCHEMA.intern_cell((1, 2, 0))
        matching = tuple(
            NodeDescriptor(address, (1.0, 2.0, 0.0), *cell)
            for address in range(MAX_MEMO_RECORDS + 40)
        )
        for _ in range(2):
            reply = ReplyMessage((1, 0), 1, matching)
            assert codec.decode(codec.encode(1, reply)) == (1, reply)
            assert max(memo_sizes(codec)[2:]) <= MAX_MEMO_RECORDS
