"""Tests for the wire-message value objects."""

import dataclasses

import pytest

from repro.core.attributes import AttributeSchema, numeric
from repro.core.descriptors import NodeDescriptor
from repro.core.messages import QueryMessage, ReplyMessage
from repro.core.query import Query


@pytest.fixture
def schema():
    return AttributeSchema.regular([numeric("x", 0, 8)], max_level=3)


def make_query_message(schema, **overrides):
    query = Query.where(schema, x=(2, 5))
    fields = dict(
        query_id=(0, 0),
        sender=0,
        query=query,
        index_ranges=query.index_ranges(),
        sigma=None,
        level=3,
        dimensions=0b1,
    )
    fields.update(overrides)
    return QueryMessage(**fields)


class TestQueryMessage:
    def test_immutable(self, schema):
        message = make_query_message(schema)
        with pytest.raises(dataclasses.FrozenInstanceError):
            message.level = 1

    def test_default_budget(self, schema):
        assert make_query_message(schema).budget == 30.0

    def test_forwarding_creates_new_value(self, schema):
        original = make_query_message(schema)
        forwarded = dataclasses.replace(
            original, level=2, dimensions=0
        )
        assert original.level == 3
        assert forwarded.level == 2
        assert original.dimensions == 0b1


class TestReplyMessage:
    def test_carries_descriptors(self, schema):
        descriptor = NodeDescriptor.build(4, schema, {"x": 3})
        reply = ReplyMessage(query_id=(0, 1), sender=4, matching=(descriptor,))
        assert reply.matching[0].address == 4

    def test_immutable(self, schema):
        reply = ReplyMessage(query_id=(0, 1), sender=4, matching=())
        with pytest.raises(dataclasses.FrozenInstanceError):
            reply.sender = 5
