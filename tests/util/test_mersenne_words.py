"""Property test: ``mersenne_words`` replays ``random.Random`` word for word.

The converged bootstrap seeds one Mersenne Twister per node in a single
numpy pass. Each column must equal the little-endian words of
``random.Random(seed).getrandbits(32 * count)``, for one-word keys
(seeds below 2**32) and two-word keys alike, at every block length
around the twist's slice boundaries (227, 454, 623) and past one whole
state (624), and whatever the seeding chunk.
"""

import random
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import rng as rng_module
from repro.util.rng import derive_seed, derive_seeds, mersenne_words

#: Seeds at the key-length boundaries: one word up to 2**32 - 1, two
#: words from 2**32 on.
EDGE_SEEDS = [0, 1, 12345, 2**32 - 1, 2**32, 2**64 - 1]
COUNTS = [1, 128, 227, 228, 256, 454, 455, 623, 624, 625, 1248, 1249, 1500]


def oracle(seed, count):
    block = random.Random(seed).getrandbits(32 * count)
    return np.frombuffer(block.to_bytes(4 * count, "little"), dtype="<u4")


def assert_words_match(seeds, count):
    words = mersenne_words(np.array(seeds, dtype=np.uint64), count)
    assert words.shape == (count, len(seeds))
    for column, seed in enumerate(seeds):
        np.testing.assert_array_equal(words[:, column], oracle(seed, count))


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(
        st.one_of(
            st.integers(0, 2**64 - 1),
            st.integers(0, 2**32 - 1),
            st.sampled_from(EDGE_SEEDS),
        ),
        min_size=1,
        max_size=9,
    ),
    count=st.sampled_from(COUNTS),
    chunk=st.sampled_from([1, 4, rng_module._SEED_CHUNK]),
)
def test_words_equal_getrandbits(seeds, count, chunk):
    with mock.patch.object(rng_module, "_SEED_CHUNK", chunk):
        assert_words_match(seeds, count)


def test_edge_seeds_at_every_block_length():
    for count in COUNTS:
        assert_words_match(EDGE_SEEDS, count)


def test_derive_seeds_matches_derive_seed():
    labels = [f"bootstrap:{address}" for address in (0, 1, 7, 40_000)]
    assert derive_seeds(2009, labels).tolist() == [
        derive_seed(2009, label) for label in labels
    ]
    assert derive_seeds(2009, []).shape == (0,)
