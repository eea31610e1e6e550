"""Deterministic random-number management.

Every stochastic component of the library takes an explicit
:class:`random.Random` instance. Experiments hold a single root seed and
derive independent, reproducible streams for sub-components (node placement,
query generation, gossip jitter, churn, ...) with :func:`derive_rng`. The
derivation hashes the root seed together with a string label, so adding a new
consumer never perturbs the streams of existing ones.

Two numpy routines replay CPython's Mersenne Twister in bulk, bit for
bit: :func:`batched_random` draws many doubles from one stream, and
:func:`mersenne_words` seeds many streams at once and returns the first
words of each, as the converged bootstrap
(:meth:`repro.core.store.BootstrapPlan.draw`) needs for one stream per
node.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, List

import numpy as np


def _digest(seed: int, label: str) -> bytes:
    return hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()[:8]


def derive_seed(seed: int, label: str) -> int:
    """The 64-bit integer seed of stream *label* under root *seed*."""
    return int.from_bytes(_digest(seed, label), "big")


def derive_seeds(seed: int, labels: Iterable[str]) -> np.ndarray:
    """:func:`derive_seed` of every label, as one ``uint64`` array."""
    digests = b"".join([_digest(seed, label) for label in labels])
    return np.frombuffer(digests, dtype=">u8").astype(np.uint64)


def derive_rng(seed: int, label: str) -> random.Random:
    """Return a ``random.Random`` seeded from *seed* and a stream *label*."""
    return random.Random(derive_seed(seed, label))


def spawn_seeds(seed: int, label: str, count: int) -> List[int]:
    """Return *count* independent integer seeds derived from *seed*/*label*."""
    return [derive_seed(seed, f"{label}:{index}") for index in range(count)]


def batched_random(rng: random.Random, count: int) -> np.ndarray:
    """Draw *count* doubles from *rng* as one vectorized batch.

    Returns exactly the array ``[rng.random() for _ in range(count)]``
    would produce — bit for bit — and leaves *rng* in exactly the state
    that loop would leave it in, so batched and scalar draws can be
    interleaved freely on one stream. Both CPython's ``random.Random``
    and numpy's legacy ``RandomState`` run the same MT19937 core and the
    same 53-bit ``genrand_res53`` output function, so the batch is
    produced by transplanting the Mersenne state into a ``RandomState``,
    drawing, and transplanting the advanced state back.

    This is the primitive behind the columnar population sampler
    (:mod:`repro.core.store`).
    """
    version, internal, gauss_next = rng.getstate()
    state = np.random.RandomState()
    # CPython's state tuple is 624 key words plus the stream position.
    state.set_state(
        ("MT19937", np.array(internal[:624], dtype=np.uint32), internal[624])
    )
    draws = state.random_sample(count)
    _, key, position, _, _ = state.get_state()
    rng.setstate(
        (version, tuple(int(word) for word in key) + (int(position),), gauss_next)
    )
    return draws


# MT19937 parameters, as in CPython's ``_randommodule.c``.
_N = 624
_M = 397
_MATRIX_A = 0x9908B0DF
_UPPER = 0x80000000
_LOWER = 0x7FFFFFFF


def _genrand_state(seed: int) -> List[int]:
    """``init_genrand(seed)``: the state ``init_by_array`` starts from."""
    state = [seed]
    for index in range(1, _N):
        previous = state[-1]
        state.append(
            (1812433253 * (previous ^ (previous >> 30)) + index) & 0xFFFFFFFF
        )
    return state


# The seeding loop's operands as numpy scalars: a ufunc handed a Python
# int converts it on every call, which at 6,000 calls per pass costs
# more than the arithmetic on a few hundred seeds.
_INIT_STATE = [np.uint32(word) for word in _genrand_state(19650218)]
_INDICES = [np.uint32(index) for index in range(_N)]
_THIRTY = np.uint32(30)
_KEY_FACTOR = np.uint32(1664525)
_MIX_FACTOR = np.uint32(1566083941)

#: Seeds per ``init_by_array`` pass: its state, 624 words per seed,
#: then stays at 10 MB.
_SEED_CHUNK = 4096


def _seed_states(seeds: "np.ndarray", state: "np.ndarray") -> None:
    """CPython's ``init_by_array`` for every seed, into ``(624, n)`` *state*.

    An int seed's key is its little-endian 32-bit words, one word when
    the seed is below 2**32 and two otherwise, so the key word a step
    adds alternates between two per-seed addends. Each of the 624 + 623
    steps depends on the one before, so the loop runs over steps with
    the seeds across each row.
    """
    low = (seeds & 0xFFFFFFFF).astype(np.uint32)
    high = (seeds >> 32).astype(np.uint32)
    # key[j] + j: j alternates 0, 1 for a two-word key and stays 0 for one.
    addends = (low, np.where(high == 0, low, high + np.uint32(1)))
    mixed = np.empty(len(seeds), dtype=np.uint32)
    rows = list(state)

    def step(previous, current, factor, out) -> None:
        np.right_shift(previous, _THIRTY, mixed)
        np.bitwise_xor(mixed, previous, mixed)
        np.multiply(mixed, factor, mixed)
        np.bitwise_xor(mixed, current, out)

    previous = np.full(len(seeds), _INIT_STATE[0], dtype=np.uint32)
    for index in range(1, _N):
        row = rows[index]
        step(previous, _INIT_STATE[index], _KEY_FACTOR, row)
        np.add(row, addends[(index - 1) & 1], row)
        previous = row
    # The 624th step wraps to index 1 (state[0] is a copy of state[623]).
    step(previous, rows[1], _KEY_FACTOR, rows[1])
    np.add(rows[1], addends[(_N - 1) & 1], rows[1])
    previous = rows[1]
    for index in list(range(2, _N)) + [1]:
        row = rows[index]
        step(previous, row, _MIX_FACTOR, row)
        np.subtract(row, _INDICES[index], row)
        previous = row
    state[0] = _UPPER


def _twist(state: "np.ndarray", stop: int) -> None:
    """Regenerate ``state[:stop]`` in place, as CPython's twist does.

    The twist is sequential, but each new word depends only on old words
    and on the new word 227 places back, so it runs as at most four
    slices: ``[0, 227)``, ``[227, 454)``, ``[454, 623)`` and ``623``,
    which reads the new ``state[0]``.
    """
    for start in range(0, _N - 1, _N - _M):
        end = min(start + _N - _M, _N - 1, stop)
        if start >= end:
            return
        mixed = state[start:end] & _UPPER
        mixed |= state[start + 1 : end + 1] & _LOWER
        source = start + _M if start < _N - _M else start + _M - _N
        new = state[source : source + end - start] ^ (mixed >> 1)
        new ^= (mixed & 1) * _MATRIX_A
        state[start:end] = new
    if stop == _N:
        mixed = (state[_N - 1] & _UPPER) | (state[0] & _LOWER)
        state[_N - 1] = (
            state[_M - 1] ^ (mixed >> 1) ^ ((mixed & 1) * _MATRIX_A)
        )


def mersenne_words(seeds: "np.ndarray", count: int) -> "np.ndarray":
    """The first *count* Mersenne Twister words of every seed, in bulk.

    Column *i* of the ``(count, len(seeds))`` result holds exactly the
    words of ``random.Random(seeds[i]).getrandbits(32 * count)`` in
    little-endian word order (the stream's outputs in the order drawn),
    for seeds in ``[0, 2**64)``. Per chunk of :data:`_SEED_CHUNK` seeds,
    one vectorized pass seeds every stream (``init_by_array``), twists
    only the slices the block needs (again past each 624 words) and
    copies the words out; one pass at the end tempers them all.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    words = np.empty((count, len(seeds)), dtype=np.uint32)
    buffer = np.empty((_N, min(len(seeds), _SEED_CHUNK)), dtype=np.uint32)
    for first in range(0, len(seeds), _SEED_CHUNK):
        chunk = seeds[first : first + _SEED_CHUNK]
        state = buffer[:, : len(chunk)]
        _seed_states(chunk, state)
        for start in range(0, count, _N):
            block = min(_N, count - start)
            _twist(state, _N if start + _N < count else block)
            words[start : start + block, first : first + len(chunk)] = state[
                :block
            ]
    words ^= words >> 11
    words ^= (words << 7) & 0x9D2C5680
    words ^= (words << 15) & 0xEFC60000
    words ^= words >> 18
    return words
