"""Deterministic random-number management.

Every stochastic component of the library takes an explicit
:class:`random.Random` instance. Experiments hold a single root seed and
derive independent, reproducible streams for sub-components (node placement,
query generation, gossip jitter, churn, ...) with :func:`derive_rng`. The
derivation hashes the root seed together with a string label, so adding a new
consumer never perturbs the streams of existing ones.
"""

from __future__ import annotations

import hashlib
import random
from typing import List

import numpy as np


def _mix(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(seed: int, label: str) -> random.Random:
    """Return a ``random.Random`` seeded from *seed* and a stream *label*."""
    return random.Random(_mix(seed, label))


def spawn_seeds(seed: int, label: str, count: int) -> List[int]:
    """Return *count* independent integer seeds derived from *seed*/*label*."""
    return [_mix(seed, f"{label}:{index}") for index in range(count)]


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
