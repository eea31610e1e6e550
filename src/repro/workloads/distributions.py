"""Node-population samplers.

Section 6 populates the attribute space in two ways:

* **uniform** — "each parameter of each node is selected randomly in the
  interval [0, 80] using a uniformly random distribution";
* **normal / hotspot** — "a hotspot around coordinate (60, 60, ..., 60).
  Nodes were distributed around that coordinate, with a standard deviation
  of 10."

A sampler is a callable ``sampler(rng) -> {attribute_name: value}``; the
deployment feeds it a dedicated, seeded RNG stream.
"""

from __future__ import annotations

import random
from typing import Dict, Mapping, Optional, Sequence

from repro.core.attributes import AttributeSchema, AttributeValue
from repro.sim.deployment import ValueSampler
from repro.util.rng import batched_random


def _sample_categorical(
    definition, rng: random.Random
) -> AttributeValue:
    assert definition.categories is not None
    return rng.choice(definition.categories)


def uniform_sampler(schema: AttributeSchema) -> ValueSampler:
    """Every attribute drawn uniformly over its domain.

    For all-numeric schemas the returned sampler also carries a
    ``sample_batch(rng, count)`` hook: one vectorized pass producing the
    ``(count, d)`` encoded value matrix — bit-identical, draw for draw,
    to *count* scalar ``sampler(rng)`` calls, and leaving *rng* in the
    same state (see :func:`repro.util.rng.batched_random`). The columnar
    populate path (:meth:`repro.core.store.DescriptorStore.sample`) uses
    the hook when present and draws with the scalar loop otherwise —
    categorical attributes interleave variable-length ``choice`` draws,
    so they stay on the scalar loop.
    """

    def sampler(rng: random.Random) -> Mapping[str, AttributeValue]:
        values: Dict[str, AttributeValue] = {}
        for definition in schema.definitions:
            if definition.is_categorical:
                values[definition.name] = _sample_categorical(definition, rng)
            else:
                values[definition.name] = rng.uniform(
                    definition.lower, definition.upper
                )
        return values

    if all(not definition.is_categorical for definition in schema.definitions):
        bounds = [
            (definition.lower, definition.upper)
            for definition in schema.definitions
        ]

        def sample_batch(rng: random.Random, count: int):
            matrix = batched_random(rng, count * len(bounds)).reshape(
                count, len(bounds)
            )
            for dim, (lower, upper) in enumerate(bounds):
                # rng.uniform(a, b) is a + (b - a) * rng.random(); the same
                # affine transform on the same doubles is IEEE-identical.
                matrix[:, dim] = lower + (upper - lower) * matrix[:, dim]
            return matrix

        sampler.sample_batch = sample_batch  # type: ignore[attr-defined]

    return sampler


def normal_sampler(
    schema: AttributeSchema,
    center: Optional[Sequence[float]] = None,
    stddev: Optional[Sequence[float]] = None,
) -> ValueSampler:
    """A hotspot population: Gaussian around *center*, clamped to the domain.

    Defaults reproduce the paper's configuration: the center at 3/4 of each
    domain (coordinate 60 on a [0, 80] domain) with a standard deviation of
    1/8 of the domain (10 on [0, 80]).
    """
    numeric_dims = [
        definition
        for definition in schema.definitions
        if not definition.is_categorical
    ]
    if center is None:
        center = [
            definition.lower + 0.75 * (definition.upper - definition.lower)
            for definition in numeric_dims
        ]
    if stddev is None:
        stddev = [
            (definition.upper - definition.lower) / 8.0
            for definition in numeric_dims
        ]

    def sampler(rng: random.Random) -> Mapping[str, AttributeValue]:
        values: Dict[str, AttributeValue] = {}
        numeric_index = 0
        for definition in schema.definitions:
            if definition.is_categorical:
                values[definition.name] = _sample_categorical(definition, rng)
                continue
            drawn = rng.gauss(center[numeric_index], stddev[numeric_index])
            # Clamp just inside the domain; the schema itself has no upper
            # bound (outliers land in the extreme cells), but clamping keeps
            # the configured hotspot shape comparable to the paper's.
            low = definition.lower
            high = definition.upper
            values[definition.name] = min(max(drawn, low), high - 1e-9 * (high - low))
            numeric_index += 1
        return values

    return sampler


def clustered_sampler(
    schema: AttributeSchema,
    clusters: int = 4,
    spread_fraction: float = 0.05,
    seed: int = 99,
    centroids: Optional[Sequence[Mapping[str, AttributeValue]]] = None,
) -> ValueSampler:
    """A mixture-of-clusters population (machine-room heterogeneity).

    Models a federation of *clusters* homogeneous machine groups: each node
    picks a cluster and jitters tightly around its centroid. This is the
    regime the paper expects in practice ("in practice a lowest-level cell
    will contain only nodes strictly identical to each other, e.g. nodes
    belonging to the same cluster"). Pass explicit *centroids* to pin the
    machine-room profiles; otherwise they are drawn from *seed*.
    """
    if centroids is not None:
        centroids = [dict(centroid) for centroid in centroids]
    else:
        centroid_rng = random.Random(seed)
        generated = []
        for _ in range(clusters):
            centroid: Dict[str, AttributeValue] = {}
            for definition in schema.definitions:
                if definition.is_categorical:
                    assert definition.categories is not None
                    centroid[definition.name] = centroid_rng.choice(
                        definition.categories
                    )
                else:
                    centroid[definition.name] = centroid_rng.uniform(
                        definition.lower, definition.upper
                    )
            generated.append(centroid)
        centroids = generated

    def sampler(rng: random.Random) -> Mapping[str, AttributeValue]:
        centroid = rng.choice(centroids)
        values: Dict[str, AttributeValue] = {}
        for definition in schema.definitions:
            base = centroid[definition.name]
            if definition.is_categorical:
                values[definition.name] = base
                continue
            width = (definition.upper - definition.lower) * spread_fraction
            drawn = rng.gauss(float(base), width)
            values[definition.name] = min(
                max(drawn, definition.lower),
                definition.upper - 1e-9 * (definition.upper - definition.lower),
            )
        return values

    return sampler
