"""Delivery + drain smoke behind ``repro serve --smoke N``; it times nothing."""

import asyncio
from contextlib import closing

from repro.experiments.config import ExperimentConfig
from repro.runtime.aio import AioOverlay
from repro.server import query_from_payload, request_on_connection, serve_overlay
from repro.util.rng import derive_rng
from repro.workloads.distributions import uniform_sampler


async def run_serve_smoke(
    config: ExperimentConfig, queries: int, concurrency: int, serve_config, registry
) -> dict:
    """Serve *config*'s overlay, POST *queries* range queries, check each count."""
    schema, rng = config.schema(), derive_rng(config.seed, "serve-smoke-queries")
    names = [definition.name for definition in schema.definitions]
    jobs, outcomes = iter(range(queries)), []
    async with AioOverlay(schema, seed=config.seed, registry=registry) as overlay:
        await overlay.populate(uniform_sampler(schema), config.network_size)
        overlay.bootstrap()
        server = await serve_overlay(overlay, serve_config, registry)

        async def client() -> None:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            with closing(writer):
                for index in jobs:  # shared iterator: each query is issued once
                    low = round(rng.uniform(0.0, 40.0), 2)
                    payload = {"constraints": {rng.choice(names): [low, low + 40.0]},
                               "origin": index % config.network_size}
                    query = query_from_payload(schema, payload)
                    status, body = 429, {"retry_after": 0.0}
                    while status == 429:  # backpressure: pause as told, retry
                        await asyncio.sleep(body["retry_after"])
                        status, body = await request_on_connection(
                            reader, writer, "POST", "/query", payload)
                    exact = len(overlay.matching_descriptors(query))
                    outcomes.append((status != 200, body.get("count") == exact))

        await asyncio.gather(*[client() for _ in range(concurrency)])
        await server.drain()
        errors, delivered = map(sum, zip(*outcomes))
        return {"queries": queries, "delivered": delivered / queries,
                "errors": errors, "drained": server.inflight == 0}
