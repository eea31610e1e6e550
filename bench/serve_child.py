"""Launcher child of the ``serve`` workload.

Builds a loopback ``runtime.aio.AioOverlay`` behind ``server.serve_overlay``
through public APIs only, prints one JSON line with the bound port, the
overlay build time and the population (the generator's ground truth),
and serves until SIGTERM drains it. With ``--spans`` it first wraps the
layer functions of the serving path and, after the drain, saves the
spans it recorded there.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import Any, List, Optional

from bench import SRC
from bench.trace import Tracer

DIMENSIONS = 3


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of the serving path.

    ``asyncio.events.Handle._run`` runs every callback and task step of
    the event loop, so its self time is what the wrapped layers below it
    do not cover: HTTP framing, admission, JSON and task switching.
    """
    from repro import server
    from repro.core.codec import Codec
    from repro.core.node import ResourceNode
    from repro.runtime.aio import AioHost, AioOverlay
    from repro.runtime.reliable import ReliableChannel

    tracer.wrap(asyncio.events.Handle, "_run", "asyncio.callback")
    tracer.wrap(server, "query_from_payload", "server.parse")
    tracer.wrap_async(server.OverlayQueryService, "execute", "server.execute")
    tracer.wrap_async(AioOverlay, "execute_query", "runtime.aio.execute_query")
    tracer.wrap(ResourceNode, "issue_query", "core.node.issue")
    tracer.wrap(ResourceNode, "handle_message", "core.node.handle")
    tracer.wrap(Codec, "encode", "core.codec.encode")
    tracer.wrap(Codec, "decode", "core.codec.decode")
    tracer.wrap(ReliableChannel, "send_frame", "runtime.reliable.send_frame")
    tracer.wrap(
        AioHost, "sendto", "runtime.aio.sendto",
        weigh=lambda args, _result: len(args[2]),
    )
    tracer.wrap(AioHost, "on_datagram", "runtime.aio.on_datagram")


async def serve(seed: int, size: int) -> None:
    """Build the overlay, announce it, and serve until drained."""
    from repro.experiments.config import ExperimentConfig
    from repro.obs.registry import MetricsRegistry
    from repro.runtime.aio import AioOverlay
    from repro.server import serve_overlay
    from repro.workloads.distributions import uniform_sampler

    config = ExperimentConfig(
        network_size=size, seed=seed, dimensions=DIMENSIONS
    )
    schema = config.schema()
    registry = MetricsRegistry()
    started = time.perf_counter()
    async with AioOverlay(schema, seed=seed, registry=registry) as overlay:
        await overlay.populate(uniform_sampler(schema), size)
        overlay.bootstrap()
        build_s = time.perf_counter() - started
        server = await serve_overlay(overlay, registry=registry)
        server.install_signal_handlers()
        print(json.dumps({
            "port": server.port,
            "build_s": build_s,
            "attributes": [d.name for d in schema.definitions],
            "population": [
                [address, list(host.node.descriptor.values)]
                for address, host in overlay.hosts.items()
            ],
        }), flush=True)
        await server.serve_until_closed()


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the child process."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--spans", help="trace the serving path; save here")
    args = parser.parse_args(argv)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tracer: Any = None
    if args.spans:
        tracer = Tracer()
        install(tracer)
    try:
        asyncio.run(serve(args.seed, args.size))
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.save(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
