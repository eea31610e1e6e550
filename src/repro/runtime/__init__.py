"""Live runtime: the overlay over asyncio and real UDP sockets."""

from repro.runtime.aio import AioHost, AioOverlay, AsyncioTransport

__all__ = [
    "AioHost",
    "AioOverlay",
    "AsyncioTransport",
]
