"""Exception hierarchy for the repro package.

All library-specific exceptions derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """An invalid schema, parameter, or experiment configuration."""


class ProtocolError(ReproError):
    """A violation of the query-routing or gossip protocol invariants.

    Raised, for example, when a node receives a reply for a query it never
    forwarded, which indicates a bug rather than a recoverable condition.
    """


class HostDownError(ReproError):
    """A crashed or closed host was asked to originate a query.

    A dead host sends nothing, so a query issued there could only come
    back empty, which would read the same as "no match".
    """
