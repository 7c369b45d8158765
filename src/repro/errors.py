"""Exception hierarchy shared across the :mod:`repro` packages.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without also catching programming errors
such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The simulation kernel detected an inconsistency (e.g. time reversal)."""


class ProcessError(SimulationError):
    """A coroutine process was used incorrectly (e.g. double start)."""


class NetworkError(ReproError):
    """Base class for link-layer and topology errors."""


class AddressError(NetworkError):
    """An address literal could not be parsed or is out of range."""


class PortInUseError(NetworkError):
    """A transport port was already bound on the host."""


class EphemeralPortsExhausted(PortInUseError):
    """No ephemeral port can reach the requested remote endpoint.

    Raised by the TCP layer's ephemeral-port pool when every port in the
    dynamic range already carries a live connection to the same remote
    (IP, port).  A subclass of :class:`PortInUseError` so existing
    callers that treat port exhaustion as "port trouble" keep working,
    while connection-churn workloads can tell the two apart.
    """


class ConnectionError_(NetworkError):
    """Base class for transport-level connection failures.

    Named with a trailing underscore to avoid shadowing the builtin
    ``ConnectionError`` while staying recognisable.
    """


class ConnectionRefused(ConnectionError_):
    """The remote host answered with RST during connection establishment."""


class ConnectionReset(ConnectionError_):
    """The connection was torn down by an RST segment."""


class ConnectionTimeout(ConnectionError_):
    """The connection gave up after exhausting retransmissions."""


class ConnectionClosed(ConnectionError_):
    """An operation was attempted on a socket that is already closed."""


class ConfigurationError(ReproError):
    """A scenario or protocol configuration is invalid."""


class FailoverError(ReproError):
    """The ST-TCP failover machinery hit an unrecoverable condition."""
