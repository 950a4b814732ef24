"""Network front door: SQL over TCP on one shared session core.

The server layer (see ``docs/architecture.md`` for where it sits and
``docs/protocol.md`` for the normative wire protocol):

* :mod:`repro.server.protocol` — length-prefixed JSON frame codec,
  message tables, error codes.
* :mod:`repro.server.server` — :class:`SQLServer`, the asyncio acceptor
  multiplexing connections onto one
  :class:`~repro.sql.async_session.AsyncSQLSession`.
* :mod:`repro.server.client` — :class:`AsyncSQLClient`, the one client
  driver (pipelined asyncio, with an optional :class:`RetryPolicy`).
"""

from repro.server.client import (
    AsyncSQLClient,
    ClientResult,
    RetryPolicy,
    ServerError,
)
from repro.server.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    RETRYABLE_ERROR_CODES,
    ConnectionClosedError,
    FrameTooLargeError,
    ProtocolError,
)
from repro.server.server import SQLServer, validate_port
from repro.sql.async_session import ServerClosedError

__all__ = [
    "SQLServer",
    "AsyncSQLClient",
    "ClientResult",
    "ServerError",
    "ServerClosedError",
    "RetryPolicy",
    "RETRYABLE_ERROR_CODES",
    "ProtocolError",
    "FrameTooLargeError",
    "ConnectionClosedError",
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME_BYTES",
    "validate_port",
]
