"""Length-prefixed JSON wire protocol: framing, message specs, codec.

This module implements the protocol **specified in** ``docs/protocol.md``
— the spec is normative, the code follows it, and the doc's embedded
frame examples are parsed through this codec by
``tests/server/test_protocol_doc.py``.

A frame is a 4-byte big-endian unsigned length ``N`` followed by ``N``
bytes of UTF-8 JSON encoding one message object.  Encoding is
deterministic (sorted keys, no whitespace) so a message has exactly one
canonical frame — the property the spec's byte-level examples rely on.
Non-finite floats use Python's ``NaN`` / ``Infinity`` JSON extension,
as the spec documents.

Message validation is table-driven: :data:`CLIENT_MESSAGES` /
:data:`SERVER_MESSAGES` name the message types each side may send and
the required fields (with types) of each; unknown *fields* are ignored
for forward compatibility, unknown *types* and missing or mistyped
required fields are :class:`ProtocolError`\\ s.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME_BYTES",
    "HEADER",
    "CLIENT_MESSAGES",
    "SERVER_MESSAGES",
    "ERR_AUTH",
    "ERR_PROTOCOL",
    "ERR_TOO_LARGE",
    "ERR_CAPACITY",
    "ERR_SQL",
    "ERR_UNKNOWN_PREPARED",
    "ERR_CANCELLED",
    "ERR_QUERY_TIMEOUT",
    "ERR_OVERLOADED",
    "ERR_SERVER_CLOSED",
    "ERROR_CODES",
    "FATAL_ERROR_CODES",
    "RETRYABLE_ERROR_CODES",
    "OPTIONAL_CLIENT_FIELDS",
    "ProtocolError",
    "FrameTooLargeError",
    "ConnectionClosedError",
    "encode_frame",
    "decode_frame",
    "validate_message",
    "read_frame",
    "write_frame",
    "error_frame",
]

#: Wire protocol version; ``hello.version`` must match exactly (§2 of
#: the spec — v1 has no negotiation, a mismatch is a fatal error).
PROTOCOL_VERSION = 2

#: Default cap on one frame's JSON body.  Larger frames are rejected
#: with the fatal ``too-large`` error code before the body is read.
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024

#: The 4-byte big-endian unsigned length prefix.
HEADER = struct.Struct(">I")

# --- error codes (spec §5) -------------------------------------------
ERR_AUTH = "auth"
ERR_PROTOCOL = "protocol"
ERR_TOO_LARGE = "too-large"
ERR_CAPACITY = "capacity"
ERR_SQL = "sql"
ERR_UNKNOWN_PREPARED = "unknown-prepared"
ERR_CANCELLED = "query-cancelled"
ERR_QUERY_TIMEOUT = "query-timeout"
ERR_OVERLOADED = "overloaded"
ERR_SERVER_CLOSED = "server-closed"

#: Every error code the server may emit.
ERROR_CODES = frozenset(
    {
        ERR_AUTH,
        ERR_PROTOCOL,
        ERR_TOO_LARGE,
        ERR_CAPACITY,
        ERR_SQL,
        ERR_UNKNOWN_PREPARED,
        ERR_CANCELLED,
        ERR_QUERY_TIMEOUT,
        ERR_OVERLOADED,
        ERR_SERVER_CLOSED,
    }
)

#: Codes after which the server closes the connection (spec §5): the
#: stream can no longer be trusted (framing/auth violations) or the
#: server is going away.  Statement-level codes are non-fatal.
FATAL_ERROR_CODES = frozenset({ERR_AUTH, ERR_PROTOCOL, ERR_TOO_LARGE, ERR_CAPACITY})

#: Codes a client may transparently retry (spec §5): the statement
#: provably did not apply.  ``query-timeout`` qualifies because engine
#: checkpoints only fire between chunks and before a write's atomic
#: mutation; ``overloaded`` and ``capacity`` were refused before
#: admission.  ``query-cancelled`` is deliberately NOT retryable — the
#: cancel expressed user intent.  Retryable error frames may carry an
#: optional integer ``backoff_ms`` hint.
RETRYABLE_ERROR_CODES = frozenset({ERR_QUERY_TIMEOUT, ERR_OVERLOADED, ERR_CAPACITY})

#: Required fields per client→server message type (spec §3).
CLIENT_MESSAGES: Mapping[str, Tuple[Tuple[str, type], ...]] = {
    "hello": (("version", int),),
    "query": (("id", int), ("sql", str)),
    "prepare": (("id", int), ("name", str), ("sql", str)),
    "run_prepared": (("id", int), ("name", str)),
    "cancel": (("target", int),),
    "close": (),
}

#: Optional typed fields per client→server message type (spec §3): when
#: present they must have the listed type (``ProtocolError`` otherwise);
#: absent is always fine.  Value-range checks (e.g. a non-positive
#: ``timeout_ms``) are statement-level ``sql`` errors, not protocol
#: violations.
OPTIONAL_CLIENT_FIELDS: Mapping[str, Tuple[Tuple[str, type], ...]] = {
    "query": (("timeout_ms", int),),
    "run_prepared": (("timeout_ms", int),),
}

#: Required fields per server→client message type (spec §4).
SERVER_MESSAGES: Mapping[str, Tuple[Tuple[str, type], ...]] = {
    "hello_ok": (("version", int),),
    "result": (("id", int), ("row_count", int)),
    "error": (("code", str), ("error", str)),
    "goodbye": (),
}


class ProtocolError(ValueError):
    """A frame or message violating the wire protocol.

    Carries the wire error ``code`` the server reports for it; protocol
    violations are fatal to the connection (spec §5).
    """

    code = ERR_PROTOCOL


class FrameTooLargeError(ProtocolError):
    """A frame whose declared length exceeds the negotiated cap."""

    code = ERR_TOO_LARGE


class ConnectionClosedError(ConnectionError):
    """The peer closed the connection (possibly mid-frame)."""


def encode_frame(message: Mapping, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> bytes:
    """Serialize one message into its canonical frame bytes.

    Deterministic: keys are sorted and no whitespace is emitted, so the
    same message always produces the same bytes (the spec's examples
    are literal).  Raises :class:`FrameTooLargeError` when the body
    exceeds ``max_frame_bytes``.
    """
    if "type" not in message:
        raise ProtocolError("message has no 'type' field")
    body = json.dumps(message, separators=(",", ":"), sort_keys=True).encode("utf-8")
    if len(body) > max_frame_bytes:
        raise FrameTooLargeError(
            f"frame body is {len(body)} bytes, cap is {max_frame_bytes}"
        )
    return HEADER.pack(len(body)) + body


def decode_frame(body: bytes) -> Dict:
    """Parse one frame body (the bytes after the length prefix).

    Returns the message dict; raises :class:`ProtocolError` for
    non-UTF-8, non-JSON, non-object bodies or a missing ``type``.
    """
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(message).__name__}"
        )
    if not isinstance(message.get("type"), str):
        raise ProtocolError("message has no string 'type' field")
    return message


def validate_message(
    message: Mapping, direction: Mapping[str, Tuple[Tuple[str, type], ...]]
) -> str:
    """Check a decoded message against one side's message table.

    ``direction`` is :data:`CLIENT_MESSAGES` or :data:`SERVER_MESSAGES`.
    Returns the message type; raises :class:`ProtocolError` for unknown
    types and missing or mistyped required fields.  ``bool`` is never
    accepted where an ``int`` is required (JSON ``true`` is not an id).
    """
    mtype = message.get("type")
    spec = direction.get(mtype)
    if spec is None:
        raise ProtocolError(f"unknown message type {mtype!r}")
    for field, ftype in spec:
        if field not in message:
            raise ProtocolError(f"{mtype!r} message missing field {field!r}")
        _check_field_type(mtype, field, message[field], ftype)
    if direction is CLIENT_MESSAGES:
        for field, ftype in OPTIONAL_CLIENT_FIELDS.get(mtype, ()):
            if field in message:
                _check_field_type(mtype, field, message[field], ftype)
    return mtype


def _check_field_type(mtype: str, field: str, value, ftype: type) -> None:
    """One field's type check; ``bool`` never satisfies ``int``."""
    if not isinstance(value, ftype) or (ftype is int and isinstance(value, bool)):
        raise ProtocolError(
            f"{mtype!r} field {field!r} must be {ftype.__name__}, "
            f"got {type(value).__name__}"
        )


async def read_frame(
    reader: asyncio.StreamReader, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Optional[Dict]:
    """Read one frame from a stream; ``None`` on clean EOF.

    Clean EOF means the stream ended exactly on a frame boundary; EOF
    inside a frame raises :class:`ConnectionClosedError`.  A declared
    length above ``max_frame_bytes`` raises :class:`FrameTooLargeError`
    *before* the body is read, so an oversized payload never buffers.
    """
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ConnectionClosedError("connection closed inside a frame header") from None
    (length,) = HEADER.unpack(header)
    if length > max_frame_bytes:
        raise FrameTooLargeError(
            f"declared frame length {length} exceeds cap {max_frame_bytes}"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ConnectionClosedError("connection closed inside a frame body") from None
    return decode_frame(body)


async def write_frame(
    writer: asyncio.StreamWriter,
    message: Mapping,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> None:
    """Encode and send one message, waiting for the transport to drain."""
    writer.write(encode_frame(message, max_frame_bytes))
    await writer.drain()


def error_frame(
    code: str,
    error: str,
    id: Optional[int] = None,
    backoff_ms: Optional[int] = None,
) -> Dict:
    """Build an ``error`` message (statement-level when ``id`` is set).

    ``backoff_ms`` attaches the retry hint retryable codes may carry
    (spec §5); rejecting it on non-retryable codes keeps the taxonomy
    honest.
    """
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    message: Dict = {"type": "error", "code": code, "error": error}
    if id is not None:
        message["id"] = id
    if backoff_ms is not None:
        if code not in RETRYABLE_ERROR_CODES:
            raise ValueError(
                f"backoff_ms is only valid on retryable codes, not {code!r}"
            )
        message["backoff_ms"] = int(backoff_ms)
    return message
