"""Client driver for the SQL server.

The shape follows PostBOUND's minimal SQL-over-connection drivers
(connect → execute → rows): a few lines to issue a statement and read
rows back, no ORM.  :class:`AsyncSQLClient` is the one client side of
the ``docs/protocol.md`` wire protocol and speaks it through the same
codec the server uses (:mod:`repro.server.protocol`).  It pipelines:
many in-flight statements per connection, matched to replies by
statement id, with cooperative :meth:`AsyncSQLClient.cancel` and an
optional :class:`RetryPolicy`.  Scripts drive it under
:func:`asyncio.run` (see ``examples/server_quickstart.py``).

Statement results arrive as :class:`ClientResult`; server-reported
failures raise :class:`ServerError` carrying the wire error code.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import random
from typing import Any, Dict, List, Optional

from repro.server import protocol
from repro.server.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ConnectionClosedError,
    ProtocolError,
    read_frame,
    validate_message,
    write_frame,
)

__all__ = [
    "ClientResult",
    "RetryPolicy",
    "ServerError",
    "AsyncSQLClient",
]

#: statements safe to resend even when the original may have reached the
#: server — re-running them cannot double-apply a write
_IDEMPOTENT_PREFIXES = ("select", "set", "explain")


def _statement_is_idempotent(sql: str) -> bool:
    head = sql.lstrip().split(None, 1)
    return bool(head) and head[0].lower() in _IDEMPOTENT_PREFIXES


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff for retryable statement failures.

    Attempt ``n`` (0-based) sleeps ``base_backoff_ms * multiplier**n``
    milliseconds, capped at ``max_backoff_ms``; a server ``backoff_ms``
    hint (from an ``overloaded`` frame) raises the floor for that
    attempt.  ``jitter`` spreads sleeps by ``±jitter`` relative to the
    computed delay so a thundering herd of shed clients decorrelates.
    ``seed`` makes the jitter deterministic for tests.
    """

    max_attempts: int = 4
    base_backoff_ms: float = 25.0
    max_backoff_ms: float = 2_000.0
    multiplier: float = 2.0
    jitter: float = 0.25
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.max_attempts, int) or isinstance(self.max_attempts, bool):
            raise TypeError("max_attempts must be an int")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff_ms <= 0 or self.max_backoff_ms <= 0:
            raise ValueError("backoff bounds must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1.0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0.0, 1.0)")

    def delay_ms(
        self,
        attempt: int,
        hint_ms: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> float:
        """Backoff before retry ``attempt`` (0-based), in milliseconds."""
        delay = self.base_backoff_ms * self.multiplier**attempt
        if hint_ms is not None:
            delay = max(delay, float(hint_ms))
        delay = min(delay, self.max_backoff_ms)
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, delay)


@dataclasses.dataclass(frozen=True)
class ClientResult:
    """One statement's outcome as decoded from a ``result`` frame.

    ``columns``/``rows`` are present for SELECTs and ``None`` for
    DML/SET (whose ``row_count`` is the affected-row / setting value);
    ``stats`` is the server session's per-query record (``queued_ns``,
    ``exec_ns``, ``cost_hint``, ``write_seq``, ``kind``) when the
    statement executed, ``None`` for ``prepare`` acknowledgements.
    """

    row_count: int
    columns: Optional[List[str]] = None
    rows: Optional[List[List[Any]]] = None
    stats: Optional[Dict[str, Any]] = None

    def scalar(self) -> Any:
        """First column of the first row (convenience for aggregates)."""
        if not self.rows or not self.rows[0]:
            raise ValueError("result has no rows")
        return self.rows[0][0]


class ServerError(RuntimeError):
    """A typed ``error`` frame from the server.

    ``code`` is one of the spec's error codes (``auth``, ``protocol``,
    ``too-large``, ``capacity``, ``sql``, ``unknown-prepared``,
    ``query-cancelled``, ``query-timeout``, ``overloaded``,
    ``server-closed``); ``fatal`` mirrors whether the server closes the
    connection after it, ``retryable`` whether the statement may simply
    be resent (the server guarantees it left no trace), and
    ``backoff_ms`` the server's optional wait-before-retry hint.
    """

    def __init__(
        self, code: str, message: str, backoff_ms: Optional[int] = None
    ) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.fatal = code in protocol.FATAL_ERROR_CODES
        self.retryable = code in protocol.RETRYABLE_ERROR_CODES
        self.backoff_ms = backoff_ms


def _result_from_frame(frame: Dict) -> ClientResult:
    """Convert a validated ``result`` frame into a :class:`ClientResult`."""
    return ClientResult(
        row_count=frame["row_count"],
        columns=frame.get("columns"),
        rows=frame.get("rows"),
        stats=frame.get("stats"),
    )


def _hello(token: Optional[str]) -> Dict:
    """Build the handshake frame."""
    message: Dict = {"type": "hello", "version": PROTOCOL_VERSION}
    if token is not None:
        message["token"] = token
    return message


class AsyncSQLClient:
    """Asyncio driver with statement pipelining and cancellation.

    Replies are matched to in-flight statements by id on a background
    reader task, so many :meth:`execute` coroutines can overlap on one
    connection — the client-side mirror of the server's per-connection
    ``max_inflight``.  Build instances with :meth:`connect`::

        cli = await AsyncSQLClient.connect("127.0.0.1", port)
        rows = (await cli.execute("SELECT ... ")).rows
        await cli.aclose()
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        server_info: Dict,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        *,
        host: Optional[str] = None,
        port: Optional[int] = None,
        token: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self._host = host
        self._port = port
        self._token = token
        self._max_frame_bytes = max_frame_bytes
        self._ids = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}
        self._closed = False
        self._retry = retry
        self._retry_rng = random.Random(retry.seed) if retry is not None else None
        self._conn_lock = asyncio.Lock()
        self._bind(reader, writer, server_info)

    def _bind(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        server_info: Dict,
    ) -> None:
        """Adopt a fresh (reader, writer) pair and restart the read loop."""
        self._reader = reader
        self._writer = writer
        self.server_info = server_info
        self._connected = True
        self._goodbye = asyncio.get_running_loop().create_future()
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    @staticmethod
    async def _handshake(
        host: str, port: int, token: Optional[str], max_frame_bytes: int
    ):
        """Open a connection and complete the ``hello`` exchange."""
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await write_frame(writer, _hello(token), max_frame_bytes)
            frame = await read_frame(reader, max_frame_bytes)
            if frame is None:
                raise ConnectionClosedError("server closed during handshake")
            validate_message(frame, protocol.SERVER_MESSAGES)
            if frame["type"] == "error":
                raise ServerError(
                    frame["code"], frame["error"], backoff_ms=frame.get("backoff_ms")
                )
            if frame["type"] != "hello_ok":
                raise ProtocolError(f"expected hello_ok, got {frame['type']!r}")
        except BaseException:
            writer.close()
            raise
        return reader, writer, frame

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        token: Optional[str] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        retry: Optional[RetryPolicy] = None,
    ) -> "AsyncSQLClient":
        """Open a connection and complete the ``hello`` handshake."""
        reader, writer, frame = await cls._handshake(host, port, token, max_frame_bytes)
        return cls(
            reader,
            writer,
            frame,
            max_frame_bytes,
            host=host,
            port=port,
            token=token,
            retry=retry,
        )

    async def _ensure_connected(self) -> None:
        """Transparently re-open a dropped connection (lock-guarded).

        Only possible when the client was built via :meth:`connect` —
        a directly-constructed client has no address to redial.
        """
        if self._closed:
            raise ConnectionClosedError("client is closed")
        if self._connected:
            return
        async with self._conn_lock:
            if self._closed:
                raise ConnectionClosedError("client is closed")
            if self._connected:
                return
            if self._host is None or self._port is None:
                raise ConnectionClosedError("connection lost and no address to redial")
            # old reader task already unwound (it cleared _connected);
            # just drop the dead writer before redialing
            try:
                self._writer.close()
            except (ConnectionError, OSError):
                pass
            reader, writer, frame = await self._handshake(
                self._host, self._port, self._token, self._max_frame_bytes
            )
            self._bind(reader, writer, frame)

    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        """Dispatch incoming frames to the waiting statement futures."""
        error: Optional[BaseException] = None
        try:
            while True:
                frame = await read_frame(self._reader, self._max_frame_bytes)
                if frame is None:
                    break
                validate_message(frame, protocol.SERVER_MESSAGES)
                mtype = frame["type"]
                if mtype == "goodbye":
                    if not self._goodbye.done():
                        self._goodbye.set_result(None)
                    break
                sid = frame.get("id")
                # resolve but do not pop: the reply stays claimable by a
                # later wait(); waiters remove their own entry
                future = self._pending.get(sid) if sid is not None else None
                if future is not None and not future.done():
                    if mtype == "result":
                        future.set_result(_result_from_frame(frame))
                    else:
                        future.set_exception(
                            ServerError(
                                frame["code"],
                                frame["error"],
                                backoff_ms=frame.get("backoff_ms"),
                            )
                        )
                elif mtype == "error" and sid is None:
                    error = ServerError(
                        frame["code"], frame["error"], backoff_ms=frame.get("backoff_ms")
                    )
                    break
        except (ConnectionError, OSError, ProtocolError, asyncio.CancelledError) as exc:
            error = exc
        finally:
            self._connected = False
            if error is None:
                error = ConnectionClosedError("connection closed")
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(error)
            self._pending.clear()
            if not self._goodbye.done():
                self._goodbye.set_result(None)

    async def _send(self, message: Dict) -> None:
        if self._closed:
            raise ConnectionClosedError("client is closed")
        await write_frame(self._writer, message, self._max_frame_bytes)

    def _register(self, sid: int) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self._pending[sid] = future
        return future

    async def _await_reply(self, sid: int) -> ClientResult:
        """Claim the reply of ``sid`` (each reply is claimable once)."""
        future = self._pending.get(sid)
        if future is None:
            raise KeyError(f"no in-flight statement with id {sid}")
        try:
            return await asyncio.shield(future)
        finally:
            self._pending.pop(sid, None)

    # ------------------------------------------------------------------
    async def submit(self, sql: str, timeout_ms: Optional[int] = None) -> int:
        """Fire one ``query`` frame, returning its statement id.

        The reply is claimed later with :meth:`wait` — the split lets a
        caller overlap statements or :meth:`cancel` one in flight.
        ``timeout_ms`` rides the wire as the per-statement deadline
        override (spec §3.2).
        """
        sid = next(self._ids)
        message: Dict = {"type": "query", "id": sid, "sql": sql}
        if timeout_ms is not None:
            message["timeout_ms"] = timeout_ms
        self._register(sid)
        try:
            await self._send(message)
        except BaseException:
            self._pending.pop(sid, None)
            raise
        return sid

    async def wait(self, sid: int) -> ClientResult:
        """Await the reply of a :meth:`submit`-ted statement."""
        return await self._await_reply(sid)

    async def execute(
        self, sql: str, timeout_ms: Optional[int] = None
    ) -> ClientResult:
        """Run one statement (``submit`` + ``wait``).

        With a :class:`RetryPolicy`, retryable error frames
        (``query-timeout``, ``overloaded``, ``capacity``) are resent
        after a jittered backoff for any statement — the server
        guarantees they left no trace — and a broken connection is
        transparently redialed, resending only idempotent statements or
        ones whose frame provably never went out.
        """
        if self._retry is None:
            return await self.wait(await self.submit(sql, timeout_ms))
        policy = self._retry
        attempt = 0
        while True:
            submitted = False
            hint: Optional[int] = None
            try:
                await self._ensure_connected()
                sid = await self.submit(sql, timeout_ms)
                submitted = True
                return await self.wait(sid)
            except ServerError as exc:
                if not exc.retryable or attempt + 1 >= policy.max_attempts:
                    raise
                hint = exc.backoff_ms
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                if (submitted and not _statement_is_idempotent(sql)) or (
                    attempt + 1 >= policy.max_attempts
                ):
                    raise
            await asyncio.sleep(policy.delay_ms(attempt, hint, self._retry_rng) / 1000.0)
            attempt += 1

    async def prepare(self, name: str, sql: str) -> ClientResult:
        """Parse + classify ``sql`` server-side under ``name``."""
        sid = next(self._ids)
        self._register(sid)
        await self._send({"type": "prepare", "id": sid, "name": name, "sql": sql})
        return await self._await_reply(sid)

    async def run_prepared(self, name: str) -> ClientResult:
        """Execute the statement previously :meth:`prepare`-d as ``name``."""
        sid = next(self._ids)
        self._register(sid)
        await self._send({"type": "run_prepared", "id": sid, "name": name})
        return await self._await_reply(sid)

    async def cancel(self, sid: int) -> None:
        """Request cooperative cancellation of an in-flight statement.

        Best-effort (spec §3.5): a queued statement is aborted and its
        :meth:`wait` raises :class:`ServerError` with code
        ``query-cancelled``; a statement already executing has its
        cancellation token fired and unwinds at the next
        checkpoint (writes atomically un-applied) — it may still reply
        with its normal result if it was already past the final
        checkpoint.
        """
        await self._send({"type": "cancel", "target": sid})

    async def aclose(self) -> None:
        """Send ``close``, await the server's ``goodbye``, drop streams."""
        if self._closed:
            return
        self._closed = True
        try:
            await write_frame(self._writer, {"type": "close"}, self._max_frame_bytes)
            await asyncio.wait_for(asyncio.shield(self._goodbye), 10.0)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            pass
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncSQLClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()
