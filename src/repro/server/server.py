"""Asyncio TCP server fronting one shared session core.

The network front door of the ROADMAP's "millions of users" leg: an
:mod:`asyncio` server speaking the length-prefixed JSON protocol of
``docs/protocol.md`` (normative; see :mod:`repro.server.protocol` for
the codec), multiplexing every connection onto **one**
:class:`~repro.sql.async_session.AsyncSQLSession` — and therefore one
statement lane and one write order.  ``docs/architecture.md`` places this layer in the system
and explains why connections share the session core: per-connection
session cores would each carry their own writer lock over the same
catalog, which is exactly the unsynchronized concurrent DML the
blocking session rejects.

Scheduling and limits
---------------------
* ``max_connections`` bounds accepted connections; the connection that
  would exceed it receives a fatal ``capacity`` error frame.
* ``max_inflight`` is the **per-connection** statement bound, mapped
  onto the session's global FIFO admission: each connection holds an
  :class:`asyncio.Semaphore` of that size, so one chatty client queues
  behind its own limit while the session's fair FIFO (its own
  ``session_max_inflight`` bound) arbitrates *between* connections.
* Statements are submitted to the session in frame-arrival order per
  connection, so one connection's writes commit in the order it sent
  them; the global write order is the session's FIFO admission order.

Lifecycle
---------
* ``prepare`` parses and classifies once, per connection;
  ``run_prepared`` re-runs the stored statement through
  :meth:`AsyncSQLSession.execute_parsed` (the optimizer half still runs
  per execution, under the statement's admission slot).
* ``cancel`` is cooperative, with the session's semantics: a
  still-queued statement is removed and never runs; a statement already
  *executing* has its
  :class:`~repro.engine.interrupt.CancellationToken` fired and unwinds
  at its next between-chunk checkpoint — reads leave tables untouched,
  writes are atomically un-applied (the last checkpoint sits
  immediately before the mutation).  The reply carries the
  ``query-cancelled`` error code either way.  Statement deadlines ride
  the same token: a ``timeout_ms`` field on ``query``/``run_prepared``
  (or the server-wide ``statement_timeout_ms``) surfaces as the
  retryable ``query-timeout`` code, and a full admission queue
  (``session_max_queued``) is shed with the retryable ``overloaded``
  code carrying a ``backoff_ms`` hint.
* A client disconnect cancels that connection's statements the same
  way: queued ones never run, running ones unwind at a checkpoint (or
  commit whole if already past the final one), so the committed write
  order never tears (fuzz-tested in
  ``tests/server/test_server_fuzz.py``).
* :meth:`SQLServer.aclose` drains gracefully: stop accepting, abort
  *queued* statements with typed ``server-closed`` error frames
  (:class:`~repro.sql.async_session.ServerClosedError` underneath), let
  in-flight statements commit and deliver their results, then say
  ``goodbye`` on every connection and release the statement lane.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hmac
import operator
from typing import Dict, List, Optional, Set

from repro.engine.batch import Relation
from repro.engine.interrupt import (
    QueryCancelledError,
    QueryTimeoutError,
    validate_positive_int,
)
from repro.sql.async_session import (
    AsyncSQLSession,
    QueryStats,
    ServerClosedError,
    SessionOverloadedError,
)
from repro.sql.parser import parse_statement
from repro.sql.session import SQLSession, classify_statement
from repro.server import protocol
from repro.server.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    ERR_AUTH,
    ERR_CANCELLED,
    ERR_CAPACITY,
    ERR_OVERLOADED,
    ERR_QUERY_TIMEOUT,
    ERR_SERVER_CLOSED,
    ERR_SQL,
    ERR_UNKNOWN_PREPARED,
    PROTOCOL_VERSION,
    ConnectionClosedError,
    ProtocolError,
    encode_frame,
    error_frame,
    read_frame,
    validate_message,
)
from repro.testing import faults
from repro.storage.catalog import Catalog

__all__ = ["SQLServer", "validate_port"]

#: Reported in ``hello_ok`` frames.
SERVER_NAME = "patchindex-repro/0.1.0"

#: Seconds a fresh connection gets to complete the handshake.
HANDSHAKE_TIMEOUT = 10.0


def validate_port(value: object, name: str = "port") -> int:
    """Validate a TCP port knob, returning it as a plain int.

    Accepts integers in ``[0, 65535]`` (``0`` binds an ephemeral port);
    rejects bools, non-integers and out-of-range values up front, the
    same discipline :func:`~repro.engine.interrupt.validate_positive_int`
    applies to count knobs.
    """
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    try:
        port = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"{name} must be in [0, 65535], got {port}")
    return int(port)


def _result_payload(result):
    """Split a session result into ``(columns, rows, row_count)``.

    SELECTs yield a :class:`Relation` — serialized column-name list plus
    row-major values (numpy scalars converted to plain Python via
    ``tolist``); DML and SET yield a plain count with no row block.
    """
    if isinstance(result, Relation):
        names = result.column_names
        columns = [result.column(n).tolist() for n in names]
        rows = [list(row) for row in zip(*columns)] if names else []
        return names, rows, result.num_rows
    return None, None, int(result)


class _Connection:
    """Per-connection state: streams, limits, prepared statements."""

    _ids = iter(range(1, 1 << 62))

    def __init__(self, reader, writer, max_inflight: int) -> None:
        self.id = next(self._ids)
        self.reader = reader
        self.writer = writer
        self.slots = asyncio.Semaphore(max_inflight)
        self.write_lock = asyncio.Lock()
        self.inflight: Dict[int, asyncio.Task] = {}
        self.prepared: Dict[str, tuple] = {}
        self.closing = False

    async def send(self, message: Dict, max_frame_bytes: int) -> None:
        """Write one frame, serialized against concurrent statement tasks."""
        async with self.write_lock:
            data = encode_frame(message, max_frame_bytes)
            if faults.ACTIVE:
                # chaos-suite injection points: corrupt the outgoing
                # frame or drop the connection mid-send
                data = faults.mutate("server.frame", data)
                faults.fire("server.send")
            self.writer.write(data)
            await self.writer.drain()

    async def close_transport(self) -> None:
        """Close the socket, swallowing transport teardown errors."""
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class SQLServer:
    """Serve SQL over TCP on top of one shared async session.

    Parameters
    ----------
    catalog / index_manager / statement_timeout_ms / data_dir /
    wal_sync / checkpoint_interval:
        Build the :class:`SQLSession` core (``statement_timeout_ms`` is
        the default per-statement deadline clients may override per
        statement).  With ``data_dir`` set, the server recovers the
        directory's committed state before accepting connections,
        WAL-logs every commit, and the graceful drain of :meth:`aclose`
        syncs and checkpoints (via the core's close), so a clean
        restart replays nothing.
    session_max_inflight / session_max_queued / stats_history:
        The shared :class:`AsyncSQLSession`'s ``max_inflight``
        (global admission bound), ``max_queued`` (overload-shedding
        queue bound) and ``stats_history``.
    host / port:
        Bind address; ``port=0`` (the default) binds an ephemeral port,
        exposed as :attr:`port` after :meth:`start`.
    auth_token:
        When set, ``hello.token`` must match it (compared in constant
        time); when ``None`` the server accepts any token, absent
        included.
    max_connections:
        Accepted-connection cap; the connection that would exceed it is
        turned away with a fatal ``capacity`` error frame.
    max_inflight:
        Per-connection statement bound (see the module docstring for
        how it maps onto the session's FIFO admission).
    max_frame_bytes:
        Frame-size cap, enforced on receive before a body is buffered
        and advertised to clients in ``hello_ok``.

    Usage::

        async with SQLServer(catalog, port=0) as server:
            ...  # server.port is bound; connect an AsyncSQLClient
    """

    def __init__(
        self,
        catalog: Catalog,
        index_manager=None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        auth_token: Optional[str] = None,
        max_connections: int = 64,
        max_inflight: int = 16,
        session_max_inflight: int = 8,
        session_max_queued: Optional[int] = None,
        statement_timeout_ms: Optional[int] = None,
        stats_history: int = 256,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        data_dir: Optional[str] = None,
        wal_sync: str = "fsync",
        checkpoint_interval: Optional[int] = None,
    ) -> None:
        self._host = host
        self._port = validate_port(port)
        self._auth_token = auth_token
        self._max_connections = validate_positive_int(max_connections, "max_connections")
        self._max_inflight = validate_positive_int(max_inflight, "max_inflight")
        if max_frame_bytes < protocol.HEADER.size:
            raise ValueError(f"max_frame_bytes too small: {max_frame_bytes}")
        self._max_frame_bytes = int(max_frame_bytes)
        self._db = AsyncSQLSession(
            SQLSession(
                catalog,
                index_manager,
                statement_timeout_ms=statement_timeout_ms,
                data_dir=data_dir,
                wal_sync=wal_sync,
                checkpoint_interval=checkpoint_interval,
            ),
            max_inflight=session_max_inflight,
            max_queued=session_max_queued,
            stats_history=stats_history,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()
        self._conn_tasks: Set[asyncio.Task] = set()
        self._closing = False
        self._closed = False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def session(self) -> AsyncSQLSession:
        """The shared session core (in-process introspection: stats,
        commit_count; the load tests replay its committed write log)."""
        return self._db

    @property
    def host(self) -> str:
        """Bind host."""
        return self._host

    @property
    def port(self) -> int:
        """Bound port (the ephemeral one once started with ``port=0``)."""
        return self._port

    @property
    def max_connections(self) -> int:
        """Accepted-connection cap."""
        return self._max_connections

    @property
    def max_inflight(self) -> int:
        """Per-connection in-flight statement cap."""
        return self._max_inflight

    @property
    def connections(self) -> int:
        """Connections currently accepted (post-handshake included)."""
        return len(self._connections)

    def stats(self) -> List[QueryStats]:
        """Per-statement records of the shared session, oldest first."""
        return self._db.stats()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "SQLServer":
        """Bind and start accepting connections; returns ``self``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        if self._closed:
            raise ServerClosedError("server is closed")
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        return self

    async def aclose(self) -> None:
        """Graceful drain (idempotent; see the module docstring).

        Stops accepting, aborts statements still queued for admission
        with typed ``server-closed`` errors, waits for in-flight
        statements to commit *and their result frames to be written*,
        then says ``goodbye`` on every connection and releases the
        session's statement lane.
        """
        if self._closed:
            return
        self._closing = True
        self._closed = True
        if self._server is not None:
            self._server.close()
        # Abort queued statements (their tasks send server-closed
        # frames) and wait for admitted ones to finish executing.
        await self._db.shutdown()
        # Let every statement task deliver its final frame.  Re-snapshot
        # until quiescent: a statement task created while the drain was
        # in flight (the frame loop keeps serving until the goodbye)
        # would otherwise miss the gather and get its terminal frame
        # cut off by the connection-task cancellation below — every
        # statement id must see exactly one of result /
        # error(query-cancelled) / error(server-closed).
        while True:
            pending = [t for c in self._connections for t in c.inflight.values()]
            if not pending:
                break
            await asyncio.gather(*pending, return_exceptions=True)
        for conn in list(self._connections):
            conn.closing = True
            try:
                await conn.send({"type": "goodbye"}, self._max_frame_bytes)
            except (ConnectionError, OSError):
                pass
            await conn.close_transport()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    async def __aenter__(self) -> "SQLServer":
        if self._server is None:
            await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        """Accept → handshake → serve → teardown, for one connection."""
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        conn = _Connection(reader, writer, self._max_inflight)
        try:
            if self._closing:
                await self._refuse(conn, ERR_SERVER_CLOSED, "server is shutting down")
                return
            if len(self._connections) >= self._max_connections:
                await self._refuse(
                    conn,
                    ERR_CAPACITY,
                    f"connection limit reached ({self._max_connections})",
                )
                return
            self._connections.add(conn)
            if not await self._handshake(conn):
                return
            await self._serve(conn)
        except asyncio.CancelledError:
            pass
        finally:
            self._connections.discard(conn)
            if task is not None:
                self._conn_tasks.discard(task)
            # disconnect (or teardown): cancel this connection's
            # statements — queued ones never run, running ones finish
            # atomically on their worker thread (session semantics), so
            # committed write order is preserved.
            for stmt_task in list(conn.inflight.values()):
                stmt_task.cancel()
            conn.closing = True
            await conn.close_transport()

    async def _refuse(self, conn: _Connection, code: str, reason: str) -> None:
        """Turn a connection away with one fatal error frame."""
        try:
            await conn.send(error_frame(code, reason), self._max_frame_bytes)
        except (ConnectionError, OSError):
            pass

    async def _handshake(self, conn: _Connection) -> bool:
        """Require a valid ``hello`` as the first frame (spec §2)."""
        try:
            message = await asyncio.wait_for(
                read_frame(conn.reader, self._max_frame_bytes), HANDSHAKE_TIMEOUT
            )
        except ProtocolError as exc:
            await self._refuse(conn, exc.code, str(exc))
            return False
        except (asyncio.TimeoutError, ConnectionClosedError, ConnectionError, OSError):
            return False
        if message is None:
            return False
        try:
            mtype = validate_message(message, protocol.CLIENT_MESSAGES)
            if mtype != "hello":
                raise ProtocolError(f"first frame must be 'hello', got {mtype!r}")
            if message["version"] != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"unsupported protocol version {message['version']!r}; "
                    f"server speaks {PROTOCOL_VERSION}"
                )
        except ProtocolError as exc:
            await self._refuse(conn, exc.code, str(exc))
            return False
        if self._auth_token is not None:
            token = message.get("token")
            ok = isinstance(token, str) and hmac.compare_digest(
                token.encode(), self._auth_token.encode()
            )
            if not ok:
                await self._refuse(conn, ERR_AUTH, "invalid auth token")
                return False
        await conn.send(
            {
                "type": "hello_ok",
                "version": PROTOCOL_VERSION,
                "server": SERVER_NAME,
                "max_frame_bytes": self._max_frame_bytes,
                "max_inflight": self._max_inflight,
            },
            self._max_frame_bytes,
        )
        return True

    async def _serve(self, conn: _Connection) -> None:
        """Frame dispatch loop for one authenticated connection."""
        while True:
            try:
                message = await read_frame(conn.reader, self._max_frame_bytes)
            except ProtocolError as exc:
                await self._refuse(conn, exc.code, str(exc))
                return
            except (ConnectionClosedError, ConnectionError, OSError):
                return
            if message is None:
                return
            try:
                mtype = validate_message(message, protocol.CLIENT_MESSAGES)
                if mtype == "close":
                    await self._close_connection(conn)
                    return
                if mtype == "cancel":
                    target = conn.inflight.get(message["target"])
                    if target is not None:
                        target.cancel()
                    continue
                if mtype == "hello":
                    raise ProtocolError("duplicate 'hello'")
                sid = message["id"]
                if sid in conn.inflight:
                    raise ProtocolError(f"statement id {sid} is already in flight")
                if mtype == "prepare":
                    await self._prepare(conn, message)
                    continue
                # query / run_prepared: run concurrently, reply by id
                task = asyncio.get_running_loop().create_task(
                    self._run_statement(conn, mtype, message)
                )
                conn.inflight[sid] = task
                task.add_done_callback(lambda _t, c=conn, i=sid: c.inflight.pop(i, None))
            except ProtocolError as exc:
                # statement-independent violation: fatal (spec §5)
                await self._refuse(conn, exc.code, str(exc))
                return

    async def _close_connection(self, conn: _Connection) -> None:
        """Graceful per-connection close: finish in-flight, say goodbye."""
        conn.closing = True
        pending = list(conn.inflight.values())
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        try:
            await conn.send({"type": "goodbye"}, self._max_frame_bytes)
        except (ConnectionError, OSError):
            pass

    async def _prepare(self, conn: _Connection, message: Dict) -> None:
        """Parse + classify once; store under the connection-local name."""
        sid = message["id"]
        try:
            stmt = parse_statement(message["sql"])
            kind = classify_statement(stmt)
        except Exception as exc:
            await self._send_statement_error(conn, sid, ERR_SQL, exc)
            return
        conn.prepared[message["name"]] = (stmt, message["sql"])
        await conn.send(
            {
                "type": "result",
                "id": sid,
                "row_count": 0,
                "prepared": message["name"],
                "kind": kind,
            },
            self._max_frame_bytes,
        )

    async def _run_statement(self, conn: _Connection, mtype: str, message: Dict) -> None:
        """One statement task: admit under the per-connection bound,
        execute through the shared session, reply with a typed frame."""
        sid = message["id"]
        try:
            async with conn.slots:
                if mtype == "run_prepared":
                    entry = conn.prepared.get(message["name"])
                    if entry is None:
                        raise _StatementError(
                            ERR_UNKNOWN_PREPARED,
                            f"no prepared statement named {message['name']!r}",
                        )
                    stmt, sql = entry
                else:
                    sql = message["sql"]
                    try:
                        stmt = parse_statement(sql)
                    except Exception as exc:
                        raise _StatementError(ERR_SQL, str(exc)) from exc
                # the session validates timeout_ms; a bad value answers
                # as a statement-level sql error below
                result, stats = await self._db.execute_parsed(
                    stmt, sql, with_stats=True, timeout_ms=message.get("timeout_ms")
                )
            columns, rows, row_count = _result_payload(result)
            frame: Dict = {
                "type": "result",
                "id": sid,
                "row_count": row_count,
                "stats": dataclasses.asdict(stats),
            }
            if columns is not None:
                frame["columns"] = columns
                frame["rows"] = rows
        except asyncio.CancelledError:
            # cancel message or disconnect; keep serving the connection
            task = asyncio.current_task()
            if task is not None and hasattr(task, "uncancel"):
                task.uncancel()
            frame = error_frame(ERR_CANCELLED, "statement cancelled", id=sid)
        except _StatementError as exc:
            frame = error_frame(exc.code, exc.reason, id=sid)
        except QueryTimeoutError as exc:
            frame = error_frame(ERR_QUERY_TIMEOUT, str(exc), id=sid)
        except QueryCancelledError:
            # belt-and-braces: a token fired without the task being
            # cancelled (e.g. a racing interrupt) still reports as a
            # cancellation, not a generic sql error
            frame = error_frame(ERR_CANCELLED, "statement cancelled", id=sid)
        except SessionOverloadedError as exc:
            frame = error_frame(
                ERR_OVERLOADED, str(exc), id=sid, backoff_ms=exc.backoff_ms
            )
        except ServerClosedError as exc:
            frame = error_frame(ERR_SERVER_CLOSED, str(exc), id=sid)
        except Exception as exc:
            frame = error_frame(ERR_SQL, f"{type(exc).__name__}: {exc}", id=sid)
        try:
            await conn.send(frame, self._max_frame_bytes)
        except (ConnectionError, OSError, ProtocolError):
            # peer vanished mid-reply (or the result outgrew the frame
            # cap); the statement's effect, if any, is already durable
            pass

    async def _send_statement_error(
        self, conn: _Connection, sid: int, code: str, exc: Exception
    ) -> None:
        """Reply to ``sid`` with a non-fatal typed error frame."""
        await conn.send(error_frame(code, str(exc), id=sid), self._max_frame_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else ("live" if self._server else "unstarted")
        return (
            f"SQLServer({self._host}:{self._port}, {state}, "
            f"connections={len(self._connections)}/{self._max_connections})"
        )


class _StatementError(Exception):
    """Internal: a statement-level failure with its wire error code."""

    def __init__(self, code: str, reason: str) -> None:
        super().__init__(reason)
        self.code = code
        self.reason = reason
