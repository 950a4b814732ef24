"""Fault tolerance over the wire: deadlines, cancel, shedding, retry.

Exercises the PR 8 resilience surface end-to-end through real sockets:
per-statement ``timeout_ms`` overrides, cancelling a *running*
statement, overload shedding with ``backoff_ms`` hints, the
shutdown-vs-cancel terminal-frame guarantee, client retry/reconnect,
and corrupted-frame detection under the fault injection harness.
"""

import asyncio

import pytest

from repro.server import (
    AsyncSQLClient,
    RetryPolicy,
    ServerError,
    SQLServer,
)
from repro.server.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    read_frame,
    write_frame,
)
from repro.testing import FaultInjector, FaultRule, inject

from _harness import N_EVENTS, make_catalog, run_async

from test_server_lifecycle import gate_session


async def wait_until(predicate, timeout=5.0, interval=0.01):
    """Poll ``predicate`` on the event loop until true (or fail)."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(interval)


class TestWireDeadlines:
    def test_timeout_ms_interrupts_a_running_statement(self):
        inj = FaultInjector(
            seed=2,
            rules={"session.dispatch": FaultRule(action="sleep", sleep_s=0.2)},
        )

        async def main():
            async with SQLServer(make_catalog(1)) as srv:
                async with await AsyncSQLClient.connect("127.0.0.1", srv.port) as cli:
                    with inject(inj):
                        with pytest.raises(ServerError) as err:
                            await cli.execute(
                                "SELECT COUNT(*) AS n FROM events", timeout_ms=50
                            )
                    assert err.value.code == "query-timeout"
                    assert err.value.retryable
                    # the connection and session stay healthy
                    r = await cli.execute("SELECT COUNT(*) AS n FROM events")
                    assert r.scalar() == N_EVENTS

        run_async(main())

    def test_timed_out_write_leaves_no_trace(self):
        inj = FaultInjector(
            seed=4,
            rules={"session.dispatch": FaultRule(action="sleep", sleep_s=0.2)},
        )

        async def main():
            async with SQLServer(make_catalog(2)) as srv:
                async with await AsyncSQLClient.connect("127.0.0.1", srv.port) as cli:
                    with inject(inj):
                        with pytest.raises(ServerError) as err:
                            await cli.execute(
                                "UPDATE events SET val = 0.0 WHERE grp = 1",
                                timeout_ms=50,
                            )
                    assert err.value.code == "query-timeout"
                    assert srv.session.commit_count == 0
                    # retrying the same statement commits exactly once
                    w = await cli.execute("UPDATE events SET val = 0.0 WHERE grp = 1")
                    assert w.stats["write_seq"] == 1
                    assert srv.session.commit_count == 1

        run_async(main())

    def test_mistyped_timeout_ms_is_a_fatal_protocol_error(self):
        async def main():
            async with SQLServer(make_catalog(1)) as srv:
                reader, writer = await asyncio.open_connection("127.0.0.1", srv.port)
                try:
                    await write_frame(
                        writer, {"type": "hello", "version": PROTOCOL_VERSION}
                    )
                    hello_ok = await read_frame(reader)
                    assert hello_ok["type"] == "hello_ok"
                    await write_frame(
                        writer,
                        {
                            "type": "query",
                            "id": 1,
                            "sql": "SELECT COUNT(*) AS n FROM events",
                            "timeout_ms": "250",
                        },
                    )
                    frame = await read_frame(reader)
                    assert frame["type"] == "error"
                    assert frame["code"] == "protocol"
                    assert "timeout_ms" in frame["error"]
                    # fatal: the server hangs up after the error frame
                    assert await read_frame(reader) is None
                finally:
                    writer.close()
                    await writer.wait_closed()

        run_async(main())

    @pytest.mark.parametrize("bad", [0, -5])
    def test_out_of_range_timeout_ms_is_a_statement_error(self, bad):
        async def main():
            async with SQLServer(make_catalog(1)) as srv:
                async with await AsyncSQLClient.connect("127.0.0.1", srv.port) as cli:
                    with pytest.raises(ServerError) as err:
                        await cli.execute(
                            "SELECT COUNT(*) AS n FROM events", timeout_ms=bad
                        )
                    assert err.value.code == "sql"
                    assert "timeout_ms" in str(err.value)
                    # statement-level: the connection survives
                    r = await cli.execute("SELECT COUNT(*) AS n FROM events")
                    assert r.scalar() == N_EVENTS

        run_async(main())


class TestWireCancellation:
    def test_cancel_interrupts_a_running_statement(self):
        inj = FaultInjector(
            seed=13,
            rules={"session.dispatch": FaultRule(action="block", max_fires=1)},
        )

        async def main():
            async with SQLServer(make_catalog(3)) as srv:
                async with await AsyncSQLClient.connect("127.0.0.1", srv.port) as cli:
                    try:
                        with inject(inj):
                            sid = await cli.submit(
                                "UPDATE events SET val = val + 1.0 WHERE grp < 5"
                            )
                            # the statement is provably *running*: its
                            # dispatch thread sits inside the blocking
                            # fault point
                            await wait_until(
                                lambda: inj.fired.get("session.dispatch", 0) == 1
                            )
                            await cli.cancel(sid)
                            await asyncio.sleep(0.05)
                            inj.release_all()
                            with pytest.raises(ServerError) as err:
                                await cli.wait(sid)
                        assert err.value.code == "query-cancelled"
                        assert not err.value.retryable
                        assert srv.session.commit_count == 0
                        # the interrupted write never landed
                        r = await cli.execute(
                            "SELECT COUNT(*) AS n FROM events WHERE val > 1.0"
                        )
                        assert r.scalar() == 0
                    finally:
                        inj.release_all()

        run_async(main())

    def test_shutdown_racing_cancel_sends_one_terminal_frame_each(self):
        async def main():
            srv = SQLServer(make_catalog(5), session_max_inflight=1)
            await srv.start()
            gate = gate_session(srv.session)
            reader, writer = await asyncio.open_connection("127.0.0.1", srv.port)
            try:
                await write_frame(
                    writer, {"type": "hello", "version": PROTOCOL_VERSION}
                )
                assert (await read_frame(reader))["type"] == "hello_ok"
                sql = "SELECT COUNT(*) AS n FROM events"
                await write_frame(writer, {"type": "query", "id": 1, "sql": sql})
                await write_frame(writer, {"type": "query", "id": 2, "sql": sql})
                # id 1 is running (gated), id 2 queued behind the
                # session admission bound
                await wait_until(lambda: srv.session.inflight == 1)
                await write_frame(writer, {"type": "cancel", "target": 2})
                await asyncio.sleep(0.05)
                close_task = asyncio.create_task(srv.aclose())
                await asyncio.sleep(0.05)
                gate.set()
                frames = []
                while True:
                    frame = await read_frame(reader)
                    if frame is None:
                        break
                    frames.append(frame)
                await close_task
                terminal = {}
                for frame in frames:
                    if "id" in frame:
                        terminal.setdefault(frame["id"], []).append(frame)
                assert set(terminal) == {1, 2}
                assert all(len(v) == 1 for v in terminal.values()), (
                    "duplicate terminal frames: %r" % terminal
                )
                assert terminal[1][0]["type"] == "result"
                assert terminal[2][0]["type"] == "error"
                assert terminal[2][0]["code"] == "query-cancelled"
            finally:
                gate.set()
                writer.close()
                await writer.wait_closed()
                await srv.aclose()

        run_async(main())


class TestOverloadShedding:
    def test_overloaded_frame_carries_backoff_hint(self):
        async def main():
            async with SQLServer(
                make_catalog(7), session_max_inflight=1, session_max_queued=1
            ) as srv:
                gate = gate_session(srv.session)
                try:
                    async with await AsyncSQLClient.connect(
                        "127.0.0.1", srv.port
                    ) as cli:
                        sql = "SELECT COUNT(*) AS n FROM events"
                        s1 = await cli.submit(sql)
                        s2 = await cli.submit(sql)
                        await wait_until(
                            lambda: srv.session.inflight == 1
                            and srv.session.queued == 1
                        )
                        with pytest.raises(ServerError) as err:
                            await cli.execute(sql)
                        assert err.value.code == "overloaded"
                        assert err.value.retryable
                        assert isinstance(err.value.backoff_ms, int)
                        assert err.value.backoff_ms > 0
                        gate.set()
                        assert (await cli.wait(s1)).scalar() == N_EVENTS
                        assert (await cli.wait(s2)).scalar() == N_EVENTS
                finally:
                    gate.set()

        run_async(main())

    def test_client_retries_through_overload(self):
        async def main():
            async with SQLServer(
                make_catalog(9), session_max_inflight=1, session_max_queued=1
            ) as srv:
                gate = gate_session(srv.session)
                try:
                    async with await AsyncSQLClient.connect(
                        "127.0.0.1", srv.port
                    ) as occupier:
                        s1 = await occupier.submit("SELECT COUNT(*) AS n FROM events")
                        s2 = await occupier.submit("SELECT COUNT(*) AS n FROM metrics")
                        await wait_until(
                            lambda: srv.session.inflight == 1
                            and srv.session.queued == 1
                        )
                        policy = RetryPolicy(
                            max_attempts=8, base_backoff_ms=50.0, jitter=0.0, seed=1
                        )
                        async with await AsyncSQLClient.connect(
                            "127.0.0.1", srv.port, retry=policy
                        ) as cli:
                            fut = asyncio.create_task(
                                cli.execute("SELECT COUNT(*) AS n FROM events")
                            )
                            await asyncio.sleep(0.2)  # guarantee >=1 shed attempt
                            gate.set()
                            assert (await fut).scalar() == N_EVENTS
                        await occupier.wait(s1)
                        await occupier.wait(s2)
                finally:
                    gate.set()

        run_async(main())

    def test_retry_budget_exhausts_with_the_typed_error(self):
        async def main():
            async with SQLServer(
                make_catalog(11), session_max_inflight=1, session_max_queued=1
            ) as srv:
                gate = gate_session(srv.session)
                try:
                    async with await AsyncSQLClient.connect(
                        "127.0.0.1", srv.port
                    ) as occupier:
                        s1 = await occupier.submit("SELECT COUNT(*) AS n FROM events")
                        s2 = await occupier.submit("SELECT COUNT(*) AS n FROM metrics")
                        await wait_until(
                            lambda: srv.session.inflight == 1
                            and srv.session.queued == 1
                        )
                        policy = RetryPolicy(
                            max_attempts=2, base_backoff_ms=10.0, jitter=0.0
                        )
                        async with await AsyncSQLClient.connect(
                            "127.0.0.1", srv.port, retry=policy
                        ) as cli:
                            with pytest.raises(ServerError) as err:
                                await cli.execute("SELECT COUNT(*) AS n FROM events")
                        assert err.value.code == "overloaded"
                        assert err.value.retryable
                        gate.set()
                        await occupier.wait(s1)
                        await occupier.wait(s2)
                finally:
                    gate.set()

        run_async(main())


class TestReconnect:
    def test_async_client_redials_after_a_dropped_connection(self):
        async def main():
            async with SQLServer(make_catalog(2)) as srv:
                cli = await AsyncSQLClient.connect(
                    "127.0.0.1",
                    srv.port,
                    retry=RetryPolicy(max_attempts=3, base_backoff_ms=10.0, seed=6),
                )
                try:
                    r1 = await cli.execute("SELECT COUNT(*) AS n FROM events")
                    cli._writer.close()
                    await cli._writer.wait_closed()
                    await wait_until(lambda: not cli._connected)
                    r2 = await cli.execute("SELECT COUNT(*) AS n FROM events")
                    assert r1.scalar() == r2.scalar() == N_EVENTS
                finally:
                    await cli.aclose()

        run_async(main())

    def test_connection_loss_does_not_resend_a_submitted_write(self):
        """A write that may have reached the server is never resent.

        The client raises instead of retrying; server-side the severed
        statement is cancelled and unwinds without committing, so the
        write lands zero times — never twice.
        """

        async def main():
            async with SQLServer(make_catalog(3)) as srv:
                gate = gate_session(srv.session)
                cli = await AsyncSQLClient.connect(
                    "127.0.0.1",
                    srv.port,
                    retry=RetryPolicy(max_attempts=4, base_backoff_ms=10.0),
                )
                write = asyncio.create_task(
                    cli.execute("DELETE FROM events WHERE eid < 10")
                )
                try:
                    # the write is submitted and holds its slot, then the
                    # transport dies while the client awaits the reply
                    await wait_until(lambda: srv.session.inflight == 1)
                    cli._writer.close()
                    done, _ = await asyncio.wait({write}, timeout=5.0)
                    assert done, "the client resent the write instead of raising"
                    with pytest.raises((ConnectionError, OSError)):
                        write.result()
                    # hold the gate until the server has seen the
                    # disconnect too and its cancel has reached the
                    # statement's token (one loop turn after the
                    # connection is dropped)
                    await wait_until(lambda: srv.connections == 0)
                    await asyncio.sleep(0.05)
                finally:
                    write.cancel()
                    gate.set()
                    await cli.aclose()
                # disconnect cancelled the gated statement: it unwound
                # before the atomic mutation, so nothing committed
                await wait_until(lambda: srv.session.inflight == 0)
                assert srv.session.commit_count == 0
                assert srv.session.catalog.table("events").num_rows == N_EVENTS

        run_async(main())


class TestCorruptedFrames:
    def test_client_detects_a_corrupted_server_frame(self):
        # seed 0 deterministically lands the single bit flip inside the
        # result frame's JSON body, producing a malformed payload
        inj = FaultInjector(
            seed=0, rules={"server.frame": FaultRule(action="corrupt", max_fires=1)}
        )

        async def main():
            async with SQLServer(make_catalog(1)) as srv:
                cli = await AsyncSQLClient.connect("127.0.0.1", srv.port)
                try:
                    with inject(inj):
                        with pytest.raises(ProtocolError):
                            await cli.execute("SELECT COUNT(*) AS n FROM events")
                finally:
                    await cli.aclose()
                assert inj.fired.get("server.frame", 0) == 1

        run_async(main())
