"""Server lifecycle: handshake, statements, limits, drain, validation."""

import asyncio
import threading

import numpy as np
import pytest

from repro.server import (
    AsyncSQLClient,
    ConnectionClosedError,
    ServerClosedError,
    ServerError,
    SQLServer,
    validate_port,
)
from repro.server.protocol import PROTOCOL_VERSION, encode_frame, read_frame, write_frame
from repro.sql import AsyncSQLSession, SQLSession

from _harness import make_catalog, run_async

HEAVY = "SELECT eid, val FROM events WHERE val > 0.00001 ORDER BY val DESC, eid LIMIT 5"


def gate_session(async_session) -> threading.Event:
    """Block the inner session's ``run_prepared`` until the event is set.

    Statements keep their FIFO slots while gated, so tests can build a
    deterministic in-flight + queued shape on a small catalog instead
    of racing against query runtime.
    """
    gate = threading.Event()
    inner = async_session._session
    real = inner.run_prepared

    def gated(prepared, *args, **kwargs):
        assert gate.wait(60.0), "test gate never opened"
        return real(prepared, *args, **kwargs)

    inner.run_prepared = gated
    return gate


def test_select_dml_and_stats_over_the_wire():
    async def main():
        async with SQLServer(make_catalog(1)) as srv:
            async with await AsyncSQLClient.connect("127.0.0.1", srv.port) as cli:
                assert cli.server_info["version"] == PROTOCOL_VERSION
                r = await cli.execute("SELECT COUNT(*) AS n FROM events WHERE grp < 10")
                assert r.columns == ["n"] and len(r.rows) == 1
                assert r.stats["kind"] == "read" and r.stats["write_seq"] == 0

                w = await cli.execute("UPDATE events SET val = val * 2.0 WHERE grp = 3")
                assert w.columns is None and w.rows is None
                assert w.row_count > 0
                assert w.stats["kind"] == "write" and w.stats["write_seq"] == 1

                r2 = await cli.execute("SELECT COUNT(*) AS n FROM metrics")
                assert r2.stats["write_seq"] == 1  # observed the write prefix
                assert srv.session.commit_count == 1

    run_async(main())


def test_prepare_run_prepared_and_unknown_name():
    async def main():
        async with SQLServer(make_catalog(3)) as srv:
            async with await AsyncSQLClient.connect("127.0.0.1", srv.port) as cli:
                ack = await cli.prepare(
                    "agg", "SELECT grp, COUNT(*) AS n FROM events GROUP BY grp ORDER BY grp"
                )
                assert ack.row_count == 0
                first = await cli.run_prepared("agg")
                again = await cli.run_prepared("agg")
                assert first.rows == again.rows
                # prepared DML re-executes per run
                await cli.prepare("bump", "UPDATE events SET val = val + 1.0 WHERE grp = 1")
                assert (await cli.run_prepared("bump")).stats["write_seq"] == 1
                assert (await cli.run_prepared("bump")).stats["write_seq"] == 2
                with pytest.raises(ServerError) as err:
                    await cli.run_prepared("nope")
                assert err.value.code == "unknown-prepared"
                # prepare of invalid SQL answers a statement-level error
                with pytest.raises(ServerError) as err:
                    await cli.prepare("bad", "SELEC 1")
                assert err.value.code == "sql"

    run_async(main())


def test_prepared_statements_are_connection_local():
    async def main():
        async with SQLServer(make_catalog(4)) as srv:
            a = await AsyncSQLClient.connect("127.0.0.1", srv.port)
            b = await AsyncSQLClient.connect("127.0.0.1", srv.port)
            await a.prepare("q", "SELECT COUNT(*) AS n FROM events")
            with pytest.raises(ServerError) as err:
                await b.run_prepared("q")
            assert err.value.code == "unknown-prepared"
            await a.aclose()
            await b.aclose()

    run_async(main())


def test_sql_errors_keep_connection_usable():
    async def main():
        async with SQLServer(make_catalog(5)) as srv:
            async with await AsyncSQLClient.connect("127.0.0.1", srv.port) as cli:
                for bad, code in [
                    ("SELEC 1", "sql"),  # parse error
                    ("SELECT x FROM no_such_table", "sql"),  # execution error
                ]:
                    with pytest.raises(ServerError) as err:
                        await cli.execute(bad)
                    assert err.value.code == code and not err.value.fatal
                ok = await cli.execute("SELECT COUNT(*) AS n FROM events")
                assert ok.rows[0][0] == len(
                    srv.session.catalog.table("events").rowids()
                )

    run_async(main())


def test_bind_errors_do_not_leak_session_slots():
    async def main():
        async with SQLServer(make_catalog(5), session_max_inflight=2) as srv:
            async with await AsyncSQLClient.connect("127.0.0.1", srv.port) as cli:
                bad = "SELECT grp FROM events a JOIN events b ON eid = eid"
                for _ in range(2 * srv.session.max_inflight):
                    with pytest.raises(ServerError, match="ambiguous column") as err:
                        await cli.execute(bad)
                    assert err.value.code == "sql" and not err.value.fatal
                ok = await asyncio.wait_for(
                    cli.execute("SELECT COUNT(*) AS n FROM events"), 10.0
                )
                assert ok.rows[0][0] > 0
                w = await asyncio.wait_for(
                    cli.execute("DELETE FROM events WHERE eid = 0"), 10.0
                )
                assert w.row_count == 1

    run_async(main(), timeout=30.0)


def test_removed_parallelism_setting_is_a_statement_error():
    async def main():
        async with SQLServer(make_catalog(5)) as srv:
            async with await AsyncSQLClient.connect("127.0.0.1", srv.port) as cli:
                with pytest.raises(ServerError, match="unknown session setting") as err:
                    await cli.execute("SET parallelism = 2")
                assert err.value.code == "sql" and not err.value.fatal
                ok = await cli.execute("SELECT COUNT(*) AS n FROM events")
                assert ok.rows[0][0] > 0

    run_async(main())


def test_set_row_count_is_the_setting_value():
    """docs/protocol.md §4.1: a SET's ``row_count`` is the new value, 0
    for ``off`` and for a string value."""

    async def main():
        async with SQLServer(make_catalog(5)) as srv:
            async with await AsyncSQLClient.connect("127.0.0.1", srv.port) as cli:
                for sql, row_count in [
                    ("SET statement_timeout_ms = 250", 250),
                    ("SET checkpoint_interval = 16", 16),
                    ("SET checkpoint_interval = off", 0),
                    ("SET wal_sync = group", 0),
                ]:
                    assert (await cli.execute(sql)).row_count == row_count, sql

    run_async(main())


class TestHandshake:
    def test_wrong_token_rejected(self):
        async def main():
            async with SQLServer(make_catalog(6), auth_token="s3cret") as srv:
                with pytest.raises(ServerError) as err:
                    await AsyncSQLClient.connect("127.0.0.1", srv.port, token="wrong")
                assert err.value.code == "auth" and err.value.fatal
                with pytest.raises(ServerError) as err:
                    await AsyncSQLClient.connect("127.0.0.1", srv.port)  # missing
                assert err.value.code == "auth"
                cli = await AsyncSQLClient.connect("127.0.0.1", srv.port, token="s3cret")
                await cli.aclose()

        run_async(main())

    def test_token_ignored_when_server_has_none(self):
        async def main():
            async with SQLServer(make_catalog(6)) as srv:
                cli = await AsyncSQLClient.connect("127.0.0.1", srv.port, token="x")
                assert (await cli.execute("SELECT COUNT(*) AS n FROM events")).rows
                await cli.aclose()

        run_async(main())

    def test_version_mismatch_rejected(self):
        async def main():
            async with SQLServer(make_catalog(6)) as srv:
                reader, writer = await asyncio.open_connection("127.0.0.1", srv.port)
                await write_frame(writer, {"type": "hello", "version": 99})
                frame = await read_frame(reader)
                assert frame["type"] == "error" and frame["code"] == "protocol"
                assert await read_frame(reader) is None  # server closed
                writer.close()

        run_async(main())

    def test_first_frame_must_be_hello(self):
        async def main():
            async with SQLServer(make_catalog(6)) as srv:
                reader, writer = await asyncio.open_connection("127.0.0.1", srv.port)
                await write_frame(writer, {"type": "query", "id": 1, "sql": "SELECT 1"})
                frame = await read_frame(reader)
                assert frame["type"] == "error" and frame["code"] == "protocol"
                writer.close()

        run_async(main())


class TestLimits:
    def test_max_connections_turns_excess_away(self):
        async def main():
            async with SQLServer(make_catalog(7), max_connections=2) as srv:
                a = await AsyncSQLClient.connect("127.0.0.1", srv.port)
                b = await AsyncSQLClient.connect("127.0.0.1", srv.port)
                with pytest.raises(ServerError) as err:
                    await AsyncSQLClient.connect("127.0.0.1", srv.port)
                assert err.value.code == "capacity" and err.value.fatal
                await a.aclose()
                # a slot freed: accepted again
                c = await AsyncSQLClient.connect("127.0.0.1", srv.port)
                await c.aclose()
                await b.aclose()

        run_async(main())

    def test_per_connection_inflight_backpressure(self):
        async def main():
            async with SQLServer(
                make_catalog(8), max_inflight=2, session_max_inflight=8
            ) as srv:
                async with await AsyncSQLClient.connect("127.0.0.1", srv.port) as cli:
                    sids = [await cli.submit(HEAVY) for _ in range(6)]
                    # the per-connection semaphore admits at most 2 into
                    # the session at once
                    for _ in range(200):
                        assert srv.session.inflight + srv.session.queued <= 2
                        if all(cli._pending[s].done() for s in sids):
                            break
                        await asyncio.sleep(0.005)
                    results = [await cli.wait(s) for s in sids]
                    assert all(r.row_count == 5 for r in results)

        run_async(main())

    def test_statement_id_reuse_is_fatal(self):
        async def main():
            async with SQLServer(make_catalog(8)) as srv:
                reader, writer = await asyncio.open_connection("127.0.0.1", srv.port)
                await write_frame(writer, {"type": "hello", "version": PROTOCOL_VERSION})
                assert (await read_frame(reader))["type"] == "hello_ok"
                writer.write(
                    encode_frame({"type": "query", "id": 1, "sql": HEAVY})
                    + encode_frame({"type": "query", "id": 1, "sql": HEAVY})
                )
                await writer.drain()
                frames = []
                while True:
                    frame = await read_frame(reader)
                    if frame is None:
                        break
                    frames.append(frame)
                codes = [f.get("code") for f in frames if f["type"] == "error"]
                assert "protocol" in codes  # id reuse is fatal
                writer.close()

        run_async(main())


class TestDrain:
    def test_queued_statements_get_typed_errors_inflight_commits(self):
        async def main():
            catalog = make_catalog(9)
            srv = await SQLServer(
                catalog, session_max_inflight=1, max_inflight=8
            ).start()
            gate = gate_session(srv.session)
            cli = await AsyncSQLClient.connect("127.0.0.1", srv.port)
            write = "UPDATE events SET val = val * 1.5 WHERE val > 0.00001"
            sids = [await cli.submit(write)] + [await cli.submit(HEAVY) for _ in range(3)]
            while srv.session.inflight < 1 or srv.session.queued < 3:
                await asyncio.sleep(0.001)
            closer = asyncio.create_task(srv.aclose())
            while srv.session.queued:  # drain aborts the queue first...
                await asyncio.sleep(0.001)
            gate.set()  # ...then the in-flight write may commit
            outcomes = []
            for sid in sids:
                try:
                    outcomes.append(("ok", (await cli.wait(sid)).stats["kind"]))
                except ServerError as err:
                    outcomes.append(("err", err.code))
            await closer
            # the in-flight write committed, every queued read was aborted
            # with the typed drain error
            assert outcomes[0] == ("ok", "write")
            assert outcomes[1:] == [("err", "server-closed")] * 3
            assert srv.session.commit_count == 1
            await cli.aclose()

        run_async(main())

    def test_drain_is_idempotent_and_refuses_new_connections(self):
        async def main():
            srv = await SQLServer(make_catalog(9)).start()
            cli = await AsyncSQLClient.connect("127.0.0.1", srv.port)
            await cli.execute("SELECT COUNT(*) AS n FROM events")
            await srv.aclose()
            await srv.aclose()  # idempotent
            with pytest.raises((ServerError, ConnectionClosedError, ConnectionError, OSError)):
                await AsyncSQLClient.connect("127.0.0.1", srv.port)
            await cli.aclose()

        run_async(main())

    def test_session_shutdown_rejects_new_statements_with_typed_error(self):
        """Regression: executing on a draining session raises
        ServerClosedError (a RuntimeError subclass) instead of hanging."""

        async def main():
            db = AsyncSQLSession(SQLSession(make_catalog(9)))
            await db.shutdown()
            with pytest.raises(ServerClosedError):
                await db.execute("SELECT COUNT(*) AS n FROM events")
            with pytest.raises(RuntimeError):  # back-compat contract
                await db.execute("SELECT COUNT(*) AS n FROM events")
            assert await db.shutdown() == 0  # idempotent
            await db.aclose()  # no-op after shutdown

        run_async(main())

    def test_session_shutdown_aborts_queued_statements(self):
        async def main():
            db = AsyncSQLSession(SQLSession(make_catalog(9)), max_inflight=1)
            gate = gate_session(db)
            blocker = asyncio.create_task(db.execute(HEAVY))
            queued = [asyncio.create_task(db.execute(HEAVY)) for _ in range(3)]
            while db.inflight < 1 or db.queued < 3:
                await asyncio.sleep(0.001)
            closer = asyncio.create_task(db.shutdown())
            while db.queued:
                await asyncio.sleep(0.001)
            gate.set()
            aborted = await closer
            assert aborted == 3
            assert (await blocker).num_rows == 5  # in-flight completed
            for task in queued:
                with pytest.raises(ServerClosedError):
                    await task

        run_async(main())


class TestCancel:
    def test_cancel_queued_statement(self):
        async def main():
            async with SQLServer(make_catalog(10), session_max_inflight=1) as srv:
                gate = gate_session(srv.session)
                async with await AsyncSQLClient.connect("127.0.0.1", srv.port) as cli:
                    s1 = await cli.submit(HEAVY)
                    s2 = await cli.submit("SELECT COUNT(*) AS n FROM events")
                    while srv.session.queued < 1:
                        await asyncio.sleep(0.001)
                    await cli.cancel(s2)
                    with pytest.raises(ServerError) as err:
                        await cli.wait(s2)
                    assert err.value.code == "query-cancelled" and not err.value.fatal
                    gate.set()
                    assert (await cli.wait(s1)).row_count == 5
                    # the connection survives a cancellation
                    assert (await cli.execute("SELECT COUNT(*) AS n FROM events")).rows

        run_async(main())

    def test_cancel_unknown_target_is_ignored(self):
        async def main():
            async with SQLServer(make_catalog(10)) as srv:
                async with await AsyncSQLClient.connect("127.0.0.1", srv.port) as cli:
                    await cli.cancel(12345)  # no such statement: no-op
                    assert (await cli.execute("SELECT COUNT(*) AS n FROM events")).rows

        run_async(main())


class TestKnobValidation:
    @pytest.mark.parametrize("value", [0, -1, 1.5, "4", True, None])
    def test_max_connections_rejected(self, value):
        with pytest.raises((TypeError, ValueError)):
            SQLServer(make_catalog(11), max_connections=value)

    @pytest.mark.parametrize("value", [0, -3, 2.0, "8", False])
    def test_max_inflight_rejected(self, value):
        with pytest.raises((TypeError, ValueError)):
            SQLServer(make_catalog(11), max_inflight=value)

    @pytest.mark.parametrize("value", [-1, 65536, 1.5, "80", True])
    def test_port_rejected(self, value):
        with pytest.raises((TypeError, ValueError)):
            SQLServer(make_catalog(11), port=value)

    def test_validate_port_accepts_range(self):
        assert validate_port(0) == 0
        assert validate_port(65535) == 65535
        assert validate_port(np.int64(8080)) == 8080

    def test_session_max_inflight_forwarded_and_validated(self):
        with pytest.raises(ValueError):
            SQLServer(make_catalog(11), session_max_inflight=0)
        srv = SQLServer(make_catalog(11), session_max_inflight=3)
        assert srv.session.max_inflight == 3
        srv.session.close()

    @pytest.mark.parametrize("value", [0, -3, 2.0, "8", False])
    def test_session_max_queued_rejected(self, value):
        with pytest.raises((TypeError, ValueError)):
            SQLServer(make_catalog(11), session_max_queued=value)

    @pytest.mark.parametrize(
        "name",
        [
            "parallelism",
            "morsel_rows",
            "stall_timeout_s",
            "zero_branch_pruning",
            "use_cost_model",
            "checkpoint_retain",
        ],
    )
    def test_removed_knobs_rejected(self, name):
        with pytest.raises(TypeError):
            SQLServer(make_catalog(11), **{name: 2})

    def test_resilience_knobs_forwarded(self):
        srv = SQLServer(
            make_catalog(11),
            session_max_queued=5,
            statement_timeout_ms=1_000,
        )
        assert srv.session.max_queued == 5
        assert srv.session.statement_timeout_ms == 1_000
        srv.session.close()
