"""Statement deadlines, cancellation and overload shedding at the SQL layer.

The sync session enforces ``statement_timeout_ms`` (the ``SET`` knob and
the constructor knob) through a :class:`CancellationToken` installed
around each statement; the async session additionally measures the
deadline from *arrival* (queue wait counts), sheds statements beyond
``max_queued`` with a backoff hint, and turns awaiter-task cancellation
into checkpoint-granular interruption of the running worker thread.
Interrupted writes must be provably un-applied.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.engine.interrupt import (
    CancellationToken,
    QueryCancelledError,
    QueryTimeoutError,
    cancellation_scope,
)
from repro.sql import AsyncSQLSession, SQLSession, SessionOverloadedError
from repro.testing import FaultInjector, FaultRule, inject
from repro.storage import Catalog, Table

TIMEOUT = 60.0


def run_async(coro, timeout: float = TIMEOUT):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def make_catalog(n=5_000, seed=3):
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    catalog.register(
        Table.from_arrays(
            "events",
            {
                "eid": np.arange(n, dtype=np.int64),
                "grp": rng.integers(0, 20, n).astype(np.int64),
                "val": rng.random(n),
            },
        )
    )
    return catalog


class TestSyncSessionKnob:
    """How the knob validates is in ``tests/sql/test_settings.py``."""

    def test_set_statement_sets_and_returns_the_knob(self):
        session = SQLSession(make_catalog())
        assert session.setting("statement_timeout_ms") is None
        assert session.execute("SET statement_timeout_ms = 250") == 250
        assert session.setting("statement_timeout_ms") == 250

    @pytest.mark.parametrize("off", ["'off'", "'none'", "off", "NONE"])
    def test_set_off_disables(self, off):
        session = SQLSession(make_catalog(), statement_timeout_ms=100)
        assert session.execute(f"SET statement_timeout_ms = {off}") == 0
        assert session.setting("statement_timeout_ms") is None


class TestSyncSessionInterruption:
    def test_timeout_interrupts_a_scan(self):
        # the injected sleep outlasts the 50 ms deadline, so the scan
        # piece's checkpoint right after the fault point observes the
        # expired token
        session = SQLSession(make_catalog(20_000), statement_timeout_ms=50)
        injector = FaultInjector(
            seed=1,
            rules={"worker.morsel": FaultRule(action="sleep", sleep_s=0.2)},
        )
        with inject(injector):
            with pytest.raises(QueryTimeoutError):
                session.execute("SELECT eid, val FROM events WHERE val >= 0")
        # the session recovers: same statement runs clean afterwards
        rel = session.execute("SELECT COUNT(*) AS n FROM events")
        assert int(rel.column("n")[0]) == 20_000

    def test_caller_scope_takes_precedence(self):
        # a pre-cancelled caller token interrupts even though the
        # session's own knob is off
        session = SQLSession(make_catalog())
        token = CancellationToken()
        token.cancel()
        with cancellation_scope(token):
            with pytest.raises(QueryCancelledError):
                session.execute("SELECT eid FROM events")

    def test_cancel_from_another_thread(self):
        session = SQLSession(make_catalog(20_000))
        token = CancellationToken()
        injector = FaultInjector(
            seed=2,
            rules={"worker.morsel": FaultRule(action="sleep", sleep_s=0.2)},
        )
        canceller = threading.Timer(0.05, token.cancel)
        canceller.start()
        try:
            with inject(injector):
                with cancellation_scope(token):
                    with pytest.raises(QueryCancelledError):
                        session.execute(
                            "SELECT eid, val FROM events WHERE val >= 0"
                        )
        finally:
            canceller.cancel()


class TestWriteAtomicity:
    """An interrupted write leaves the table bit-identical to before."""

    @pytest.mark.parametrize(
        "sql",
        [
            "UPDATE events SET val = 0 WHERE grp < 10",
            "DELETE FROM events WHERE grp < 10",
            "INSERT INTO events (eid, grp, val) VALUES (99999, 1, 0.5)",
        ],
    )
    def test_cancelled_write_is_unapplied(self, sql):
        catalog = make_catalog()
        session = SQLSession(catalog)
        table = catalog.table("events")
        before = {
            name: np.array(table.column(name), copy=True)
            for name in table.schema.names
        }
        rows_before = table.num_rows
        token = CancellationToken()
        token.cancel()
        with cancellation_scope(token):
            with pytest.raises(QueryCancelledError):
                session.execute(sql)
        table = catalog.table("events")
        assert table.num_rows == rows_before
        for name, col in before.items():
            np.testing.assert_array_equal(col, table.column(name))

    def test_completed_write_still_commits(self):
        catalog = make_catalog()
        session = SQLSession(catalog)
        token = CancellationToken(timeout_ms=3_600_000)  # armed, far away
        with cancellation_scope(token):
            n = session.execute("UPDATE events SET val = 0 WHERE grp = 1")
        assert n > 0
        table = catalog.table("events")
        grp = np.asarray(table.column("grp"))
        val = np.asarray(table.column("val"))
        assert (val[grp == 1] == 0).all()


class TestAsyncKnobs:
    @pytest.mark.parametrize("value", [0, -1, 1.5, "4", True])
    def test_max_queued_rejected(self, value):
        with pytest.raises((TypeError, ValueError)):
            AsyncSQLSession(SQLSession(make_catalog()), max_queued=value)

    @pytest.mark.parametrize("value", [0, -1, 1.5, "4", True])
    def test_execute_timeout_override_rejected(self, value):
        async def main():
            async with AsyncSQLSession(SQLSession(make_catalog())) as db:
                with pytest.raises((TypeError, ValueError)):
                    await db.execute("SELECT COUNT(*) AS n FROM events", timeout_ms=value)

        run_async(main())

    def test_knobs_surface(self):
        db = AsyncSQLSession(
            SQLSession(make_catalog(), statement_timeout_ms=500),
            max_queued=4,
        )
        assert db.max_queued == 4
        assert db.statement_timeout_ms == 500
        db.close()

    def test_set_statement_changes_async_default(self):
        async def main():
            async with AsyncSQLSession(SQLSession(make_catalog())) as db:
                assert db.statement_timeout_ms is None
                assert await db.execute("SET statement_timeout_ms = 99") == 99
                assert db.statement_timeout_ms == 99
                assert await db.execute("SET statement_timeout_ms = 'off'") == 0
                assert db.statement_timeout_ms is None

        run_async(main())


class TestAsyncDeadlines:
    def test_slow_statement_times_out(self):
        injector = FaultInjector(
            seed=4,
            rules={"session.dispatch": FaultRule(action="sleep", sleep_s=0.2)},
        )

        async def main():
            async with AsyncSQLSession(SQLSession(make_catalog())) as db:
                with inject(injector):
                    with pytest.raises(QueryTimeoutError):
                        await db.execute(
                            "SELECT COUNT(*) AS n FROM events", timeout_ms=50
                        )
                # slot released; the session keeps serving
                rel = await db.execute("SELECT COUNT(*) AS n FROM events")
                assert int(rel.column("n")[0]) == 5_000
                assert db.inflight == 0 and db.queued == 0

        run_async(main())

    def test_session_default_applies_without_override(self):
        injector = FaultInjector(
            seed=5,
            rules={"session.dispatch": FaultRule(action="sleep", sleep_s=0.2)},
        )

        async def main():
            async with AsyncSQLSession(
                SQLSession(make_catalog(), statement_timeout_ms=50),
            ) as db:
                with inject(injector):
                    with pytest.raises(QueryTimeoutError):
                        await db.execute("SELECT COUNT(*) AS n FROM events")

        run_async(main())

    def test_deadline_covers_queue_wait(self):
        injector = FaultInjector(
            seed=6,
            rules={"session.dispatch": FaultRule(action="block", max_fires=1)},
        )

        async def main():
            async with AsyncSQLSession(
                SQLSession(make_catalog()),
                max_inflight=1,
            ) as db:
                with inject(injector) as inj:
                    blocker = asyncio.create_task(
                        db.execute("SELECT COUNT(*) AS n FROM events")
                    )
                    while db.inflight < 1:
                        await asyncio.sleep(0.001)
                    with pytest.raises(QueryTimeoutError, match="admission"):
                        await db.execute(
                            "SELECT COUNT(*) AS n FROM events", timeout_ms=50
                        )
                    inj.release("session.dispatch")
                    assert int((await blocker).column("n")[0]) == 5_000

        run_async(main())

    def test_timed_out_write_is_unapplied_and_uncounted(self):
        injector = FaultInjector(
            seed=7,
            rules={"session.dispatch": FaultRule(action="sleep", sleep_s=0.2)},
        )

        async def main():
            catalog = make_catalog()
            before = np.array(catalog.table("events").column("val"), copy=True)
            async with AsyncSQLSession(SQLSession(catalog)) as db:
                with inject(injector):
                    with pytest.raises(QueryTimeoutError):
                        await db.execute(
                            "UPDATE events SET val = 0", timeout_ms=50
                        )
                assert db.commit_count == 0
                np.testing.assert_array_equal(
                    before, catalog.table("events").column("val")
                )
                # and a clean retry applies
                await db.execute("UPDATE events SET val = 0 WHERE grp = 1")
                assert db.commit_count == 1

        run_async(main())


class TestAsyncCancellation:
    def test_cancelling_the_task_interrupts_a_running_write(self):
        injector = FaultInjector(
            seed=8,
            rules={"session.dispatch": FaultRule(action="block", max_fires=1)},
        )

        async def main():
            catalog = make_catalog()
            before = np.array(catalog.table("events").column("val"), copy=True)
            async with AsyncSQLSession(SQLSession(catalog)) as db:
                with inject(injector) as inj:
                    task = asyncio.create_task(db.execute("UPDATE events SET val = 0"))
                    while db.inflight < 1:
                        await asyncio.sleep(0.001)
                    task.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await task
                    inj.release("session.dispatch")
                    # wait for the worker thread to unwind and release
                    while db.inflight:
                        await asyncio.sleep(0.001)
                assert db.commit_count == 0
                np.testing.assert_array_equal(
                    before, catalog.table("events").column("val")
                )
                rel = await db.execute("SELECT COUNT(*) AS n FROM events")
                assert int(rel.column("n")[0]) == 5_000

        run_async(main())


class TestOverloadShedding:
    def test_overflow_statement_is_shed_with_backoff_hint(self):
        injector = FaultInjector(
            seed=9,
            rules={"session.dispatch": FaultRule(action="block", max_fires=1)},
        )

        async def main():
            async with AsyncSQLSession(
                SQLSession(make_catalog()),
                max_inflight=1,
                max_queued=1,
            ) as db:
                with inject(injector) as inj:
                    blocker = asyncio.create_task(
                        db.execute("SELECT COUNT(*) AS n FROM events")
                    )
                    while db.inflight < 1:
                        await asyncio.sleep(0.001)
                    queued = asyncio.create_task(
                        db.execute("SELECT COUNT(*) AS n FROM events")
                    )
                    while db.queued < 1:
                        await asyncio.sleep(0.001)
                    with pytest.raises(SessionOverloadedError) as err:
                        await db.execute("SELECT COUNT(*) AS n FROM events")
                    assert err.value.backoff_ms > 0
                    inj.release("session.dispatch")
                    for task in (blocker, queued):
                        assert int((await task).column("n")[0]) == 5_000
                # once drained, statements are admitted again
                rel = await db.execute("SELECT COUNT(*) AS n FROM events")
                assert int(rel.column("n")[0]) == 5_000

        run_async(main())

    def test_set_statements_bypass_shedding(self):
        injector = FaultInjector(
            seed=10,
            rules={"session.dispatch": FaultRule(action="block", max_fires=1)},
        )

        async def main():
            async with AsyncSQLSession(
                SQLSession(make_catalog()),
                max_inflight=1,
                max_queued=1,
            ) as db:
                with inject(injector) as inj:
                    blocker = asyncio.create_task(
                        db.execute("SELECT COUNT(*) AS n FROM events")
                    )
                    while db.inflight < 1:
                        await asyncio.sleep(0.001)
                    queued = asyncio.create_task(
                        db.execute("SELECT COUNT(*) AS n FROM events")
                    )
                    while db.queued < 1:
                        await asyncio.sleep(0.001)
                    # a session knob must not be shed by a full queue: it
                    # joins the queue behind the read and waits its turn
                    setting = asyncio.create_task(
                        db.execute("SET statement_timeout_ms = 123")
                    )
                    while db.queued < 2 and not setting.done():
                        await asyncio.sleep(0)
                    assert not setting.done(), setting.exception()
                    assert db.queued == 2
                    inj.release("session.dispatch")
                    assert await setting == 123
                    await blocker
                    await queued

        run_async(main())


class TestShutdownCancelRace:
    def test_queued_statement_cancelled_during_shutdown_keeps_accounting(self):
        """Regression: a task cancel racing ``shutdown``'s queue abort
        used to release a never-granted admission slot.  Whatever wins,
        the statement gets exactly one terminal outcome and the session
        drains cleanly."""
        injector = FaultInjector(
            seed=11,
            rules={"session.dispatch": FaultRule(action="block", max_fires=1)},
        )

        async def main():
            async with AsyncSQLSession(
                SQLSession(make_catalog()),
                max_inflight=1,
            ) as db:
                with inject(injector) as inj:
                    blocker = asyncio.create_task(
                        db.execute("SELECT COUNT(*) AS n FROM events")
                    )
                    while db.inflight < 1:
                        await asyncio.sleep(0.001)
                    queued = asyncio.create_task(
                        db.execute("SELECT COUNT(*) AS n FROM events")
                    )
                    while db.queued < 1:
                        await asyncio.sleep(0.001)
                    closer = asyncio.create_task(db.shutdown())
                    queued.cancel()
                    inj.release("session.dispatch")
                    aborted = await closer
                    assert aborted in (0, 1)
                    outcomes = 0
                    try:
                        await queued
                    except (asyncio.CancelledError, Exception):
                        outcomes += 1
                    assert outcomes == 1
                    assert int((await blocker).column("n")[0]) == 5_000
                    assert db.inflight == 0 and db.queued == 0

        run_async(main())
