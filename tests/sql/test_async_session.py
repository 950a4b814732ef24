"""Concurrent correctness of the async session layer.

``AsyncSQLSession`` promises that many concurrent clients on one
session core behave like *some* serial interleaving of their
statements: reads run concurrently but never overlap a write, writes
commit in FIFO admission order, and every read observes exactly the
state produced by a prefix of that write order.  This suite pins that
contract with a linearizability-style prefix-replay check over TPC-H,
plus the scheduling behaviors around it: ``max_inflight``
backpressure, FIFO admission, queued-statement cancellation, the
writer lock, per-query stats, and the bugfix that makes the blocking
``SQLSession`` *reject* multi-threaded use instead of corrupting DML
state.

Every async test runs under ``asyncio.wait_for`` so a deadlocked
writer lock fails fast instead of hanging the suite (CI adds a
pytest-timeout guard on top).
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.sql import AsyncSQLSession, ConcurrentSessionError, SQLSession
from repro.sql.binder import AmbiguousColumnError
from repro.sql.session import KIND_READ, KIND_SESSION, KIND_WRITE, classify_statement
from repro.sql.parser import parse_statement
from repro.storage import Catalog, Table
from repro.workloads import generate_tpch

TIMEOUT = 120.0


def run_async(coro, timeout: float = TIMEOUT):
    """Run a coroutine with a deadlock guard: a stuck admission queue
    or writer lock surfaces as ``TimeoutError``, not a hung job."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


def tpch_catalog(seed: int = 5) -> Catalog:
    catalog = Catalog()
    data = generate_tpch(scale=0.002, seed=seed)
    for table in (data.orders, data.lineitem):
        catalog.register(table)
    return catalog


def events_catalog(n: int = 5_000, seed: int = 3) -> Catalog:
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


def assert_relations_equal(a, b, msg=""):
    assert a.column_names == b.column_names, msg
    for name in a.column_names:
        x, y = a.column(name), b.column(name)
        assert x.dtype == y.dtype, (msg, name)
        np.testing.assert_array_equal(x, y, err_msg=f"{msg} / {name}")


class _Gate:
    """Instruments a session core: statements whose SQL contains a
    marker block on a threading gate, and every start/finish is logged
    (thread-safe) so tests can assert scheduling order."""

    def __init__(self, session, marker="777 = 777"):
        self.marker = marker
        self.gate = threading.Event()
        self.started = []
        self.finished = []
        self.active = 0
        self.max_active = 0
        self._lock = threading.Lock()
        self._orig = session.run_prepared
        session.run_prepared = self._run

    def _run(self, prepared):
        with self._lock:
            self.started.append(prepared.sql)
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        try:
            if self.marker in prepared.sql:
                assert self.gate.wait(TIMEOUT), "gate never opened"
            return self._orig(prepared)
        finally:
            with self._lock:
                self.active -= 1
                self.finished.append(prepared.sql)

    async def wait_started(self, count):
        while len(self.started) < count:
            await asyncio.sleep(0.001)


# ----------------------------------------------------------------------
# statement classification
# ----------------------------------------------------------------------
class TestClassification:
    @pytest.mark.parametrize(
        "sql, kind",
        [
            ("SELECT * FROM t", KIND_READ),
            ("SELECT COUNT(*) AS n FROM t WHERE a > 1", KIND_READ),
            ("INSERT INTO t (a) VALUES (1)", KIND_WRITE),
            ("UPDATE t SET a = 1", KIND_WRITE),
            ("DELETE FROM t WHERE a = 1", KIND_WRITE),
            ("SET statement_timeout_ms = 2", KIND_SESSION),
        ],
    )
    def test_kinds(self, sql, kind):
        assert classify_statement(parse_statement(sql)) == kind


# ----------------------------------------------------------------------
# linearizability-style prefix replay
# ----------------------------------------------------------------------
class TestLinearizability:
    """N async clients interleave SELECT / UPDATE / DELETE on TPC-H;
    afterwards the write log is replayed serially on a blocking session
    and every read must be bit-identical to the replayed state at the
    write prefix it reported observing."""

    READS = [
        "SELECT COUNT(*) AS n FROM lineitem WHERE l_discount > 0.03",
        "SELECT SUM(l_extendedprice) AS s FROM lineitem WHERE l_suppkey < 50",
        "SELECT l_orderkey, l_extendedprice FROM lineitem "
        "WHERE l_discount > 0.05 ORDER BY l_extendedprice, l_orderkey LIMIT 25",
        "SELECT o_orderkey FROM orders WHERE o_orderdate < 2500 "
        "ORDER BY o_orderkey DESC LIMIT 10",
        "SELECT COUNT(*) AS n FROM orders",
    ]
    WRITES = [
        "UPDATE lineitem SET l_extendedprice = l_extendedprice * 1.01 "
        "WHERE l_discount > 0.04",
        "UPDATE orders SET o_shippriority = 1 WHERE o_orderdate > 2400",
        "DELETE FROM lineitem WHERE l_orderkey % 97 = {k}",
        "UPDATE lineitem SET l_discount = l_discount + 0.001 WHERE l_suppkey % 11 = {k}",
        "DELETE FROM orders WHERE o_orderkey % 131 = {k}",
    ]

    def client_statements(self, rng, n_statements):
        out = []
        for _ in range(n_statements):
            if rng.random() < 0.65:
                out.append(self.READS[rng.integers(len(self.READS))])
            else:
                template = self.WRITES[rng.integers(len(self.WRITES))]
                out.append(template.format(k=int(rng.integers(0, 7))))
        return out

    @pytest.mark.parametrize("clients", [2, 4, 8])
    def test_reads_observe_a_write_prefix(self, clients):
        seed = 40 + clients
        observations = []  # (write_seq, sql, relation)
        write_records = []  # (write_seq, sql)

        async def client(db, statements):
            for sql in statements:
                result, stats = await db.execute(sql, with_stats=True)
                if stats.kind == KIND_READ:
                    observations.append((stats.write_seq, sql, result))
                else:
                    write_records.append((stats.write_seq, sql))

        async def main():
            async with AsyncSQLSession(
                SQLSession(tpch_catalog(seed=seed)),
                max_inflight=clients,
            ) as db:
                jobs = []
                for i in range(clients):
                    rng = np.random.default_rng(seed * 100 + i)
                    jobs.append(client(db, self.client_statements(rng, 12)))
                await asyncio.gather(*jobs)
                return db.commit_count

        commits = run_async(main())

        # the write log is a gapless 1..N sequence (FIFO commit order)
        seqs = sorted(seq for seq, _ in write_records)
        assert seqs == list(range(1, len(write_records) + 1))
        assert commits == len(write_records)

        # serial replay on a blocking session: apply the writes prefix
        # by prefix, checking every read against the state it claimed
        replay = SQLSession(tpch_catalog(seed=seed))
        by_prefix = {}
        for seq, sql, rel in observations:
            by_prefix.setdefault(seq, []).append((sql, rel))
        ordered_writes = [sql for _, sql in sorted(write_records)]
        for prefix in range(len(ordered_writes) + 1):
            if prefix > 0:
                replay.execute(ordered_writes[prefix - 1])
            for sql, rel in by_prefix.get(prefix, []):
                want = replay.execute(sql)
                assert_relations_equal(
                    rel, want, msg=f"prefix={prefix} clients={clients} {sql}"
                )
        # every observation was matched against some prefix
        assert set(by_prefix) <= set(range(len(ordered_writes) + 1))


# ----------------------------------------------------------------------
# scheduling: backpressure, FIFO, writer lock
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_max_inflight_bounds_concurrency(self):
        async def main():
            db = AsyncSQLSession(SQLSession(events_catalog()), max_inflight=2)
            gate = _Gate(db._session)
            slow = "SELECT COUNT(*) AS n FROM events WHERE 777 = 777"
            tasks = [asyncio.ensure_future(db.execute(slow)) for _ in range(5)]
            await gate.wait_started(2)
            await asyncio.sleep(0.01)
            # exactly max_inflight started; the rest wait their turn
            assert len(gate.started) == 2
            assert db.inflight == 2
            assert db.queued == 3
            gate.gate.set()
            await asyncio.gather(*tasks)
            assert gate.max_active <= 2
            assert db.inflight == 0 and db.queued == 0
            await db.aclose()

        run_async(main())

    def test_admission_is_fifo(self):
        async def main():
            db = AsyncSQLSession(SQLSession(events_catalog()), max_inflight=1)
            gate = _Gate(db._session)
            sqls = [
                f"SELECT COUNT(*) AS n FROM events WHERE grp = {i}"
                for i in range(6)
            ]
            gate.gate.set()  # no blocking needed: order is the point
            tasks = [asyncio.ensure_future(db.execute(s)) for s in sqls]
            await asyncio.gather(*tasks)
            assert gate.started == sqls  # strict arrival order
            await db.aclose()

        run_async(main())

    def test_bind_errors_give_their_slot_back(self):
        async def main():
            # no ``async with``: closing a session with leaked slots hangs
            db = AsyncSQLSession(SQLSession(events_catalog()), max_inflight=2)
            bad = "SELECT grp FROM events a JOIN events b ON eid = eid"
            for _ in range(2 * db.max_inflight):
                with pytest.raises(AmbiguousColumnError):
                    await db.execute(bad)
            assert db.inflight == 0 and db.queued == 0
            rel = await db.execute("SELECT COUNT(*) AS n FROM events")
            assert rel.column("n").tolist() == [5_000]
            assert await db.execute("DELETE FROM events WHERE eid = 0") == 1
            await db.aclose()

        run_async(main(), timeout=30.0)

    def test_invalid_max_inflight_rejected(self):
        with pytest.raises(ValueError):
            AsyncSQLSession(SQLSession(events_catalog()), max_inflight=0)
        with pytest.raises(TypeError):
            AsyncSQLSession(SQLSession(events_catalog()), max_inflight=2.5)


class TestWriterLock:
    def test_reads_run_concurrently_writes_exclusively(self):
        async def main():
            db = AsyncSQLSession(SQLSession(events_catalog()), max_inflight=4)
            gate = _Gate(db._session)
            read = "SELECT SUM(val) AS s FROM events WHERE 777 = 777"
            write = "UPDATE events SET val = val * 2 WHERE grp = 1"
            r1 = asyncio.ensure_future(db.execute(read))
            r2 = asyncio.ensure_future(db.execute(read))
            await gate.wait_started(2)  # both reads on threads at once
            w = asyncio.ensure_future(db.execute(write))
            r3 = asyncio.ensure_future(db.execute(read))
            await asyncio.sleep(0.01)
            # the write waits for the running reads; the read behind the
            # write waits behind it (FIFO — no read overtakes a write)
            assert len(gate.started) == 2
            assert db.queued == 2
            gate.gate.set()
            await asyncio.gather(r1, r2, w, r3)
            # write ran alone: third statement to start, after both
            # reads finished, before the trailing read started
            assert gate.started[2] == write
            assert gate.finished[:2] == [read, read]
            assert db.commit_count == 1
            await db.aclose()

        run_async(main())

    def test_writes_serialize_in_order(self):
        async def main():
            async with AsyncSQLSession(
                SQLSession(events_catalog()),
                max_inflight=4,
            ) as db:
                stats = await asyncio.gather(
                    *(
                        db.execute(
                            f"UPDATE events SET val = val + {i} WHERE grp = {i}",
                            with_stats=True,
                        )
                        for i in range(5)
                    )
                )
                seqs = [s.write_seq for _, s in stats]
                assert sorted(seqs) == [1, 2, 3, 4, 5]
                assert db.commit_count == 5

        run_async(main())

    def test_set_applies_to_later_statements(self):
        async def main():
            async with AsyncSQLSession(
                SQLSession(events_catalog()),
                max_inflight=4,
            ) as db:
                out = await db.execute("SET statement_timeout_ms = 30000")
                assert out == 30_000
                assert db.statement_timeout_ms == 30_000
                rel = await db.execute("SELECT COUNT(*) AS n FROM events")
                assert rel.column("n").tolist() == [5_000]

        run_async(main())


# ----------------------------------------------------------------------
# cancellation
# ----------------------------------------------------------------------
class TestCancellation:
    def test_cancelled_queued_write_never_runs(self):
        async def main():
            db = AsyncSQLSession(SQLSession(events_catalog()), max_inflight=1)
            gate = _Gate(db._session)
            before = db._session.catalog.table("events").column("val").copy()
            blocker = asyncio.ensure_future(
                db.execute("SELECT COUNT(*) AS n FROM events WHERE 777 = 777")
            )
            await gate.wait_started(1)
            write = asyncio.ensure_future(
                db.execute("UPDATE events SET val = 0 WHERE grp >= 0")
            )
            await asyncio.sleep(0.01)
            assert db.queued == 1
            write.cancel()
            with pytest.raises(asyncio.CancelledError):
                await write
            gate.gate.set()
            await blocker
            await db.drain()
            # the cancelled write never started, never committed
            assert all(sql != "UPDATE events SET val = 0 WHERE grp >= 0"
                       for sql in gate.started)
            assert db.commit_count == 0
            np.testing.assert_array_equal(
                db._session.catalog.table("events").column("val"), before
            )
            # the queue kept flowing after the cancellation
            rel = await db.execute("SELECT COUNT(*) AS n FROM events")
            assert rel.column("n").tolist() == [5_000]
            await db.aclose()

        run_async(main())

    def test_finish_late_with_cancelled_future_still_releases_slot(self):
        """Regression: the cancel can win the race against the worker
        picking the item up, leaving a *cancelled* concurrent future in
        the late-completion path.  Touching ``exception()`` on it
        raises, which used to skip ``_release`` and deadlock the
        session permanently (phantom writer)."""
        from concurrent.futures import Future

        async def main():
            db = AsyncSQLSession(SQLSession(events_catalog()), max_inflight=1)
            prepared = db._session.prepare("UPDATE events SET val = 0 WHERE grp < 0")
            cancelled = Future()
            assert cancelled.cancel()
            db._inflight = 1
            db._writer_active = True
            db._finish_late(prepared, 0, 0, cancelled)
            assert db.inflight == 0
            assert not db._writer_active
            assert db.commit_count == 0  # the statement never ran
            assert all(s.sql != prepared.sql for s in db.stats())
            # the session still schedules normally afterwards
            rel = await db.execute("SELECT COUNT(*) AS n FROM events")
            assert rel.column("n").tolist() == [5_000]
            await db.aclose()

        run_async(main())

    def test_statement_planned_after_admission_not_at_arrival(self):
        """Regression: plans must snapshot index state *after* the
        statement holds its slot — a read queued behind a write that is
        planned at arrival could bake in pre-write patch counts (e.g.
        zero-branch pruning) and miss the write's rows."""

        async def main():
            db = AsyncSQLSession(SQLSession(events_catalog()), max_inflight=2)
            gate = _Gate(db._session)
            planned_at = []
            orig = db._session.prepare_parsed

            def spy(stmt, sql=""):
                planned_at.append((sql, db.commit_count))
                return orig(stmt, sql)

            db._session.prepare_parsed = spy
            write = asyncio.ensure_future(
                db.execute("UPDATE events SET val = val WHERE 777 = 777")
            )
            await gate.wait_started(1)
            read = asyncio.ensure_future(
                db.execute("SELECT COUNT(*) AS n FROM events")
            )
            await asyncio.sleep(0.01)
            gate.gate.set()
            await asyncio.gather(write, read)
            # the queued read was planned only once the write committed
            assert dict(planned_at)["SELECT COUNT(*) AS n FROM events"] == 1
            await db.aclose()

        run_async(main())

    def test_cancel_inflight_statement_unblocks_caller_and_keeps_slot(self):
        async def main():
            db = AsyncSQLSession(SQLSession(events_catalog()), max_inflight=1)
            gate = _Gate(db._session)
            task = asyncio.ensure_future(
                db.execute("SELECT SUM(val) AS s FROM events WHERE 777 = 777")
            )
            await gate.wait_started(1)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # the thread is still executing: the admission slot must
            # stay held (max_inflight keeps meaning "running threads")
            assert db.inflight == 1
            gate.gate.set()
            await db.drain()
            assert db.inflight == 0
            await db.aclose()

        run_async(main())


# ----------------------------------------------------------------------
# stats + introspection
# ----------------------------------------------------------------------
class TestIntrospection:
    def test_per_query_stats_recorded(self):
        async def main():
            async with AsyncSQLSession(
                SQLSession(events_catalog()),
                max_inflight=2,
            ) as db:
                await db.execute("SELECT COUNT(*) AS n FROM events")
                await db.execute("UPDATE events SET val = val WHERE grp = 0")
                stats = db.stats()
                assert [s.kind for s in stats] == [KIND_READ, KIND_WRITE]
                assert all(s.queued_ns >= 0 and s.exec_ns > 0 for s in stats)
                assert stats[0].cost_hint > 0  # planner costed the SELECT
                assert stats[0].write_seq == 0 and stats[1].write_seq == 1

        run_async(main())

    def test_explain_surfaces_cost_hint_queue_state_and_timings(self):
        async def main():
            async with AsyncSQLSession(
                SQLSession(events_catalog()),
                max_inflight=2,
            ) as db:
                sql = "SELECT grp, SUM(val) AS s FROM events GROUP BY grp ORDER BY grp"
                await db.execute(sql)
                text = db.explain(sql)
                assert "admission cost hint:" in text
                assert "admission: max_inflight=2" in text
                assert "last run: queued" in text
                assert "rows~" in text and "cost~" in text
                profile = db.profile()
                assert "queued ms" in profile and sql[:20] in profile

        run_async(main())

    def test_execute_after_aclose_rejected(self):
        async def main():
            db = AsyncSQLSession(SQLSession(events_catalog()))
            await db.aclose()
            with pytest.raises(RuntimeError):
                await db.execute("SELECT COUNT(*) AS n FROM events")

        run_async(main())


# ----------------------------------------------------------------------
# the blocking-session bugfix (regression)
# ----------------------------------------------------------------------
class TestBlockingSessionReentrancy:
    def test_second_thread_is_rejected_with_clear_error(self):
        session = SQLSession(events_catalog())
        gate = _Gate(session)
        errors = []
        done = threading.Event()

        def holder():
            session.execute("SELECT COUNT(*) AS n FROM events WHERE 777 = 777")
            done.set()

        t = threading.Thread(target=holder)
        t.start()
        assert _wait_until(lambda: gate.started, 10), "holder never started"
        try:
            session.execute("SELECT COUNT(*) AS n FROM events")
        except ConcurrentSessionError as exc:
            errors.append(str(exc))
        gate.gate.set()
        t.join(timeout=10)
        assert done.is_set()
        assert errors, "concurrent execute was silently allowed"
        assert "AsyncSQLSession" in errors[0]  # the error points at the fix
        # the session recovers once the first statement finished
        rel = session.execute("SELECT COUNT(*) AS n FROM events")
        assert rel.column("n").tolist() == [5_000]

    def test_dml_from_second_thread_cannot_interleave(self):
        """The historical corruption scenario: a write sneaking into an
        in-flight write's window is now an error, not silent state
        damage."""
        session = SQLSession(events_catalog())
        gate = _Gate(session)
        t = threading.Thread(
            target=session.execute,
            args=("UPDATE events SET val = val * 2 WHERE grp < 5 AND 777 = 777",),
        )
        t.start()
        assert _wait_until(lambda: gate.started, 10)
        with pytest.raises(ConcurrentSessionError):
            session.execute("DELETE FROM events WHERE grp = 1")
        gate.gate.set()
        t.join(timeout=10)
        assert not t.is_alive()


def _wait_until(predicate, timeout):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return bool(predicate())


# ----------------------------------------------------------------------
# the statement lane
# ----------------------------------------------------------------------
class TestStatementLane:
    def test_statements_run_on_the_lane_not_the_loop(self):
        async def main():
            db = AsyncSQLSession(SQLSession(events_catalog()), max_inflight=3)
            inner = db._session
            real = inner.run_prepared
            threads = []

            def spy(prepared):
                threads.append(threading.current_thread())
                return real(prepared)

            inner.run_prepared = spy
            await asyncio.gather(
                *(db.execute("SELECT COUNT(*) AS n FROM events") for _ in range(6))
            )
            loop_thread = threading.current_thread()
            assert len(threads) == 6
            assert all(t is not loop_thread for t in threads)
            assert all(t.name.startswith("repro-stmt") for t in threads)
            assert len(set(threads)) <= 3  # max_inflight threads at most
            await db.aclose()

        run_async(main())
