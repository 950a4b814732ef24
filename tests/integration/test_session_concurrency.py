"""Concurrency stress for statement execution.

Complements ``test_sharded_bitmap_concurrency.py``: that file covers the
bitmap layer, this one the execution layer — many client threads
running plans over one catalog at once, each under its own cancellation
scope (so their scans go piecewise concurrently), a blocking
:class:`~repro.sql.SQLSession` hammered from threads, and the supported
concurrent path, :class:`~repro.sql.AsyncSQLSession`, whose statement
lane runs reads side by side.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.engine import col
from repro.engine.interrupt import CancellationToken, cancellation_scope
from repro.plan import AggregateNode, FilterNode, ScanNode, execute_plan
from repro.sql import AsyncSQLSession, ConcurrentSessionError, SQLSession
from repro.storage import Catalog, Table

N_ROWS = 20_000
N_THREADS = 6
N_QUERIES = 15


@pytest.fixture
def catalog():
    rng = np.random.default_rng(42)
    table = Table.from_arrays(
        "events",
        {
            "eid": np.arange(N_ROWS, dtype=np.int64),
            "grp": rng.integers(0, 25, N_ROWS).astype(np.int64),
            "val": rng.random(N_ROWS),
        },
    )
    catalog = Catalog()
    catalog.register(table)
    return catalog


def run_threads(worker, n_threads=N_THREADS):
    errors = []

    def guarded(i):
        try:
            worker(i)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert all(not t.is_alive() for t in threads), "worker thread hung"
    assert not errors, errors


class TestSharedCatalogStress:
    def test_concurrent_plan_execution(self, catalog, piece_rows):
        """N client threads × M queries over one catalog, piecewise."""
        piece_rows(512)
        plans = [
            FilterNode(ScanNode("events"), col("val") > 0.6),
            AggregateNode(
                ScanNode("events"), ["grp"], {"s": ("sum", "val"), "n": ("count", None)}
            ),
            AggregateNode(
                FilterNode(ScanNode("events"), col("grp") < 10),
                ["grp"],
                {"hi": ("max", "val")},
            ),
        ]
        expected = [execute_plan(p, catalog) for p in plans]

        def worker(i):
            for q in range(N_QUERIES):
                k = (i + q) % len(plans)
                with cancellation_scope(CancellationToken(timeout_ms=3_600_000)):
                    out = execute_plan(plans[k], catalog)
                want = expected[k]
                assert out.column_names == want.column_names
                for name in want.column_names:
                    np.testing.assert_array_equal(out.column(name), want.column(name))

        run_threads(worker)


class TestSessionConcurrency:
    QUERIES = [
        "SELECT grp, SUM(val) AS s FROM events GROUP BY grp ORDER BY grp",
        "SELECT eid FROM events WHERE val > 0.9 ORDER BY eid",
        "SELECT COUNT(*) AS n FROM events WHERE grp = 7",
    ]

    def expected(self, catalog):
        serial = SQLSession(catalog)
        return {sql: serial.execute(sql) for sql in self.QUERIES}

    def test_blocking_session_rejects_concurrent_threads(self, catalog):
        """Hammering one blocking session from threads never corrupts:
        every call either returns the right answer or is rejected with
        ``ConcurrentSessionError`` (the supported concurrent path is
        ``AsyncSQLSession``)."""
        expected = self.expected(catalog)
        with SQLSession(catalog) as session:

            def worker(i):
                for sql in self.QUERIES * 5:
                    want = expected[sql]
                    try:
                        out = session.execute(sql)
                    except ConcurrentSessionError:
                        continue
                    for name in want.column_names:
                        np.testing.assert_array_equal(out.column(name), want.column(name))

            run_threads(worker)
        # overlap is scheduling-dependent, so no count is asserted; the
        # invariant is that nothing was silently wrong

    def test_async_session_is_the_concurrent_path(self, catalog):
        """The same multi-client workload through ``AsyncSQLSession``
        runs on its statement lane and every result is bit-identical."""
        expected = self.expected(catalog)

        async def main():
            async with AsyncSQLSession(
                SQLSession(catalog),
                max_inflight=N_THREADS,
            ) as db:

                async def client(i):
                    for sql in self.QUERIES * 5:
                        out = await db.execute(sql)
                        want = expected[sql]
                        for name in want.column_names:
                            np.testing.assert_array_equal(out.column(name), want.column(name))

                await asyncio.gather(*(client(i) for i in range(N_THREADS)))

        asyncio.run(asyncio.wait_for(main(), timeout=120))
