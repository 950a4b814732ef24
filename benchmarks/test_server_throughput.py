"""TCP front door vs. in-process AsyncSQLSession: QPS + tail latency.

The server adds framing, JSON serialization and a socket hop on top of
the shared async session.  This benchmark issues identical statement
logs through both paths at ``N_CLIENTS`` concurrent clients/
connections, reports QPS and client-observed p50/p99 latency, and
asserts:

* the final table state after the server run is bit-identical to the
  in-process run (the wire layer never changes SQL semantics), and
* the front door is not pathologically slower than in-process — the
  wire tax on this localhost setup must stay within a generous
  constant factor, not orders of magnitude.

Set ``BENCH_QUICK=1`` to shrink the dataset (the CI smoke job).
"""

import asyncio
import os
import time

import numpy as np

from repro.bench import format_table, write_report
from repro.server import AsyncSQLClient, SQLServer
from repro.sql import AsyncSQLSession, SQLSession
from repro.storage import Catalog, Table

QUICK = bool(int(os.environ.get("BENCH_QUICK", "0")))
NUM_ROWS = 120_000 if QUICK else 400_000
N_CLIENTS = 8
N_STATEMENTS = 64 if QUICK else 160
REPEATS = 2 if QUICK else 3
#: Localhost framing + JSON must cost a constant factor, not orders of
#: magnitude; the slack is generous because the statements here are
#: millisecond-scale, where fixed per-frame overhead is most visible.
WIRE_SLACK = 4.0
ABS_SLACK = 1.0

READS = [
    "SELECT grp, SUM(val) AS s FROM events GROUP BY grp ORDER BY grp",
    "SELECT COUNT(*) AS n FROM events WHERE val * score > 0.8",
    "SELECT SUM(val) AS s FROM events WHERE grp % 7 = 3",
    "SELECT eid FROM events WHERE val > 0.998 ORDER BY eid",
]
WRITES = [
    "UPDATE events SET val = val * 1.001 WHERE grp = {k}",
    "DELETE FROM events WHERE eid % 100000 = {k}",
]


def fresh_catalog() -> Catalog:
    rng = np.random.default_rng(71)
    catalog = Catalog()
    catalog.register(
        Table.from_arrays(
            "events",
            {
                "eid": np.arange(NUM_ROWS, dtype=np.int64),
                "grp": rng.integers(0, 500, NUM_ROWS).astype(np.int64),
                "val": rng.random(NUM_ROWS),
                "score": rng.random(NUM_ROWS),
            },
        )
    )
    return catalog


def statement_log(write_every) -> list:
    """Deterministic statement mix; ``write_every=None`` is read-only.

    The write templates commute bitwise (multiplicative updates on
    disjoint grp-slices, value-matched deletes), so any commit order
    lands on the same final state — which makes cross-path state
    equality a valid check.
    """
    out = []
    for i in range(N_STATEMENTS):
        if write_every is not None and i % write_every == 0:
            out.append(WRITES[(i // write_every) % len(WRITES)].format(k=i % 17))
        else:
            out.append(READS[i % len(READS)])
    return out


def run_inprocess(statements):
    """The baseline: N async clients sharing one AsyncSQLSession."""
    catalog = fresh_catalog()
    latencies = []

    async def main():
        async with AsyncSQLSession(SQLSession(catalog), max_inflight=N_CLIENTS) as db:

            async def client(slice_):
                for sql in slice_:
                    t0 = time.perf_counter()
                    await db.execute(sql)
                    latencies.append(time.perf_counter() - t0)

            t0 = time.perf_counter()
            await asyncio.gather(
                *(client(statements[i::N_CLIENTS]) for i in range(N_CLIENTS))
            )
            return time.perf_counter() - t0

    elapsed = asyncio.run(main())
    return elapsed, latencies, catalog


def run_server(statements):
    """The same clients, through the TCP front door."""
    catalog = fresh_catalog()
    latencies = []

    async def main():
        async with SQLServer(
            catalog,
            session_max_inflight=N_CLIENTS,
            max_connections=N_CLIENTS,
        ) as srv:

            async def client(slice_):
                async with await AsyncSQLClient.connect(
                    "127.0.0.1", srv.port
                ) as cli:
                    for sql in slice_:
                        t0 = time.perf_counter()
                        await cli.execute(sql)
                        latencies.append(time.perf_counter() - t0)

            t0 = time.perf_counter()
            await asyncio.gather(
                *(client(statements[i::N_CLIENTS]) for i in range(N_CLIENTS))
            )
            return time.perf_counter() - t0

    elapsed = asyncio.run(main())
    return elapsed, latencies, catalog


def assert_states_identical(a: Catalog, b: Catalog) -> None:
    ta, tb = a.table("events"), b.table("events")
    assert ta.num_rows == tb.num_rows
    for name in ta.schema.names:
        np.testing.assert_array_equal(ta.column(name), tb.column(name), err_msg=name)


def best_of(runner, statements):
    best = None
    for _ in range(REPEATS):
        elapsed, latencies, catalog = runner(statements)
        if best is None or elapsed < best[0]:
            best = (elapsed, latencies, catalog)
    return best


def test_server_throughput(benchmark):
    mixes = [
        ("read-only", statement_log(None)),
        ("read-heavy (~6% DML)", statement_log(16)),
    ]
    rows = []
    overheads = {}
    for name, statements in mixes:
        in_s, in_lat, in_catalog = best_of(run_inprocess, statements)
        srv_s, srv_lat, srv_catalog = best_of(run_server, statements)
        # the wire layer never changes SQL semantics
        assert_states_identical(srv_catalog, in_catalog)
        n = len(statements)
        overheads[name] = srv_s / max(in_s, 1e-9)
        for path, elapsed, lat in [
            ("in-process", in_s, in_lat),
            ("tcp server", srv_s, srv_lat),
        ]:
            p50, p99 = np.percentile(np.asarray(lat) * 1e3, [50, 99])
            rows.append(
                [name, path, elapsed, n / max(elapsed, 1e-9), p50, p99]
            )

    report = format_table(
        ["mix", "path", "total [s]", "QPS", "p50 [ms]", "p99 [ms]"],
        rows,
        title=(
            f"Server throughput: TCP front door vs in-process "
            f"(clients={N_CLIENTS}, rows={NUM_ROWS}, "
            f"statements={N_STATEMENTS})"
        ),
    )
    write_report("server_throughput", report)

    for name, factor in overheads.items():
        in_s = next(r[2] for r in rows if r[0] == name and r[1] == "in-process")
        srv_s = next(r[2] for r in rows if r[0] == name and r[1] == "tcp server")
        assert srv_s <= in_s * WIRE_SLACK + ABS_SLACK, (
            f"{name}: server {srv_s:.3f}s pathologically slower than "
            f"in-process {in_s:.3f}s ({factor:.1f}x)"
        )

    def once():
        run_server(statement_log(None)[: max(4, N_STATEMENTS // 8)])

    benchmark.pedantic(once, rounds=1, iterations=1)
