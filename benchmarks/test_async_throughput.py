"""Async multi-client throughput vs. sequential blocking sessions.

The point of ``AsyncSQLSession`` is that N concurrent clients sharing
one session core outrun the same statements issued one-by-one through
a blocking session: reads overlap on worker threads (the numpy kernels
release the GIL) while writes serialize behind the writer lock.  This
benchmark times identical statement logs both ways — a read-only mix
and the read-heavy mix of the acceptance criterion (~6 % DML) — at 8
concurrent clients, reports QPS, and asserts:

* the final table state after the async run is bit-identical to the
  sequential run (the consistency contract holds under load), and
* on a machine with cores to use (>= 4 CPUs, full-size run), the
  read-heavy mix reaches >= 2x the sequential QPS; on smaller runners
  the attainable ceiling is ~1x (threads can only interleave), so only
  pathological regressions fail.

Set ``BENCH_QUICK=1`` to shrink the dataset (the CI smoke job).
"""

import asyncio
import os
import time

import numpy as np

from repro.bench import format_table, write_report
from repro.sql import AsyncSQLSession, SQLSession
from repro.storage import Catalog, Table

QUICK = bool(int(os.environ.get("BENCH_QUICK", "0")))
NUM_ROWS = 120_000 if QUICK else 600_000
N_CLIENTS = 8
N_STATEMENTS = 64 if QUICK else 160
REPEATS = 2 if QUICK else 3
#: Full-size runs on a machine with this many cores must hit the 2x
#: acceptance target; below it, threads only interleave GIL-releasing
#: kernels and ~1x is the ceiling.
MIN_CPUS_FOR_TARGET = 4
TARGET_SPEEDUP = 2.0
REGRESSION_SLACK = 2.0
ABS_SLACK = 0.5

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


def statement_log(write_every: int | None) -> list:
    """A deterministic statement mix; ``write_every=None`` is read-only."""
    out = []
    for i in range(N_STATEMENTS):
        if write_every is not None and i % write_every == 0:
            # alternate over the write templates by write *ordinal* (the
            # positions i are all multiples of write_every, so indexing
            # by i would pin a single template forever)
            out.append(WRITES[(i // write_every) % len(WRITES)].format(k=i % 17))
        else:
            out.append(READS[i % len(READS)])
    return out


def run_sequential(statements) -> tuple:
    catalog = fresh_catalog()
    with SQLSession(catalog) as session:
        t0 = time.perf_counter()
        for sql in statements:
            session.execute(sql)
        elapsed = time.perf_counter() - t0
    return elapsed, catalog


def run_async_clients(statements) -> tuple:
    catalog = fresh_catalog()

    async def main():
        async with AsyncSQLSession(SQLSession(catalog), max_inflight=N_CLIENTS) as db:

            async def client(slice_):
                for sql in slice_:
                    await db.execute(sql)

            t0 = time.perf_counter()
            await asyncio.gather(
                *(client(statements[i::N_CLIENTS]) for i in range(N_CLIENTS))
            )
            return time.perf_counter() - t0

    elapsed = asyncio.run(main())
    return elapsed, catalog


def assert_states_identical(a: Catalog, b: Catalog) -> None:
    ta, tb = a.table("events"), b.table("events")
    assert ta.num_rows == tb.num_rows
    for name in ta.schema.names:
        np.testing.assert_array_equal(ta.column(name), tb.column(name), err_msg=name)


def test_async_throughput(benchmark):
    mixes = [
        ("read-only", statement_log(None)),
        ("read-heavy (~6% DML)", statement_log(16)),
    ]
    rows = []
    speedups = {}
    for name, statements in mixes:
        seq_s = min(run_sequential(statements)[0] for _ in range(REPEATS))
        async_s = None
        for _ in range(REPEATS):
            elapsed, async_catalog = run_async_clients(statements)
            async_s = elapsed if async_s is None else min(async_s, elapsed)
        # consistency under load: async final state == sequential replay.
        # The write templates are chosen to commute bitwise (updates hit
        # disjoint grp-slices multiplicatively, deletes match by value),
        # so any commit order the scheduler picks must land on the same
        # final state as the sequential log.
        assert_states_identical(async_catalog, run_sequential(statements)[1])
        n = len(statements)
        speedups[name] = seq_s / max(async_s, 1e-9)
        rows.append(
            [name, seq_s, async_s, n / max(seq_s, 1e-9), n / max(async_s, 1e-9),
             speedups[name]]
        )

    cpus = os.cpu_count() or 1
    report = format_table(
        ["mix", "sequential [s]", "async 8 clients [s]", "seq QPS", "async QPS",
         "speedup"],
        rows,
        title=(
            f"Async multi-client throughput (clients={N_CLIENTS}, "
            f"cpus={cpus}, rows={NUM_ROWS}, statements={N_STATEMENTS})"
        ),
    )
    if cpus < MIN_CPUS_FOR_TARGET:
        report += (
            f"\nnote: {cpus} CPU(s) < {MIN_CPUS_FOR_TARGET} -> concurrent "
            "clients only interleave GIL-releasing kernels; ~1x (parity) is "
            f"the attainable ceiling here, the >= {TARGET_SPEEDUP}x target "
            "needs cores."
        )
    write_report("async_throughput", report)

    read_heavy = speedups["read-heavy (~6% DML)"]
    if cpus >= MIN_CPUS_FOR_TARGET and not QUICK:
        assert read_heavy >= TARGET_SPEEDUP, (
            f"read-heavy mix: async {read_heavy:.2f}x < {TARGET_SPEEDUP}x "
            f"target at {N_CLIENTS} clients on {cpus} CPUs"
        )
    else:
        for name, seq_s, async_s, *_ in rows:
            assert async_s <= seq_s * REGRESSION_SLACK + ABS_SLACK, (
                f"{name}: async {async_s:.3f}s pathologically regressed vs "
                f"sequential {seq_s:.3f}s"
            )

    def once():
        run_sequential(statement_log(None)[: max(4, N_STATEMENTS // 8)])

    benchmark.pedantic(once, rounds=1, iterations=1)
