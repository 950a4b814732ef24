"""Randomized async stress: concurrent clients vs. serial replay.

Seeded fuzz over the whole async surface: 2/4/8 concurrent clients
fire a randomized mix of queries, DML, ``SET statement_timeout_ms`` and
SortKey-refreshing writes (an immediate-refresh SortKey — including a
*descending* one on a partitioned table, exercising the k-way merge's
reversed-stable tie rule — hangs off the mutated tables) at one
``AsyncSQLSession``.  The committed write log is then replayed, in
commit order, on a fresh blocking ``SQLSession`` over an identical
catalog: the final table states, SortKey materializations and refresh
counts must be **bit-identical** — whatever interleaving the scheduler
chose, the outcome is one of the serial histories.

A seeded share of the statements fails at bind time (ambiguous or
unknown column, reads and writes alike): each must raise its
:class:`~repro.sql.binder.BindError` and give its admission slot back,
or the clients behind it starve.

Seeded and deterministic per client; every await is wrapped in a
timeout so a scheduling bug fails fast instead of hanging CI.
"""

import asyncio

import numpy as np
import pytest

from repro.materialization.sortkey import SortKey
from repro.sql import AsyncSQLSession, SQLSession
from repro.sql.binder import BindError
from repro.storage import Catalog, PartitionedTable, Table

TIMEOUT = 180.0
N_EVENTS = 6_000
N_METRICS = 4_000
STATEMENTS_PER_CLIENT = 18


def run_async(coro, timeout: float = TIMEOUT):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def make_catalog(seed: int):
    """events (plain) + metrics (4-way partitioned), with an ascending
    SortKey on events and a descending SortKey on metrics."""
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    events = Table.from_arrays(
        "events",
        {
            "eid": np.arange(N_EVENTS, dtype=np.int64),
            "grp": rng.integers(0, 30, N_EVENTS).astype(np.int64),
            "val": rng.random(N_EVENTS),
        },
    )
    metrics_base = Table.from_arrays(
        "metrics",
        {
            "mid": np.arange(N_METRICS, dtype=np.int64),
            "bucket": rng.integers(0, 12, N_METRICS).astype(np.int64),
            "v": rng.random(N_METRICS),
        },
    )
    metrics = PartitionedTable.from_table(metrics_base, "mid", 4)
    catalog.register(events)
    catalog.register(metrics)
    sortkeys = {
        "events": SortKey(events, "grp", ascending=True),
        "metrics": SortKey(metrics, "v", ascending=False),
    }
    return catalog, sortkeys


READS = [
    "SELECT COUNT(*) AS n FROM events WHERE grp < {k}",
    "SELECT SUM(val) AS s FROM events WHERE grp % 3 = {m3}",
    "SELECT grp, COUNT(*) AS n FROM events GROUP BY grp ORDER BY grp",
    "SELECT eid, val FROM events WHERE val > 0.9 ORDER BY val DESC, eid LIMIT 20",
    "SELECT COUNT(*) AS n FROM metrics WHERE bucket = {b}",
    "SELECT mid FROM metrics WHERE v < 0.1 ORDER BY mid LIMIT 15",
    "SELECT bucket, SUM(v) AS s FROM metrics GROUP BY bucket ORDER BY bucket",
]
WRITES = [
    "UPDATE events SET val = val * 1.02 WHERE grp = {k}",
    "UPDATE events SET grp = grp + 1 WHERE val < 0.02 AND grp < 25",
    "DELETE FROM events WHERE eid % 211 = {m7}",
    "INSERT INTO events (eid, grp, val) VALUES ({ins}, {k}, 0.5)",
    "UPDATE metrics SET v = v / 1.01 WHERE bucket = {b}",
    "DELETE FROM metrics WHERE mid % 307 = {m7}",
]
# deadlines no statement reaches: SETs serialise behind the writer lock
# without ever interrupting anything
SETS = [
    "SET statement_timeout_ms = 60000",
    "SET statement_timeout_ms = 120000",
    "SET statement_timeout_ms = off",
]
# statements that fail to bind: prepared after admission, so each
# holds a read or write slot when it raises
BIND_ERRORS = [
    "SELECT grp FROM events x JOIN events y ON eid = eid",  # ambiguous
    "SELECT nosuch FROM events WHERE grp < {k}",
    "UPDATE events SET val = 0.5 WHERE nosuch = {k}",
]


def client_statements(rng: np.random.Generator, client_id: int):
    """``(sql, fails_to_bind)`` pairs for one client."""
    out = []
    for step in range(STATEMENTS_PER_CLIENT):
        params = {
            "k": int(rng.integers(0, 30)),
            "m3": int(rng.integers(0, 3)),
            "m7": int(rng.integers(0, 7)),
            "b": int(rng.integers(0, 12)),
            # unique eid per (client, step): inserts never collide
            "ins": 1_000_000 + client_id * 1_000 + step,
        }
        r = rng.random()
        if r < 0.5:
            template = READS[rng.integers(len(READS))]
        elif r < 0.83:
            template = WRITES[rng.integers(len(WRITES))]
        elif r < 0.9:
            template = SETS[rng.integers(len(SETS))]
        else:
            template = BIND_ERRORS[rng.integers(len(BIND_ERRORS))]
        out.append((template.format(**params), template in BIND_ERRORS))
    return out


def assert_table_equal(a, b, name):
    assert type(a) is type(b) and len(a.partitions) == len(b.partitions), name
    for i, (pa, pb) in enumerate(zip(a.partitions, b.partitions)):
        assert pa.num_rows == pb.num_rows, (name, i)
        for col in pa.schema.names:
            x, y = pa.column(col), pb.column(col)
            assert x.dtype == y.dtype, (name, i, col)
            np.testing.assert_array_equal(x, y, err_msg=f"{name}[{i}].{col}")


@pytest.mark.parametrize("clients", [2, 4, 8])
def test_fuzz_final_state_matches_serial_replay(clients):
    seed = 9_000 + clients
    write_records = []
    bind_errors = []

    async def client(db, statements):
        for sql, fails_to_bind in statements:
            if fails_to_bind:
                with pytest.raises(BindError):
                    await db.execute(sql)
                bind_errors.append(sql)
                continue
            _, stats = await db.execute(sql, with_stats=True)
            if stats.kind == "write":
                write_records.append((stats.write_seq, sql))

    async def main():
        catalog, sortkeys = make_catalog(seed)
        async with AsyncSQLSession(
            SQLSession(catalog),
            max_inflight=clients,
            stats_history=10_000,
        ) as db:
            jobs = []
            for i in range(clients):
                rng = np.random.default_rng(seed * 10 + i)
                jobs.append(client(db, client_statements(rng, i)))
            await asyncio.gather(*jobs)
            assert db.commit_count == len(write_records)
            assert db.inflight == 0 and db.queued == 0
        return catalog, sortkeys

    catalog, sortkeys = run_async(main())
    # as many bind failures as slots: leaked slots would have starved the run
    assert len(bind_errors) >= clients

    # commit order is gapless FIFO
    seqs = sorted(seq for seq, _ in write_records)
    assert seqs == list(range(1, len(write_records) + 1))

    # serial replay of the committed write log on a blocking session
    replay_catalog, replay_sortkeys = make_catalog(seed)
    replay = SQLSession(replay_catalog)
    for _, sql in sorted(write_records):
        replay.execute(sql)

    for name in ("events", "metrics"):
        assert_table_equal(
            catalog.table(name), replay_catalog.table(name), name
        )
        sk, rsk = sortkeys[name], replay_sortkeys[name]
        assert sk.refresh_count == rsk.refresh_count, name
        got, want = sk.scan_sorted(), rsk.scan_sorted()
        assert got.keys() == want.keys()
        for col in want:
            np.testing.assert_array_equal(
                got[col], want[col], err_msg=f"sortkey {name}.{col}"
            )
        sk.detach()
        rsk.detach()


@pytest.mark.parametrize("clients", [4])
def test_fuzz_reads_never_see_torn_state(clients):
    """A cheap invariant probe on top of the replay test: the events
    table keeps ``val`` finite and ``grp`` within the range the write
    mix can produce, for every read the fuzz run performs."""
    seed = 77

    async def main():
        catalog, sortkeys = make_catalog(seed)
        async with AsyncSQLSession(SQLSession(catalog), max_inflight=clients) as db:

            async def mutator(i):
                rng = np.random.default_rng(300 + i)
                for _ in range(10):
                    k = int(rng.integers(0, 30))
                    await db.execute(
                        f"UPDATE events SET val = val * 1.01 WHERE grp = {k}"
                    )

            async def checker():
                for _ in range(12):
                    rel = await db.execute(
                        "SELECT COUNT(*) AS n FROM events WHERE val < 0.0"
                    )
                    assert rel.column("n").tolist() == [0]

            await asyncio.gather(mutator(0), mutator(1), checker(), checker())
        for sk in sortkeys.values():
            sk.detach()

    run_async(main())
