"""Shared helpers for the server test suite.

The replay-check pattern (and ``make_catalog``/``assert_table_equal``)
follows the PR 4 async fuzz harness
(``tests/integration/test_async_fuzz.py``): run a concurrent workload,
then replay the committed write log serially on an identical catalog
and require bit-identical final state.
"""

import asyncio

import numpy as np

from repro.server import SQLServer
from repro.sql import SQLSession
from repro.storage import Catalog, PartitionedTable, Table

TIMEOUT = 180.0
N_EVENTS = 4_000
N_METRICS = 3_000


def run_async(coro, timeout: float = TIMEOUT):
    """Run a coroutine under a deadlock-guard timeout."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


def make_catalog(seed: int) -> Catalog:
    """events (plain) + metrics (4-way partitioned), seeded."""
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    catalog.register(
        Table.from_arrays(
            "events",
            {
                "eid": np.arange(N_EVENTS, dtype=np.int64),
                "grp": rng.integers(0, 30, N_EVENTS).astype(np.int64),
                "val": rng.random(N_EVENTS),
            },
        )
    )
    metrics = Table.from_arrays(
        "metrics",
        {
            "mid": np.arange(N_METRICS, dtype=np.int64),
            "bucket": rng.integers(0, 12, N_METRICS).astype(np.int64),
            "v": rng.random(N_METRICS),
        },
    )
    catalog.register(PartitionedTable.from_table(metrics, "mid", 4))
    return catalog


def assert_table_equal(a, b, name: str) -> None:
    """Bit-identical table comparison (partition-aware)."""
    assert type(a) is type(b) and len(a.partitions) == len(b.partitions), name
    for i, (pa, pb) in enumerate(zip(a.partitions, b.partitions)):
        assert pa.num_rows == pb.num_rows, (name, i)
        for col in pa.schema.names:
            x, y = pa.column(col), pb.column(col)
            assert x.dtype == y.dtype, (name, i, col)
            np.testing.assert_array_equal(x, y, err_msg=f"{name}[{i}].{col}")


def assert_replay_matches(server: SQLServer, seed: int) -> int:
    """Replay the server session's committed write log serially.

    Reads the shared session's stats (which record every executed
    statement, including ones whose client disconnected), checks the
    commit sequence is gapless, replays it on a fresh catalog through a
    blocking session, and requires bit-identical final state.  Returns
    the number of committed writes.
    """
    writes = sorted(
        (s.write_seq, s.sql) for s in server.stats() if s.kind == "write"
    )
    assert [seq for seq, _ in writes] == list(
        range(1, len(writes) + 1)
    ), "commit sequence has gaps or duplicates"
    assert server.session.commit_count == len(writes)
    replay_catalog = make_catalog(seed)
    with SQLSession(replay_catalog) as replay:
        for _, sql in writes:
            replay.execute(sql)
    for name in ("events", "metrics"):
        assert_table_equal(
            server.session.catalog.table(name), replay_catalog.table(name), name
        )
    return len(writes)
