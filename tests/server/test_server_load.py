"""32 concurrent connections, zero lost or duplicated statements.

The PR's acceptance bar: a 32-connection mixed read/write workload
through the TCP front door must commit a gapless write sequence whose
serial replay on an identical catalog is bit-identical to the server's
final state — whatever interleaving the scheduler chose, the outcome
is one of the serial histories, with every acknowledged write present
exactly once.
"""

import asyncio

import numpy as np
import pytest

from _harness import assert_replay_matches, make_catalog, run_async
from repro.server import AsyncSQLClient, SQLServer

N_CONNECTIONS = 32
STATEMENTS_PER_CLIENT = 8

READS = [
    "SELECT COUNT(*) AS n FROM events WHERE grp < {k}",
    "SELECT SUM(val) AS s FROM events WHERE grp % 3 = {m3}",
    "SELECT grp, COUNT(*) AS n FROM events GROUP BY grp ORDER BY grp",
    "SELECT COUNT(*) AS n FROM metrics WHERE bucket = {b}",
]
WRITES = [
    "UPDATE events SET val = val * 1.01 WHERE grp = {k}",
    "DELETE FROM events WHERE eid % 223 = {m7}",
    "INSERT INTO events (eid, grp, val) VALUES ({ins}, {k}, 0.25)",
    "UPDATE metrics SET v = v + 0.001 WHERE bucket = {b}",
]


def client_script(seed: int, client_id: int):
    rng = np.random.default_rng((seed, client_id))
    out = []
    for step in range(STATEMENTS_PER_CLIENT):
        params = {
            "k": int(rng.integers(0, 30)),
            "m3": int(rng.integers(0, 3)),
            "m7": int(rng.integers(0, 7)),
            "b": int(rng.integers(0, 12)),
            "ins": 1_000_000 + client_id * 1_000 + step,
        }
        pool = READS if rng.random() < 0.5 else WRITES
        out.append(pool[rng.integers(len(pool))].format(**params))
    return out


@pytest.mark.parametrize("seed", [11, 47])
def test_32_connections_mixed_workload_replays_bit_identical(seed):
    async def client(port, client_id, acks):
        async with await AsyncSQLClient.connect("127.0.0.1", port) as cli:
            for sql in client_script(seed, client_id):
                result = await cli.execute(sql)  # raises on any error frame
                acks.append((client_id, sql, result.stats["write_seq"]))

    async def main():
        async with SQLServer(
            make_catalog(seed),
            session_max_inflight=6,
            max_connections=N_CONNECTIONS,
            stats_history=10_000,
        ) as srv:
            acks = []
            await asyncio.gather(
                *(client(srv.port, i, acks) for i in range(N_CONNECTIONS))
            )
            assert srv.connections == 0

            # every statement was acknowledged exactly once
            assert len(acks) == N_CONNECTIONS * STATEMENTS_PER_CLIENT
            per_client = {}
            for client_id, sql, _ in acks:
                per_client.setdefault(client_id, []).append(sql)
            for i in range(N_CONNECTIONS):
                assert per_client[i] == client_script(seed, i)

            # acknowledged writes and the server's write log agree 1:1
            acked_write_seqs = sorted(
                seq
                for (_, sql, seq) in acks
                if sql.split()[0] in {"UPDATE", "DELETE", "INSERT"}
            )
            assert acked_write_seqs == list(range(1, len(acked_write_seqs) + 1))
            assert srv.session.commit_count == len(acked_write_seqs)

            # gapless commit order whose serial replay is bit-identical
            committed = assert_replay_matches(srv, seed)
            assert committed == len(acked_write_seqs)

    run_async(main())


def test_full_house_queries_answered_fairly():
    """All 32 connections fire the same query simultaneously; every one
    of them gets the same correct answer."""

    async def one(port, results):
        async with await AsyncSQLClient.connect("127.0.0.1", port) as cli:
            r = await cli.execute("SELECT COUNT(*) AS n FROM events")
            results.append(r.rows[0][0])

    async def main():
        async with SQLServer(
            make_catalog(5), max_connections=N_CONNECTIONS, session_max_inflight=8
        ) as srv:
            expected = len(srv.session.catalog.table("events").rowids())
            results = []
            await asyncio.gather(*(one(srv.port, results) for i in range(N_CONNECTIONS)))
            assert results == [expected] * N_CONNECTIONS

    run_async(main())
