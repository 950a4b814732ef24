"""Durability through the TCP front door.

A :class:`SQLServer` opened on a ``data_dir`` recovers before it
accepts connections, and its graceful drain flushes the WAL and writes
a shutdown checkpoint — so a restart replays nothing and serves the
exact pre-shutdown state.
"""

import numpy as np

from repro.server import AsyncSQLClient, SQLServer
from repro.sql import SQLSession
from repro.storage import recovery

from _harness import assert_table_equal, make_catalog, run_async


def test_server_writes_survive_restart(tmp_path):
    data_dir = str(tmp_path)
    seed = 31

    async def first_run():
        async with SQLServer(
            make_catalog(seed), data_dir=data_dir
        ) as srv:
            assert srv.session.durability.data_dir == data_dir
            async with await AsyncSQLClient.connect("127.0.0.1", srv.port) as cli:
                for k in range(6):
                    r = await cli.execute(
                        f"UPDATE events SET val = val * 1.1 WHERE grp = {k}"
                    )
                    assert r.stats["write_seq"] == k + 1
                await cli.execute("DELETE FROM metrics WHERE bucket = 3")
            return srv.session.catalog

    catalog = run_async(first_run())

    # graceful drain checkpointed: the WAL tail is empty on restart
    async def second_run():
        async with SQLServer(
            make_catalog(seed), data_dir=data_dir
        ) as srv:
            report = srv.session.durability.recovery_report
            assert report.records_replayed == 0
            assert report.checkpoint_path is not None
            for name in ("events", "metrics"):
                assert_table_equal(
                    srv.session.catalog.table(name), catalog.table(name), name
                )
            # and the restarted server keeps appending where it left off
            async with await AsyncSQLClient.connect("127.0.0.1", srv.port) as cli:
                r = await cli.execute("UPDATE events SET val = 0.0 WHERE grp = 0")
                assert r.stats["write_seq"] == 1  # fresh session, fresh order
            return srv.session.catalog

    catalog2 = run_async(second_run())
    assert float(
        catalog2.table("events").column("val")[
            catalog2.table("events").column("grp") == 0
        ].sum()
    ) == 0.0


def test_abandoned_server_session_recovers_from_wal(tmp_path):
    """No graceful drain: the WAL tail alone reconstructs the state."""
    data_dir = str(tmp_path)
    seed = 32

    async def crashy_run():
        srv = SQLServer(make_catalog(seed), data_dir=data_dir)
        await srv.start()
        try:
            async with await AsyncSQLClient.connect("127.0.0.1", srv.port) as cli:
                for k in range(5):
                    await cli.execute(
                        f"UPDATE metrics SET v = v + 1.0 WHERE bucket = {k}"
                    )
        finally:
            # crash: tear the listener and the statement lane down, but
            # skip the session close (no final sync, no shutdown checkpoint)
            srv._server.close()
            await srv._server.wait_closed()
            srv.session._lane.shutdown()

    run_async(crashy_run())

    records = recovery.read_records(data_dir)
    assert len([r for r in records if r.kind == "write"]) == 5

    recovered = SQLSession(make_catalog(seed), data_dir=data_dir)
    assert recovered.durability.recovery_report.records_replayed == 5
    oracle = SQLSession(make_catalog(seed))
    for r in records:
        oracle.execute(r.sql)
    for name in ("events", "metrics"):
        assert_table_equal(
            recovered.catalog.table(name), oracle.catalog.table(name), name
        )
    np.testing.assert_array_equal(
        recovered.catalog.table("metrics").partitions[0].column("v"),
        oracle.catalog.table("metrics").partitions[0].column("v"),
    )
    recovered.close()
    oracle.close()
