"""Start a SQL server, talk to it from two clients, shut it down.

The smallest end-to-end tour of the network front door:

1. build a catalog and start :class:`repro.server.SQLServer` on an
   ephemeral port,
2. run concurrent clients — an asyncio client firing a query and an
   UPDATE in parallel, and a blocking :class:`repro.server.SQLClient`
   in a worker thread,
3. drain gracefully with ``aclose`` (in-flight statements commit,
   queued ones get typed ``server-closed`` errors).

Run it::

    PYTHONPATH=src python examples/server_quickstart.py

The wire protocol the clients speak is specified in
``docs/protocol.md``; ``docs/architecture.md`` places the server in
the layer map.
"""

import asyncio

import numpy as np

from repro.server import AsyncSQLClient, SQLClient, SQLServer
from repro.storage import Catalog, Table


def build_catalog() -> Catalog:
    rng = np.random.default_rng(7)
    n = 50_000
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


async def async_client(port: int) -> None:
    """Pipeline a read and a write on one connection."""
    async with await AsyncSQLClient.connect("127.0.0.1", port) as cli:
        # submit both without waiting: the server admits them through
        # the shared session's FIFO (the write commits atomically)
        read_id = await cli.submit("SELECT grp, COUNT(*) AS n FROM events GROUP BY grp ORDER BY grp")
        write_id = await cli.submit("UPDATE events SET val = val * 2.0 WHERE grp = 3")
        groups = await cli.wait(read_id)
        update = await cli.wait(write_id)
        print(f"[async] {len(groups.rows)} groups; "
              f"update touched {update.row_count} rows "
              f"(commit #{update.stats['write_seq']})")


def blocking_client(port: int) -> None:
    """The same API surface, synchronous — e.g. for scripts or a REPL."""
    with SQLClient("127.0.0.1", port) as cli:
        cli.prepare("total", "SELECT SUM(val) AS s FROM events")
        before = cli.run_prepared("total").scalar()
        cli.execute("DELETE FROM events WHERE eid % 1000 = 0")
        after = cli.run_prepared("total").scalar()
        print(f"[blocking] SUM(val): {before:.2f} -> {after:.2f} after DELETE")


async def main() -> None:
    async with SQLServer(build_catalog()) as server:
        print(f"serving on {server.host}:{server.port}")
        await asyncio.gather(
            async_client(server.port),
            asyncio.to_thread(blocking_client, server.port),
        )
        print(f"served {server.session.commit_count} commits; draining...")
    print("server closed")


if __name__ == "__main__":
    asyncio.run(main())
