"""Start a SQL server, talk to it over TCP, shut it down.

The smallest end-to-end tour of the network front door:

1. build a catalog and start :class:`repro.server.SQLServer` on an
   ephemeral port,
2. connect one :class:`repro.server.AsyncSQLClient`: pipeline a query
   and an UPDATE on the connection, then ``prepare`` a statement and
   ``run_prepared`` it around a DELETE,
3. drain gracefully with ``aclose`` (in-flight statements commit,
   queued ones get typed ``server-closed`` errors).

Run it::

    PYTHONPATH=src python examples/server_quickstart.py

The wire protocol the client speaks is specified in
``docs/protocol.md``; ``docs/architecture.md`` places the server in
the layer map.
"""

import asyncio

import numpy as np

from repro.server import AsyncSQLClient, SQLServer
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


async def main() -> None:
    async with SQLServer(build_catalog()) as server:
        print(f"serving on {server.host}:{server.port}")
        async with await AsyncSQLClient.connect(server.host, server.port) as cli:
            # submit both without waiting: the server admits them through
            # the shared session's FIFO (the write commits atomically)
            read_id = await cli.submit(
                "SELECT grp, COUNT(*) AS n FROM events GROUP BY grp ORDER BY grp"
            )
            write_id = await cli.submit("UPDATE events SET val = val * 2.0 WHERE grp = 3")
            groups = await cli.wait(read_id)
            update = await cli.wait(write_id)
            print(
                f"{len(groups.rows)} groups; update touched {update.row_count} rows "
                f"(commit #{update.stats['write_seq']})"
            )

            # parsed once on the server, run by name
            await cli.prepare("total", "SELECT SUM(val) AS s FROM events")
            before = (await cli.run_prepared("total")).scalar()
            await cli.execute("DELETE FROM events WHERE eid % 1000 = 0")
            after = (await cli.run_prepared("total")).scalar()
            print(f"SUM(val): {before:.2f} -> {after:.2f} after DELETE")
        print(f"served {server.session.commit_count} commits; draining...")
    print("server closed")


if __name__ == "__main__":
    asyncio.run(main())
