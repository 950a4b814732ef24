"""Seeded fuzz against the server: garbage frames, rude disconnects.

Two layers of abuse, both with a well-behaved connection alongside to
prove isolation:

* **frame fuzz** — malformed bodies (bad JSON, wrong types, missing
  fields), raw garbage bytes, and oversized payloads.  Every abusive
  connection must be answered with a typed fatal error (or simply
  closed); the server and its other connections keep working.
* **lifecycle fuzz** — mixed SQL workloads where clients vanish
  mid-query without a ``close`` frame.  Afterwards the committed write
  log (server-side stats — they record statements whose client
  disconnected too) is replayed serially on an identical catalog and
  the final state must be bit-identical: rude disconnects may abort
  *queued* statements but never lose, duplicate, or tear a commit.
"""

import asyncio

import numpy as np
import pytest

from _harness import assert_replay_matches, make_catalog, run_async
from repro.server import AsyncSQLClient, SQLServer
from repro.server.protocol import (
    HEADER,
    PROTOCOL_VERSION,
    encode_frame,
    read_frame,
    write_frame,
)

SEEDS = [101, 202]

READS = [
    "SELECT COUNT(*) AS n FROM events WHERE grp < {k}",
    "SELECT SUM(val) AS s FROM events WHERE grp % 3 = {m3}",
    "SELECT grp, COUNT(*) AS n FROM events GROUP BY grp ORDER BY grp",
    "SELECT eid, val FROM events WHERE val > 0.9 ORDER BY val DESC, eid LIMIT 20",
    "SELECT COUNT(*) AS n FROM metrics WHERE bucket = {b}",
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


def statement(rng: np.random.Generator, client_id: int, step: int) -> str:
    params = {
        "k": int(rng.integers(0, 30)),
        "m3": int(rng.integers(0, 3)),
        "m7": int(rng.integers(0, 7)),
        "b": int(rng.integers(0, 12)),
        # unique eid per (client, step): inserts never collide
        "ins": 1_000_000 + client_id * 1_000 + step,
    }
    pool = READS if rng.random() < 0.6 else WRITES
    return pool[rng.integers(len(pool))].format(**params)


GARBAGE_BODIES = [
    b"\x00\x01\x02 not json",
    b"{truncated",
    b"[]",
    b"null",
    b'"hello"',
    b"{}",
    b'{"type": 7}',
    b'{"type": "no-such-type"}',
    b'{"type": "query", "id": 1}',  # missing sql
    b'{"type": "query", "id": "one", "sql": "SELECT 1"}',  # mistyped id
    b'{"type": "query", "id": true, "sql": "SELECT 1"}',  # bool id
    b'{"type": "hello", "version": "1"}',  # hello again, mistyped
    b'{"type": "result", "id": 1, "row_count": 0}',  # server-only type
]


async def expect_fatal_close(reader, writer):
    """The server must answer with a fatal error (or just close)."""
    saw_error = False
    while True:
        try:
            frame = await read_frame(reader)
        except ConnectionError:
            break
        if frame is None:
            break
        if frame.get("type") == "error":
            saw_error = True
            assert frame["code"] in {"protocol", "too-large", "auth"}
    writer.close()
    return saw_error


async def handshake(reader, writer):
    await write_frame(writer, {"type": "hello", "version": PROTOCOL_VERSION})
    frame = await read_frame(reader)
    assert frame["type"] == "hello_ok"


class TestFrameFuzz:
    @pytest.mark.parametrize("body", GARBAGE_BODIES, ids=range(len(GARBAGE_BODIES)))
    def test_garbage_after_handshake_gets_fatal_error(self, body):
        async def main():
            async with SQLServer(make_catalog(31)) as srv:
                reader, writer = await asyncio.open_connection("127.0.0.1", srv.port)
                await handshake(reader, writer)
                writer.write(HEADER.pack(len(body)) + body)
                await writer.drain()
                assert await expect_fatal_close(reader, writer)
                # the server still accepts and serves a healthy client
                async with await AsyncSQLClient.connect("127.0.0.1", srv.port) as cli:
                    assert (await cli.execute("SELECT COUNT(*) AS n FROM events")).rows

        run_async(main())

    @pytest.mark.parametrize("body", GARBAGE_BODIES[:6], ids=range(6))
    def test_garbage_instead_of_hello(self, body):
        async def main():
            async with SQLServer(make_catalog(31)) as srv:
                reader, writer = await asyncio.open_connection("127.0.0.1", srv.port)
                writer.write(HEADER.pack(len(body)) + body)
                await writer.drain()
                await expect_fatal_close(reader, writer)
                async with await AsyncSQLClient.connect("127.0.0.1", srv.port) as cli:
                    assert (await cli.execute("SELECT COUNT(*) AS n FROM metrics")).rows

        run_async(main())

    def test_oversized_declared_length_rejected(self):
        async def main():
            async with SQLServer(make_catalog(31), max_frame_bytes=4096) as srv:
                reader, writer = await asyncio.open_connection("127.0.0.1", srv.port)
                await handshake(reader, writer)
                writer.write(HEADER.pack(1 << 30))  # 1 GiB claim, no body
                await writer.drain()
                saw = await expect_fatal_close(reader, writer)
                assert saw  # typed too-large error, not a buffering attempt

        run_async(main())

    def test_oversized_actual_payload_rejected(self):
        async def main():
            async with SQLServer(make_catalog(31), max_frame_bytes=4096) as srv:
                reader, writer = await asyncio.open_connection("127.0.0.1", srv.port)
                await handshake(reader, writer)
                sql = "SELECT 1 -- " + "x" * 8192
                body = encode_frame({"type": "query", "id": 1, "sql": sql})[HEADER.size:]
                writer.write(HEADER.pack(len(body)) + body)
                await writer.drain()
                assert await expect_fatal_close(reader, writer)

        run_async(main())

    def test_random_byte_stream(self):
        """Pure noise on the socket (headers included) never kills the
        acceptor."""

        async def main():
            rng = np.random.default_rng(7)
            async with SQLServer(make_catalog(31)) as srv:
                for _ in range(8):
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", srv.port
                    )
                    noise = rng.integers(0, 256, int(rng.integers(1, 64))).astype(
                        np.uint8
                    )
                    writer.write(noise.tobytes())
                    await writer.drain()
                    await expect_fatal_close(reader, writer)
                async with await AsyncSQLClient.connect("127.0.0.1", srv.port) as cli:
                    assert (await cli.execute("SELECT COUNT(*) AS n FROM events")).rows

        run_async(main())

    def test_half_frame_then_disconnect(self):
        async def main():
            async with SQLServer(make_catalog(31)) as srv:
                reader, writer = await asyncio.open_connection("127.0.0.1", srv.port)
                await handshake(reader, writer)
                frame = encode_frame({"type": "query", "id": 1, "sql": "SELECT 1"})
                writer.write(frame[: len(frame) // 2])
                await writer.drain()
                writer.close()  # EOF mid-body
                await writer.wait_closed()
                async with await AsyncSQLClient.connect("127.0.0.1", srv.port) as cli:
                    assert (await cli.execute("SELECT COUNT(*) AS n FROM events")).rows

        run_async(main())


class TestDisconnectFuzz:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixed_clients_with_rude_disconnects_replay_clean(self, seed):
        async def rude_client(port, rng, client_id):
            """Submit a few statements, then vanish without closing."""
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await handshake(reader, writer)
            n = int(rng.integers(1, 5))
            for i in range(n):
                await write_frame(
                    writer,
                    {
                        "type": "query",
                        "id": i + 1,
                        "sql": statement(rng, client_id, i),
                    },
                )
            # read back a random prefix of the replies, then hang up
            # abruptly — possibly with statements still queued/in flight
            for _ in range(int(rng.integers(0, n + 1))):
                frame = await read_frame(reader)
                if frame is None:
                    break
            writer.close()
            await writer.wait_closed()

        async def polite_client(port, rng, client_id):
            results = []
            async with await AsyncSQLClient.connect("127.0.0.1", port) as cli:
                for i in range(12):
                    try:
                        results.append(await cli.execute(statement(rng, client_id, i)))
                    except Exception as exc:  # noqa: BLE001 — record, don't mask
                        results.append(exc)
            return results

        async def main():
            async with SQLServer(
                make_catalog(seed),
                session_max_inflight=4,
                stats_history=10_000,
            ) as srv:
                rngs = [np.random.default_rng((seed, i)) for i in range(10)]
                tasks = []
                for i, rng in enumerate(rngs):
                    fn = rude_client if i % 2 else polite_client
                    tasks.append(fn(srv.port, rng, i))
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                # rude clients may hit connection errors; polite ones never do
                for i, out in enumerate(outcomes):
                    if i % 2 == 0:
                        assert not isinstance(out, BaseException), out
                        assert all(not isinstance(r, Exception) for r in out)
                await srv.session.drain()
                committed = assert_replay_matches(srv, seed)
                assert committed == srv.session.commit_count

        run_async(main())

    def test_disconnect_storm_leaves_server_serving(self):
        """Dozens of connects that immediately drop, interleaved with
        real queries."""

        async def main():
            async with SQLServer(make_catalog(77), max_connections=8) as srv:
                async with await AsyncSQLClient.connect("127.0.0.1", srv.port) as cli:
                    for round_ in range(6):
                        for _ in range(5):
                            _, writer = await asyncio.open_connection(
                                "127.0.0.1", srv.port
                            )
                            writer.close()
                        n = await cli.execute("SELECT COUNT(*) AS n FROM events")
                        assert n.rows[0][0] > 0
                assert srv.connections == 0 or srv.connections == 1

        run_async(main())
