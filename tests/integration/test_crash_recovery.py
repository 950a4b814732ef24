"""Kill-anywhere chaos: crash at every durability fault point, recover,
and compare against serial replay of the durable commit-log prefix.

Concurrent clients hammer one durable :class:`AsyncSQLSession` while a
seeded injector crashes the commit path at one of the registered
durability fault points (``wal.append``, ``wal.fsync``,
``checkpoint.write``).  The session is then *abandoned* — no drain, no
final sync, no shutdown checkpoint — exactly what a killed process
leaves behind.  A fresh session recovers the data directory and the
recovered tables must be bit-identical to a serial replay of the WAL's
committed record prefix on a fresh catalog.  Under ``wal_sync = fsync``
every acknowledged write must be in that prefix (no lost acked writes);
under ``group``/``off`` a simulated power loss truncates the WAL to the
fsynced offset and only the *prefix* property is required — but never a
duplicated or reordered commit.

``test_real_process_kill`` does it without simulation: a child process
``os._exit``s at the injected fault point and the parent recovers what
the corpse left on disk.
"""

import asyncio
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.sql import AsyncSQLSession, SQLSession
from repro.storage import Catalog, PartitionedTable, Table, recovery
from repro.testing import FaultInjector, FaultRule, InjectedFaultError, inject

TIMEOUT = 120.0
N_EVENTS = 2_000
N_METRICS = 1_200
STATEMENTS_PER_CLIENT = 10
CRASH_POINTS = ("wal.append", "wal.fsync", "checkpoint.write")


def run_async(coro, timeout: float = TIMEOUT):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def make_catalog(seed: int) -> Catalog:
    """events (plain) + metrics (3-way partitioned), seeded."""
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    catalog.register(
        Table.from_arrays(
            "events",
            {
                "eid": np.arange(N_EVENTS, dtype=np.int64),
                "grp": rng.integers(0, 20, N_EVENTS).astype(np.int64),
                "val": rng.random(N_EVENTS),
            },
        )
    )
    metrics = Table.from_arrays(
        "metrics",
        {
            "mid": np.arange(N_METRICS, dtype=np.int64),
            "bucket": rng.integers(0, 8, N_METRICS).astype(np.int64),
            "v": rng.random(N_METRICS),
        },
    )
    catalog.register(PartitionedTable.from_table(metrics, "mid", 3))
    return catalog


def assert_table_equal(a, b, name: str) -> None:
    assert type(a) is type(b) and len(a.partitions) == len(b.partitions), name
    for i, (pa, pb) in enumerate(zip(a.partitions, b.partitions)):
        assert pa.num_rows == pb.num_rows, (name, i)
        for col in pa.schema.names:
            x, y = pa.column(col), pb.column(col)
            assert x.dtype == y.dtype, (name, i, col)
            np.testing.assert_array_equal(x, y, err_msg=f"{name}[{i}].{col}")


READS = [
    "SELECT COUNT(*) AS n FROM events WHERE grp < {k}",
    "SELECT bucket, SUM(v) AS s FROM metrics GROUP BY bucket ORDER BY bucket",
]
WRITES = [
    "UPDATE events SET val = val * 1.02 WHERE grp = {k}",
    "DELETE FROM events WHERE eid % 173 = {m7}",
    "INSERT INTO events (eid, grp, val) VALUES ({ins}, {k}, 0.5)",
    "UPDATE metrics SET v = v / 1.01 WHERE bucket = {b}",
]


async def chaos_client(session, client_id, seed, acked, crashed):
    """One seeded client; stops dead the moment the injected crash fires."""
    rng = np.random.default_rng(seed * 613 + client_id)
    for step in range(STATEMENTS_PER_CLIENT):
        if crashed["dead"]:
            return
        params = {
            "k": int(rng.integers(0, 20)),
            "m7": int(rng.integers(0, 7)),
            "b": int(rng.integers(0, 8)),
            "ins": 1_000_000 + client_id * 1_000 + step,
        }
        if rng.random() < 0.30:
            sql = READS[rng.integers(len(READS))].format(**params)
        else:
            sql = WRITES[rng.integers(len(WRITES))].format(**params)
        try:
            _, stats = await session.execute(sql, with_stats=True)
        except InjectedFaultError:
            crashed["dead"] = True  # the process just died at the fault
            return
        if stats.kind == "write":
            acked.append((stats.write_seq, sql))


def run_crash_chaos(
    clients: int,
    seed: int,
    crash_point: str,
    wal_sync: str = "fsync",
    power_loss: bool = False,
    probability: float = 0.35,
    data_dir: str = "",
):
    """One crash run: chaos -> abandon -> (power loss) -> recover -> oracle."""
    injector = FaultInjector(
        seed=seed,
        rules={
            crash_point: FaultRule(
                action="raise", probability=probability, max_fires=1
            )
        },
    )
    acked = []
    crashed = {"dead": False}

    async def main():
        session = AsyncSQLSession(
            SQLSession(
                make_catalog(seed),
                data_dir=data_dir,
                wal_sync=wal_sync,
                checkpoint_interval=4,
                checkpoint_retain=10_000,  # keep the full history for the oracle
            ),
        )
        with inject(injector):
            await asyncio.gather(
                *(
                    chaos_client(session, i, seed, acked, crashed)
                    for i in range(clients)
                )
            )
        wal = session.durability.wal
        synced, active_segment = wal.synced_offset, wal.path
        # abandon the session: release the statement lane, but no drain
        # checkpoint and no final fsync — the crash already happened
        session._lane.shutdown()
        return synced, active_segment

    synced_offset, active_segment = run_async(main())
    assert injector.fired.get(crash_point, 0) == 1, (
        f"crash at {crash_point} never fired for seed {seed}"
    )

    if power_loss:
        # everything past the last fsync evaporates with the machine
        with open(active_segment, "r+b") as fh:
            fh.truncate(synced_offset)

    # the durable commit log: gapless, no duplicates, commit order
    records = recovery.read_records(data_dir)
    writes = [r for r in records if r.kind == "write"]
    assert [r.seq for r in records] == list(range(1, len(records) + 1))
    assert len(set(s for s, _ in acked)) == len(acked), "duplicate ack"

    # prefix property: every surviving acked write sits at exactly its
    # acknowledged position; under fsync none may be missing at all
    for write_seq, sql in acked:
        if write_seq <= len(writes):
            assert writes[write_seq - 1].sql == sql, (
                f"commit {write_seq} reordered"
            )
        else:
            assert wal_sync != "fsync" and power_loss, (
                f"acked write {write_seq} lost under wal_sync=fsync"
            )

    # recover, and compare to the serial-replay oracle bit-for-bit
    recovered = SQLSession(make_catalog(seed), data_dir=data_dir)
    oracle_catalog = make_catalog(seed)
    with SQLSession(oracle_catalog) as oracle:
        for record in records:
            oracle.execute(record.sql)
    for name in ("events", "metrics"):
        assert_table_equal(
            recovered.catalog.table(name), oracle_catalog.table(name), name
        )
    recovered.close()
    return len(writes)


@pytest.mark.parametrize("clients", [2, 4, 8])
@pytest.mark.parametrize("crash_point", CRASH_POINTS)
def test_kill_anywhere_fsync(clients, crash_point, tmp_path):
    """Crash at every registered durability point, at 2/4/8 clients."""
    run_crash_chaos(
        clients,
        seed=9_000 + clients * 10 + CRASH_POINTS.index(crash_point),
        crash_point=crash_point,
        wal_sync="fsync",
        power_loss=True,  # a no-op under fsync: synced == written
        data_dir=str(tmp_path),
    )


@pytest.mark.parametrize("wal_sync", ["group", "off"])
def test_power_loss_keeps_durable_prefix(wal_sync, tmp_path):
    """group/off may lose the un-fsynced tail, never tear the prefix."""
    run_crash_chaos(
        4,
        seed=77 if wal_sync == "group" else 78,
        crash_point="wal.append",
        wal_sync=wal_sync,
        power_loss=True,
        data_dir=str(tmp_path),
    )


@pytest.mark.parametrize("seed", [111, 222, 333])
def test_crash_fixed_seeds(seed, tmp_path):
    run_crash_chaos(
        4, seed=seed, crash_point="wal.append", data_dir=str(tmp_path)
    )


def test_rotating_seed(capsys, tmp_path):
    seed = int(os.environ.get("CHAOS_SEED", "515151"))
    with capsys.disabled():
        print(f"\n[crash-chaos] rotating seed = {seed} (set CHAOS_SEED to reproduce)")
    for i, point in enumerate(CRASH_POINTS):
        # probability 1.0: whatever the schedule, the kill happens at
        # the first visit of the rotating point — always a real crash
        run_crash_chaos(
            4,
            seed=seed + i,
            crash_point=point,
            probability=1.0,
            data_dir=str(tmp_path / point),
        )


# ----------------------------------------------------------------------
# real process kill
# ----------------------------------------------------------------------
CHILD_SCRIPT = textwrap.dedent(
    """
    import os, sys
    import numpy as np
    from repro.sql import SQLSession
    from repro.storage import Catalog, Table
    from repro.testing import FaultInjector, FaultRule, inject

    point, data_dir, ack_path = sys.argv[1], sys.argv[2], sys.argv[3]
    cat = Catalog()
    cat.register(Table.from_arrays("t", {
        "a": np.arange(64, dtype=np.int64),
        "b": np.zeros(64),
    }))
    session = SQLSession(
        cat, data_dir=data_dir, wal_sync="fsync", checkpoint_interval=4
    )
    injector = FaultInjector(
        seed=7, rules={point: FaultRule(action="raise", max_fires=1)}
    )
    ack = open(ack_path, "a", encoding="utf-8")
    with inject(injector):
        for i in range(24):
            sql = f"UPDATE t SET b = b + 1 WHERE a % 7 = {i % 7}"
            try:
                session.execute(sql)
            except Exception:
                os._exit(17)  # die on the spot: no close, no atexit
            ack.write(sql + chr(10))
            ack.flush()
            os.fsync(ack.fileno())
    os._exit(0)
    """
)


@pytest.mark.parametrize("crash_point", CRASH_POINTS)
def test_real_process_kill(crash_point, tmp_path):
    """A child process hard-exits at the fault point; the parent recovers."""
    data_dir = str(tmp_path / "data")
    ack_path = str(tmp_path / "acked.txt")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, crash_point, data_dir, ack_path],
        env=env,
        timeout=60,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 17, (proc.returncode, proc.stderr)

    acked = [line for line in open(ack_path, encoding="utf-8").read().splitlines() if line]
    records = recovery.read_records(data_dir)
    writes = [r for r in records if r.kind == "write"]
    # fsync policy: every write the child acknowledged before dying is
    # in the durable log, in order, with nothing duplicated
    assert [r.sql for r in writes[: len(acked)]] == acked
    assert len(writes) - len(acked) <= 1  # at most the unacked final commit

    cat = Catalog()
    cat.register(
        Table.from_arrays(
            "t", {"a": np.arange(64, dtype=np.int64), "b": np.zeros(64)}
        )
    )
    recovered = SQLSession(cat, data_dir=data_dir)
    expected = np.zeros(64)
    for sql in (r.sql for r in writes):
        rem = int(sql.rsplit("= ", 1)[1])
        expected[np.arange(64) % 7 == rem] += 1
    np.testing.assert_array_equal(recovered.catalog.table("t").column("b"), expected)
    recovered.close()
