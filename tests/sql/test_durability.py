"""Durable-session semantics at the SQL layer.

How ``wal_sync`` and ``checkpoint_interval`` validate at every door is
in ``tests/sql/test_settings.py``; ``data_dir`` is a constructor-only
knob and validates here.
"""

import asyncio

import numpy as np
import pytest

from repro.sql import AsyncSQLSession, SQLSession
from repro.storage import Catalog, Table, WALError, recovery


def make_catalog():
    cat = Catalog()
    cat.register(
        Table.from_arrays(
            "t",
            {"a": np.arange(30, dtype=np.int64), "b": np.zeros(30)},
        )
    )
    return cat


def test_ctor_rejects_bad_data_dir(tmp_path):
    with pytest.raises(TypeError):
        SQLSession(make_catalog(), data_dir=7)
    file_path = tmp_path / "plain_file"
    file_path.write_text("x")
    with pytest.raises(ValueError):
        SQLSession(make_catalog(), data_dir=str(file_path))


# ----------------------------------------------------------------------
# durable-session semantics
# ----------------------------------------------------------------------
def test_auto_checkpoint_on_interval(tmp_path):
    s = SQLSession(make_catalog(), data_dir=str(tmp_path), checkpoint_interval=3)
    for i in range(7):
        s.execute(f"UPDATE t SET b = b + 1 WHERE a = {i}")
    ckpts = recovery.list_checkpoints(str(tmp_path))
    # initial checkpoint at seq 0 plus auto checkpoints as the interval
    # is crossed (at the start of commits 4 and 7)
    assert [seq for seq, _ in ckpts][-2:] == [3, 6]
    s.close()


def test_set_statements_are_replayed(tmp_path):
    s = SQLSession(make_catalog(), data_dir=str(tmp_path), wal_sync="off")
    s.execute("SET wal_sync = fsync")
    s.execute("SET checkpoint_interval = 5")
    s.execute("UPDATE t SET b = 1.0 WHERE a < 3")
    del s  # crash: no close, no checkpoint — reopen replays the WAL
    s2 = SQLSession(make_catalog(), data_dir=str(tmp_path), wal_sync="off")
    assert s2.setting("wal_sync") == "fsync"
    assert s2.setting("checkpoint_interval") == 5
    assert float(s2.catalog.table("t").column("b")[:3].sum()) == 3.0
    s2.close()


def test_writes_after_close_raise(tmp_path):
    s = SQLSession(make_catalog(), data_dir=str(tmp_path))
    s.execute("UPDATE t SET b = 1.0 WHERE a = 0")
    s.close()
    with pytest.raises(WALError):
        s.execute("UPDATE t SET b = 2.0 WHERE a = 0")


def test_close_is_idempotent(tmp_path):
    s = SQLSession(make_catalog(), data_dir=str(tmp_path))
    s.execute("DELETE FROM t WHERE a = 0")
    s.close()
    s.close()


def test_zero_row_writes_are_logged(tmp_path):
    """Zero-row UPDATE/DELETE still commit (and are acked with a commit
    sequence by the async layer), so they must occupy a WAL slot —
    otherwise the log and the ack stream disagree about sequencing."""
    s = SQLSession(make_catalog(), data_dir=str(tmp_path))
    s.execute("UPDATE t SET b = 9.0 WHERE a = -1")  # matches nothing
    s.execute("DELETE FROM t WHERE a = -1")
    s.execute("UPDATE t SET b = 1.0 WHERE a = 0")
    records = recovery.read_records(str(tmp_path))
    writes = [r for r in records if r.kind == "write"]
    assert len(writes) == 3
    assert [r.seq for r in records] == list(range(1, len(records) + 1))
    s.close()


def test_forced_checkpoint_returns_path(tmp_path):
    s = SQLSession(make_catalog(), data_dir=str(tmp_path))
    s.execute("UPDATE t SET b = 1.0 WHERE a = 0")
    path = s.checkpoint()
    assert path is not None and path.endswith(".ckpt")
    s.close()


def test_non_durable_session_checkpoint_is_noop():
    s = SQLSession(make_catalog())
    assert s.checkpoint() is None
    assert s.data_dir is None
    assert s.durability is None


def test_select_and_failed_write_leave_no_wal_record(tmp_path):
    s = SQLSession(make_catalog(), data_dir=str(tmp_path))
    s.execute("SELECT a FROM t WHERE a < 5")
    with pytest.raises(Exception):
        s.execute("UPDATE nope SET b = 1.0")
    assert recovery.read_records(str(tmp_path)) == []
    s.close()


# ----------------------------------------------------------------------
# async wiring
# ----------------------------------------------------------------------
def test_async_session_durability_round_trip(tmp_path):
    async def writer():
        session = AsyncSQLSession(
            SQLSession(make_catalog(), data_dir=str(tmp_path), wal_sync="fsync"),
        )
        try:
            assert session.durability.data_dir == str(tmp_path)
            assert session.durability.wal_sync == "fsync"
            for i in range(5):
                await session.execute(f"UPDATE t SET b = b + 1 WHERE a = {i}")
        finally:
            await session.aclose()

    asyncio.run(writer())
    s2 = SQLSession(make_catalog(), data_dir=str(tmp_path))
    np.testing.assert_array_equal(
        s2.catalog.table("t").column("b")[:6],
        np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0]),
    )
    # aclose drained and checkpointed: reopen replays nothing
    assert s2.durability.recovery_report.records_replayed == 0
    s2.close()
