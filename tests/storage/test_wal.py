"""Unit tests for the write-ahead log and checkpoint primitives."""

import io
import json
import os
import zlib

import numpy as np
import pytest

from repro.storage import (
    Catalog,
    PartitionedTable,
    Table,
    WALError,
    WriteAheadLog,
    validate_data_dir,
    validate_wal_sync,
)
from repro.storage import recovery, wal as walmod
from repro.testing import FaultInjector, FaultRule, inject


# ----------------------------------------------------------------------
# knob validators (same validate_* discipline as statement_timeout_ms)
# ----------------------------------------------------------------------
def test_validate_wal_sync_accepts_enum():
    for policy in ("off", "group", "fsync", "FSYNC", "Group"):
        assert validate_wal_sync(policy) == policy.lower()


@pytest.mark.parametrize("bad", ["always", "", "on", "sync"])
def test_validate_wal_sync_rejects_unknown(bad):
    with pytest.raises(ValueError):
        validate_wal_sync(bad)


@pytest.mark.parametrize("bad", [1, None, True, 0.5, b"fsync"])
def test_validate_wal_sync_rejects_non_string(bad):
    with pytest.raises(TypeError):
        validate_wal_sync(bad)


def test_validate_data_dir(tmp_path):
    assert validate_data_dir(str(tmp_path)) == str(tmp_path)
    assert validate_data_dir(tmp_path) == str(tmp_path)  # PathLike
    with pytest.raises(TypeError):
        validate_data_dir(123)
    with pytest.raises(ValueError):
        validate_data_dir("   ")
    file_path = tmp_path / "a_file"
    file_path.write_text("x")
    with pytest.raises(ValueError):
        validate_data_dir(str(file_path))


# ----------------------------------------------------------------------
# frame encode/decode
# ----------------------------------------------------------------------
def test_record_round_trip():
    frame = walmod.encode_record(7, "write", "INSERT INTO t (a) VALUES (1)")
    magic, length, crc = walmod.FRAME_HEADER.unpack_from(frame, 0)
    assert magic == walmod.FRAME_MAGIC
    payload = frame[walmod.FRAME_HEADER.size :]
    assert len(payload) == length
    seq, kind, sql = walmod.decode_payload(payload)
    assert (seq, kind, sql) == (7, "write", "INSERT INTO t (a) VALUES (1)")


def test_record_survives_unicode_sql():
    frame = walmod.encode_record(1, "write", "INSERT INTO t (s) VALUES ('héllo—✓')")
    _, _, sql = walmod.decode_payload(frame[walmod.FRAME_HEADER.size :])
    assert "héllo—✓" in sql


# ----------------------------------------------------------------------
# WriteAheadLog
# ----------------------------------------------------------------------
def test_append_and_scan(tmp_path):
    path = str(tmp_path / "wal-0000000000000001.log")
    log = WriteAheadLog(path, policy="fsync")
    for i in range(1, 6):
        log.append(i, "write", f"DELETE FROM t WHERE a = {i}")
    assert log.synced_offset == log.offset  # fsync policy: always synced
    log.close()
    records, end, torn = recovery.scan_segment(path, allow_torn=True)
    assert not torn
    assert end == os.path.getsize(path)
    assert [r.seq for r in records] == [1, 2, 3, 4, 5]


def test_off_policy_flushes_but_does_not_fsync(tmp_path):
    path = str(tmp_path / "wal-0000000000000001.log")
    log = WriteAheadLog(path, policy="off")
    log.append(1, "write", "DELETE FROM t")
    # flushed (visible to readers) but not fsynced (not crash-durable)
    assert os.path.getsize(path) == log.offset > 0
    assert log.synced_offset == 0
    log.sync()
    assert log.synced_offset == log.offset
    log.close()


def test_group_policy_piggybacks_fsync(tmp_path):
    path = str(tmp_path / "wal-0000000000000001.log")
    log = WriteAheadLog(path, policy="group", group_commit_s=0.0)
    log.append(1, "write", "DELETE FROM t")
    # interval 0: every append piggybacks a sync
    assert log.synced_offset == log.offset
    log.group_commit_s = 3600.0
    log.append(2, "write", "DELETE FROM t")
    assert log.synced_offset < log.offset
    log.close()  # close syncs
    assert log.synced_offset == log.offset


def test_closed_log_rejects_appends(tmp_path):
    log = WriteAheadLog(str(tmp_path / "w.log"))
    log.close()
    with pytest.raises(WALError):
        log.append(1, "write", "x")
    with pytest.raises(WALError):
        log.sync()


def test_failed_append_rolls_back_the_frame(tmp_path):
    """An injected crash at wal.append leaves the file exactly as it was."""
    path = str(tmp_path / "wal-0000000000000001.log")
    log = WriteAheadLog(path, policy="fsync")
    log.append(1, "write", "DELETE FROM t WHERE a = 1")
    pre_size = os.path.getsize(path)
    injector = FaultInjector(
        seed=1, rules={"wal.append": FaultRule(action="raise", max_fires=1)}
    )
    with inject(injector):
        with pytest.raises(Exception):
            log.append(2, "write", "DELETE FROM t WHERE a = 2")
    assert os.path.getsize(path) == pre_size
    # the log remains usable: the next append lands cleanly
    log.append(2, "write", "DELETE FROM t WHERE a = 2")
    log.close()
    records, _, torn = recovery.scan_segment(path, allow_torn=True)
    assert not torn and [r.seq for r in records] == [1, 2]


def test_failed_fsync_rolls_back_the_frame(tmp_path):
    """A crash between write and fsync of a record un-logs that record."""
    path = str(tmp_path / "wal-0000000000000001.log")
    log = WriteAheadLog(path, policy="fsync")
    log.append(1, "write", "DELETE FROM t WHERE a = 1")
    pre_size = os.path.getsize(path)
    injector = FaultInjector(
        seed=1, rules={"wal.fsync": FaultRule(action="raise", max_fires=1)}
    )
    with inject(injector):
        with pytest.raises(Exception):
            log.append(2, "write", "DELETE FROM t WHERE a = 2")
    assert os.path.getsize(path) == pre_size
    log.close()


def test_truncate_to_rolls_back_explicitly(tmp_path):
    path = str(tmp_path / "w.log")
    log = WriteAheadLog(path, policy="off")
    start = log.append(1, "write", "DELETE FROM t")
    log.truncate_to(start)
    assert os.path.getsize(path) == start == 0
    log.append(1, "write", "UPDATE t SET a = 1")
    log.close()
    records, _, _ = recovery.scan_segment(path, allow_torn=True)
    assert [r.sql for r in records] == ["UPDATE t SET a = 1"]


# ----------------------------------------------------------------------
# checkpoint snapshot round trip
# ----------------------------------------------------------------------
def _catalog():
    cat = Catalog()
    cat.register(
        Table.from_arrays(
            "events",
            {
                "eid": np.arange(20, dtype=np.int64),
                "val": np.linspace(0.0, 1.0, 20),
                "tag": np.array([f"s{i}" for i in range(20)], dtype=object),
            },
        )
    )
    metrics = Table.from_arrays(
        "metrics",
        {"mid": np.arange(12, dtype=np.int64), "v": np.arange(12) * 0.25},
    )
    cat.register(PartitionedTable.from_table(metrics, "mid", 3))
    return cat


def test_snapshot_round_trip_bit_identical():
    cat = _catalog()
    blob = walmod.snapshot_catalog(cat, seq=17)
    seq, manifest, arrays = walmod.load_snapshot(blob)
    assert seq == 17
    fresh = _catalog()
    # perturb the fresh catalog so restore has real work to do
    fresh.table("events").delete(np.arange(5, dtype=np.int64))
    fresh.table("metrics").partitions[0].modify(
        np.array([0], dtype=np.int64), {"v": np.array([99.0])}
    )
    walmod.restore_catalog(fresh, manifest, arrays)
    for name in ("events", "metrics"):
        orig, rest = cat.table(name), fresh.table(name)
        for po, pr in zip(orig.partitions, rest.partitions):
            assert po.num_rows == pr.num_rows
            for col in po.schema.names:
                a, b = po.column(col), pr.column(col)
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)


def test_restore_registers_missing_table():
    cat = _catalog()
    blob = walmod.snapshot_catalog(cat, seq=1)
    _, manifest, arrays = walmod.load_snapshot(blob)
    empty = Catalog()
    walmod.restore_catalog(empty, manifest, arrays)
    assert "events" in empty and "metrics" in empty
    assert empty.table("events").num_rows == 20
    assert type(empty.table("events")) is Table  # partition_key null: a plain table
    assert isinstance(empty.table("metrics"), PartitionedTable)
    assert len(empty.table("metrics").partitions) == 3


def test_restore_fires_update_hooks():
    """In-place restore goes through delete/insert so index-maintenance
    hooks observe it (a PatchIndex silently pointing at pre-crash state
    would be a corruption vector)."""
    cat = _catalog()
    blob = walmod.snapshot_catalog(cat, seq=1)
    _, manifest, arrays = walmod.load_snapshot(blob)
    fresh = _catalog()
    seen = []
    fresh.table("events").add_update_hook(lambda t, ev: seen.append(ev.kind))
    walmod.restore_catalog(fresh, manifest, arrays)
    assert "delete" in seen and "insert" in seen


def _reframed(manifest, arrays) -> bytes:
    buf = io.BytesIO()
    text = json.dumps(manifest).encode("utf-8")
    np.savez(buf, manifest=np.frombuffer(text, dtype=np.uint8), **arrays)
    payload = buf.getvalue()
    header = walmod.CHECKPOINT_HEADER.pack(len(payload), zlib.crc32(payload))
    return walmod.CHECKPOINT_MAGIC + header + payload


def test_older_checkpoint_format_is_refused_as_corrupt(tmp_path):
    _, manifest, arrays = walmod.load_snapshot(walmod.snapshot_catalog(_catalog(), seq=3))
    assert manifest["format"] == 2
    walmod.load_snapshot(_reframed(manifest, arrays))  # the reframing itself is sound
    manifest["format"] = 1
    blob = _reframed(manifest, arrays)
    with pytest.raises(ValueError, match="format"):
        walmod.load_snapshot(blob)
    path = tmp_path / "checkpoint-0000000000000003.ckpt"
    path.write_bytes(blob)
    with pytest.raises(recovery.CheckpointCorruptionError):
        recovery.load_checkpoint(str(path))


def test_load_snapshot_rejects_corruption():
    blob = walmod.snapshot_catalog(_catalog(), seq=3)
    flipped = bytearray(blob)
    flipped[len(flipped) // 2] ^= 0x40
    with pytest.raises(ValueError):
        walmod.load_snapshot(bytes(flipped))
    with pytest.raises(ValueError):
        walmod.load_snapshot(b"not a checkpoint")
    with pytest.raises(ValueError):
        walmod.load_snapshot(blob[:-3])  # truncated payload
