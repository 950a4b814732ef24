"""Corruption-matrix tests for crash recovery.

The satellite contract from the durability PR: a torn *final* frame is
truncated and recovery proceeds; a bit-flipped *mid-log* frame is a
typed startup refusal; an empty or missing WAL next to a valid
checkpoint recovers from the checkpoint alone; and a corrupt newest
checkpoint falls back to the previous one.
"""

import os

import numpy as np
import pytest

from repro.sql import SQLSession
from repro.storage import (
    Catalog,
    CheckpointCorruptionError,
    Table,
    WALCorruptionError,
)
from repro.storage import recovery, wal as walmod


def make_catalog():
    cat = Catalog()
    cat.register(
        Table.from_arrays(
            "t",
            {"a": np.arange(50, dtype=np.int64), "b": np.arange(50) * 0.5},
        )
    )
    return cat


def durable_session(tmp_path, **kwargs):
    return SQLSession(make_catalog(), data_dir=str(tmp_path), **kwargs)


def newest_segment(data_dir) -> str:
    return recovery.list_segments(str(data_dir))[-1][1]


def write_some(session, n=6):
    for i in range(n):
        session.execute(f"UPDATE t SET b = b + 1 WHERE a % {n + 1} = {i}")


# ----------------------------------------------------------------------
# torn tail: truncate and recover
# ----------------------------------------------------------------------
def test_torn_final_frame_truncates_and_recovers(tmp_path):
    s = durable_session(tmp_path)
    write_some(s)
    # simulate a crash mid-append: chop the last frame in half
    seg = newest_segment(tmp_path)
    size = os.path.getsize(seg)
    records, _, _ = recovery.scan_segment(seg, allow_torn=True)
    assert len(records) >= 2
    with open(seg, "r+b") as fh:
        fh.truncate(size - 5)
    # recover: the torn record is gone, every whole record replays
    s2 = durable_session(tmp_path)
    report = s2.durability.recovery_report
    assert report.truncated_bytes > 0
    # the torn tail was physically truncated at the last valid frame
    records2, _, torn = recovery.scan_segment(seg, allow_torn=True)
    assert not torn
    assert [r.seq for r in records2] == [r.seq for r in records[:-1]]

    # state equals serial replay of the surviving prefix
    oracle = SQLSession(make_catalog())
    for r in records2:
        oracle.execute(r.sql)
    np.testing.assert_array_equal(
        s2.catalog.table("t").column("b"), oracle.catalog.table("t").column("b")
    )
    s2.close()


def test_torn_short_header_truncates(tmp_path):
    s = durable_session(tmp_path)
    write_some(s, n=3)
    seg = newest_segment(tmp_path)
    with open(seg, "ab") as fh:
        fh.write(walmod.FRAME_MAGIC)  # 2 stray bytes: a torn frame start
    s2 = durable_session(tmp_path)
    assert s2.durability.recovery_report.truncated_bytes == 2
    s2.close()


# ----------------------------------------------------------------------
# mid-log corruption: typed refusal
# ----------------------------------------------------------------------
def _flip_byte(path, offset):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        b = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([b[0] ^ 0x10]))


def test_bit_flip_mid_log_refuses_startup(tmp_path):
    s = durable_session(tmp_path)
    write_some(s)
    seg = newest_segment(tmp_path)
    # flip a payload byte of the FIRST frame (mid-log: frames follow)
    _flip_byte(seg, walmod.FRAME_HEADER.size + 3)
    with pytest.raises(WALCorruptionError):
        durable_session(tmp_path)


def test_bad_magic_refuses_startup(tmp_path):
    s = durable_session(tmp_path)
    write_some(s)
    seg = newest_segment(tmp_path)
    _flip_byte(seg, 0)  # corrupt the first frame's magic
    with pytest.raises(WALCorruptionError):
        durable_session(tmp_path)


def test_corrupt_length_field_refuses_when_frames_follow(tmp_path):
    """A flipped length that swallows later valid frames must refuse,
    not silently truncate committed history."""
    s = durable_session(tmp_path)
    write_some(s)
    seg = newest_segment(tmp_path)
    # blow the first frame's length field sky-high (little-endian u32
    # right after the 2-byte magic): claims an extent far past EOF
    with open(seg, "r+b") as fh:
        fh.seek(len(walmod.FRAME_MAGIC))
        fh.write((2**30).to_bytes(4, "little"))
    with pytest.raises(WALCorruptionError):
        durable_session(tmp_path)


def test_sequence_gap_refuses_startup(tmp_path):
    s = durable_session(tmp_path)
    write_some(s, n=4)
    seg = newest_segment(tmp_path)
    records, _, _ = recovery.scan_segment(seg, allow_torn=True)
    # rewrite the segment with one record missing from the middle
    with open(seg, "wb") as fh:
        for r in records:
            if r.seq == records[1].seq:
                continue
            fh.write(walmod.encode_record(r.seq, r.kind, r.sql))
    with pytest.raises(WALCorruptionError):
        durable_session(tmp_path)


# ----------------------------------------------------------------------
# checkpoint-only and empty/missing WAL
# ----------------------------------------------------------------------
def test_checkpoint_only_recovery(tmp_path):
    s = durable_session(tmp_path)
    write_some(s)
    s.close()  # close checkpoints; WAL tail is empty
    expected = s.catalog.table("t").column("b").copy()
    s2 = durable_session(tmp_path)
    report = s2.durability.recovery_report
    assert report.records_replayed == 0
    assert report.checkpoint_path is not None
    np.testing.assert_array_equal(s2.catalog.table("t").column("b"), expected)
    s2.close()


def test_missing_wal_with_valid_checkpoint(tmp_path):
    s = durable_session(tmp_path)
    write_some(s)
    s.close()
    expected = s.catalog.table("t").column("b").copy()
    for _, seg in recovery.list_segments(str(tmp_path)):
        os.unlink(seg)  # the whole WAL vanishes; the checkpoint stands
    s2 = durable_session(tmp_path)
    np.testing.assert_array_equal(s2.catalog.table("t").column("b"), expected)
    s2.close()


def test_empty_wal_with_valid_checkpoint(tmp_path):
    s = durable_session(tmp_path)
    write_some(s)
    s.close()
    expected = s.catalog.table("t").column("b").copy()
    for _, seg in recovery.list_segments(str(tmp_path)):
        with open(seg, "r+b") as fh:
            fh.truncate(0)
    s2 = durable_session(tmp_path)
    np.testing.assert_array_equal(s2.catalog.table("t").column("b"), expected)
    s2.close()


def test_fresh_directory_initializes(tmp_path):
    s = durable_session(tmp_path / "new")
    report = s.durability.recovery_report
    assert report.initialized
    assert report.records_replayed == 0
    # an initial checkpoint of the seeded catalog was established
    assert recovery.list_checkpoints(str(tmp_path / "new"))
    s.close()


# ----------------------------------------------------------------------
# checkpoint corruption: fall back, or refuse when none is left
# ----------------------------------------------------------------------
def test_corrupt_newest_checkpoint_falls_back(tmp_path):
    s = durable_session(tmp_path)
    write_some(s)
    s.checkpoint()
    write_some(s, n=3)
    s.close()
    expected = s.catalog.table("t").column("b").copy()
    ckpts = recovery.list_checkpoints(str(tmp_path))
    assert len(ckpts) >= 2
    _flip_byte(ckpts[-1][1], os.path.getsize(ckpts[-1][1]) // 2)
    s2 = durable_session(tmp_path)
    report = s2.durability.recovery_report
    assert report.skipped_checkpoints == [ckpts[-1][1]]
    assert report.checkpoint_path == ckpts[-2][1]
    assert report.records_replayed > 0  # the longer tail replayed
    np.testing.assert_array_equal(s2.catalog.table("t").column("b"), expected)
    s2.close()


def test_all_checkpoints_corrupt_refuses(tmp_path):
    s = durable_session(tmp_path)
    write_some(s, n=2)
    s.close()
    for _, path in recovery.list_checkpoints(str(tmp_path)):
        _flip_byte(path, os.path.getsize(path) // 2)
    with pytest.raises(CheckpointCorruptionError):
        durable_session(tmp_path)


def test_leftover_tmp_checkpoint_is_ignored(tmp_path):
    s = durable_session(tmp_path)
    write_some(s, n=2)
    s.close()
    expected = s.catalog.table("t").column("b").copy()
    junk = tmp_path / "checkpoint-0000000000009999.ckpt.tmp"
    junk.write_bytes(b"half-written garbage")
    s2 = durable_session(tmp_path)
    np.testing.assert_array_equal(s2.catalog.table("t").column("b"), expected)
    s2.close()


# ----------------------------------------------------------------------
# rotation + retention
# ----------------------------------------------------------------------
def test_checkpoint_rotates_and_prunes(tmp_path):
    s = durable_session(tmp_path, checkpoint_retain=2)
    for round_ in range(5):
        write_some(s, n=2)
        s.checkpoint()
    ckpts = recovery.list_checkpoints(str(tmp_path))
    segments = recovery.list_segments(str(tmp_path))
    assert len(ckpts) == 2  # retention bound
    # every surviving segment is needed by the oldest retained
    # checkpoint (or is the active one)
    horizon = ckpts[0][0]
    for i, (start, _) in enumerate(segments[:-1]):
        assert segments[i + 1][0] > horizon + 1
    s.close()


@pytest.mark.parametrize(
    "bad,exc",
    [(0, ValueError), (-1, ValueError), (True, TypeError), (2.7, TypeError), ("3", TypeError)],
)
def test_checkpoint_retain_is_validated(tmp_path, bad, exc):
    with pytest.raises(exc, match="checkpoint_retain"):
        durable_session(tmp_path, checkpoint_retain=bad)
    with pytest.raises(exc, match="checkpoint_retain"):
        walmod.DurabilityManager(make_catalog(), str(tmp_path), checkpoint_retain=bad)


def test_large_retain_keeps_full_history(tmp_path):
    """The chaos oracle scans the full commit log from seq 1; a large
    checkpoint_retain must preserve every segment."""
    s = durable_session(tmp_path, checkpoint_retain=1000)
    for _ in range(3):
        write_some(s, n=2)
        s.checkpoint()
    records = recovery.read_records(str(tmp_path))
    assert [r.seq for r in records] == list(range(1, len(records) + 1))
    assert len(records) == 6
    s.close()
