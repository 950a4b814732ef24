"""Write-ahead logging and checkpointing: the durability subsystem.

Everything above this module is in-memory: tables and their
PatchIndexes.  A :class:`DurabilityManager` attached to a SQL session
makes the *committed statement log* survive a process crash:

* Every committed write statement (INSERT / UPDATE / DELETE) is
  appended to an append-only, CRC32-framed **write-ahead log** in
  commit-sequence order *before* its table mutation is applied.  The
  session's writer discipline already serializes commits, so the WAL
  append slots in at the commit point without new locking.
* A **checkpoint** snapshots every table's current image as its
  partition list (a plain table is a list of one: all column arrays
  plus schema and partition layout) into a single CRC-framed file,
  after which the log is rotated and old segments pruned.  Checkpoints
  fire every ``checkpoint_interval`` commits, on graceful close, and on
  demand.
* **Recovery** (:mod:`repro.storage.recovery`) loads the newest valid
  checkpoint, replays the WAL tail through the session's own
  ``prepare``/``run_prepared`` path — so replay is bit-identical to the
  chaos suite's serial-replay oracle — truncates a torn tail at the
  last valid frame, and refuses startup on mid-log corruption.

Sync policy (``wal_sync``) trades latency for durability:

``fsync``
    ``os.fsync`` after every commit before it is acknowledged: an acked
    write survives power loss.
``group``
    Flush per commit, fsync at most every ``group_commit_s`` seconds
    (piggybacked on the next commit): bounded data loss under power
    loss, none under clean process death.
``off``
    Flush per commit only: survives process death (the OS keeps the
    page cache), not power loss before the next checkpoint/close.

Wire format
-----------
A WAL record frame is ``magic(2) | payload_len(u32 LE) | crc32(u32 LE)
| payload`` where the CRC covers the payload and the payload is compact
JSON ``{"seq": n, "kind": "write"|"set", "sql": "..."}``.  A checkpoint
file is ``magic(5) | payload_len(u64 LE) | crc32(u32 LE) | payload``
where the payload is an ``.npz`` archive of every column array plus a
JSON manifest.  Torn-tail and corruption semantics live with the reader
in :mod:`repro.storage.recovery`.

Fault injection points (see :mod:`repro.testing.faults`):
``wal.append`` (before a frame is written), ``wal.fsync`` (before
``os.fsync``) and ``checkpoint.write`` (before a finished checkpoint is
atomically renamed into place).
"""

from __future__ import annotations

import io
import json
import os
import struct
import time
import zlib
from typing import Dict, Optional, Tuple

import numpy as np

from repro.engine.interrupt import validate_optional_positive_int, validate_positive_int
from repro.storage.catalog import Catalog
from repro.storage.column import ColumnType
from repro.storage.partition import PartitionedTable
from repro.storage.table import Field, Schema, Table
from repro.testing import faults

__all__ = [
    "WAL_SYNC_POLICIES",
    "WALError",
    "WriteAheadLog",
    "DurabilityManager",
    "encode_record",
    "decode_payload",
    "snapshot_catalog",
    "load_snapshot",
    "restore_catalog",
    "validate_wal_sync",
    "validate_data_dir",
    "checkpoint_name",
    "segment_name",
]

#: Accepted ``wal_sync`` policies, weakest to strongest.
WAL_SYNC_POLICIES = ("off", "group", "fsync")

#: Frame magic for WAL records; a torn append preserves it (a torn tail
#: is a prefix of one valid frame), so a wrong magic mid-file is
#: corruption, never tearing.
FRAME_MAGIC = b"\xaaW"
FRAME_HEADER = struct.Struct("<2sII")  # magic, payload length, payload crc32

#: Checkpoint container magic + header (payload length u64, crc32 u32).
CHECKPOINT_MAGIC = b"CKPT\x01"
CHECKPOINT_HEADER = struct.Struct("<QI")
#: Manifest format: 2 writes every table as its partition list.
CHECKPOINT_FORMAT = 2

#: Default seconds between piggybacked fsyncs under ``wal_sync=group``.
DEFAULT_GROUP_COMMIT_S = 0.05

_SEQ_DIGITS = 16


class WALError(RuntimeError):
    """A durability-layer failure (append, sync, or checkpoint)."""


def validate_wal_sync(value: object, name: str = "wal_sync") -> str:
    """Validate a WAL sync-policy knob (``off`` / ``group`` / ``fsync``).

    The validator of the ``wal_sync`` entry of
    :data:`repro.sql.session.SETTINGS` and of the
    :class:`DurabilityManager` constructor; anything but one of the enum
    strings raises.
    """
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, got {value!r}")
    policy = value.lower()
    if policy not in WAL_SYNC_POLICIES:
        raise ValueError(
            f"unknown {name} policy {value!r}; "
            f"expected one of {', '.join(WAL_SYNC_POLICIES)}"
        )
    return policy


def validate_data_dir(value: object, name: str = "data_dir") -> str:
    """Validate a data-directory knob, returning it as a plain string.

    Accepts a non-empty ``str`` / ``os.PathLike``; rejects a path that
    exists but is not a directory.  The directory itself is created on
    demand by the :class:`DurabilityManager`.
    """
    if isinstance(value, os.PathLike):
        value = os.fspath(value)
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a path string, got {value!r}")
    if not value.strip():
        raise ValueError(f"{name} must be a non-empty path")
    if os.path.exists(value) and not os.path.isdir(value):
        raise ValueError(f"{name} {value!r} exists and is not a directory")
    return value


def segment_name(first_seq: int) -> str:
    """File name of the WAL segment whose first record is ``first_seq``."""
    return f"wal-{first_seq:0{_SEQ_DIGITS}d}.log"


def checkpoint_name(seq: int) -> str:
    """File name of the checkpoint taken at commit sequence ``seq``."""
    return f"checkpoint-{seq:0{_SEQ_DIGITS}d}.ckpt"


def encode_record(seq: int, kind: str, sql: str) -> bytes:
    """One CRC32-framed WAL record (see the module docstring format)."""
    payload = json.dumps(
        {"seq": int(seq), "kind": kind, "sql": sql}, separators=(",", ":")
    ).encode("utf-8")
    header = FRAME_HEADER.pack(FRAME_MAGIC, len(payload), zlib.crc32(payload))
    return header + payload


def decode_payload(payload: bytes) -> Tuple[int, str, str]:
    """Decode a record payload into ``(seq, kind, sql)``."""
    doc = json.loads(payload.decode("utf-8"))
    return int(doc["seq"]), str(doc["kind"]), str(doc["sql"])


class WriteAheadLog:
    """One append-only WAL segment file with a sync policy.

    Not thread-safe by itself: the session's writer discipline already
    guarantees one committing statement at a time, which is the only
    caller.  ``synced_offset`` tracks the byte offset known durable
    (the power-loss simulation point the chaos suite truncates to).
    """

    def __init__(
        self,
        path: str,
        policy: str = "fsync",
        group_commit_s: float = DEFAULT_GROUP_COMMIT_S,
    ) -> None:
        self.path = path
        self.policy = validate_wal_sync(policy)
        self.group_commit_s = float(group_commit_s)
        self._fh = open(path, "ab")
        self._offset = self._fh.tell()
        #: bytes present at open already survived whatever came before
        self._synced_offset = self._offset
        self._last_sync = time.monotonic()
        self._poisoned = False
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def offset(self) -> int:
        """Bytes appended (and flushed) so far."""
        return self._offset

    @property
    def synced_offset(self) -> int:
        """Bytes known fsync-durable (<= :attr:`offset`)."""
        return self._synced_offset

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    def append(self, seq: int, kind: str, sql: str) -> int:
        """Append one record and apply the sync policy; returns the
        byte offset the record starts at.

        On any failure mid-append (including an injected fault or a
        failed fsync of this record) the file is rolled back to the
        pre-append offset, so the log never carries a frame for a
        statement that was not acknowledged as logged — a half-written
        frame can only come from a real crash, where it is a torn tail
        for recovery to truncate.
        """
        if self._closed:
            raise WALError("write-ahead log is closed")
        if self._poisoned:
            raise WALError(
                "write-ahead log is poisoned by an earlier append failure "
                "that could not be rolled back"
            )
        data = encode_record(seq, kind, sql)
        pre = self._offset
        try:
            if faults.ACTIVE:
                faults.fire("wal.append")
            self._fh.write(data)
            self._fh.flush()
            self._offset = pre + len(data)
            if self.policy == "fsync":
                self.sync()
            elif self.policy == "group":
                if time.monotonic() - self._last_sync >= self.group_commit_s:
                    self.sync()
        except BaseException:
            self._rollback(pre)
            raise
        return pre

    def sync(self) -> None:
        """Force appended records to stable storage (``os.fsync``)."""
        if self._closed:
            raise WALError("write-ahead log is closed")
        if faults.ACTIVE:
            faults.fire("wal.fsync")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._synced_offset = self._offset
        self._last_sync = time.monotonic()

    def truncate_to(self, offset: int) -> None:
        """Roll the log back to ``offset`` (statement-abort path)."""
        self._rollback(offset)
        if self._poisoned:
            raise WALError(f"could not roll the write-ahead log back to {offset}")

    def _rollback(self, offset: int) -> None:
        """Best-effort restore of the pre-append state; poison on failure."""
        try:
            self._fh.close()
        except OSError:
            pass
        try:
            with open(self.path, "r+b") as fh:
                fh.truncate(offset)
            self._fh = open(self.path, "ab")
            self._offset = offset
            self._synced_offset = min(self._synced_offset, offset)
        except OSError:
            self._poisoned = True

    def close(self, sync: bool = True) -> None:
        """Flush (and by default fsync) then close the segment."""
        if self._closed:
            return
        self._closed = True
        try:
            self._fh.flush()
            if sync and not self._poisoned:
                os.fsync(self._fh.fileno())
                self._synced_offset = self._offset
        except OSError:
            pass
        finally:
            try:
                self._fh.close()
            except OSError:
                pass


# ----------------------------------------------------------------------
# checkpoint serialization
# ----------------------------------------------------------------------
def snapshot_catalog(catalog: Catalog, seq: int) -> bytes:
    """Serialize every table image into one CRC-framed checkpoint blob.

    The payload is an ``.npz`` archive: a JSON manifest (uint8 array)
    naming each table's schema and partition layout, plus one entry per
    partition's column array.  Every table is written as its partition
    list; a plain table is a list of one with ``partition_key`` null.
    Arrays round-trip bit-exactly, string columns included, so a
    restored image is bit-identical to the snapshotted one.
    """
    manifest: Dict[str, object] = {"format": CHECKPOINT_FORMAT, "seq": int(seq), "tables": []}
    arrays: Dict[str, np.ndarray] = {}
    for table in catalog:
        parts = table.partitions
        manifest["tables"].append(
            {
                "name": table.name,
                "schema": [[f.name, f.type.value] for f in table.schema.fields],
                "partition_key": table.partition_key,
                "upper_bounds": [
                    b.item() if hasattr(b, "item") else b for b in table.upper_bounds
                ],
                "num_partitions": len(parts),
            }
        )
        for i, part in enumerate(parts):
            for col in table.schema.names:
                arrays[f"p::{table.name}::{i}::{col}"] = part.column(col)
    buf = io.BytesIO()
    manifest_bytes = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    np.savez(
        buf,
        manifest=np.frombuffer(manifest_bytes, dtype=np.uint8),
        **arrays,
    )
    payload = buf.getvalue()
    header = CHECKPOINT_HEADER.pack(len(payload), zlib.crc32(payload))
    return CHECKPOINT_MAGIC + header + payload


def load_snapshot(data: bytes) -> Tuple[int, Dict, Dict[str, np.ndarray]]:
    """Parse checkpoint bytes into ``(seq, manifest, arrays)``.

    Raises :class:`ValueError` on any framing/CRC mismatch or a manifest
    format other than :data:`CHECKPOINT_FORMAT`; callers (recovery) map
    that onto the typed checkpoint-corruption error and fall back to the
    previous checkpoint.
    """
    head_len = len(CHECKPOINT_MAGIC) + CHECKPOINT_HEADER.size
    if len(data) < head_len or data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint file (bad magic)")
    length, crc = CHECKPOINT_HEADER.unpack_from(data, len(CHECKPOINT_MAGIC))
    payload = data[head_len : head_len + length]
    if len(payload) != length or len(data) != head_len + length:
        raise ValueError("checkpoint payload truncated or trailing garbage")
    if zlib.crc32(payload) != crc:
        raise ValueError("checkpoint CRC mismatch")
    with np.load(io.BytesIO(payload), allow_pickle=True) as npz:
        arrays = {k: npz[k] for k in npz.files}
    manifest = json.loads(bytes(arrays.pop("manifest")).decode("utf-8"))
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format {manifest.get('format')!r}")
    return int(manifest["seq"]), manifest, arrays


def _schema_from_manifest(entry: Dict) -> Schema:
    return Schema([Field(name, ColumnType(tval)) for name, tval in entry["schema"]])


def _restore_image(table: Table, columns: Dict[str, np.ndarray]) -> None:
    """Overwrite ``table``'s image in place via delete-all + insert.

    Going through the public update statements keeps every registered
    update hook (PatchIndexes, SortKeys, matviews) consistent with the
    restored image instead of silently pointing at pre-crash state.
    """
    if table.num_rows:
        table.delete(table.rowids())
    num_rows = len(next(iter(columns.values()))) if columns else 0
    if num_rows:
        table.insert(columns)


def restore_catalog(catalog: Catalog, manifest: Dict, arrays: Dict[str, np.ndarray]) -> None:
    """Load a checkpoint image into a catalog.

    A registered table with the matching schema and partition layout is
    restored *in place*, one partition image at a time (update hooks
    fire, so attached index structures stay consistent); a missing
    table — or one whose schema/layout diverged — is rebuilt from the
    snapshot and re-registered, dropping stale structures.
    """
    for entry in manifest["tables"]:
        name, key = entry["name"], entry["partition_key"]
        schema = _schema_from_manifest(entry)
        part_cols = [
            {col: arrays[f"p::{name}::{i}::{col}"] for col in schema.names}
            for i in range(entry["num_partitions"])
        ]
        existing = catalog.table(name) if name in catalog else None
        if (
            existing is not None
            and existing.schema == schema
            and existing.partition_key == key
            and len(existing.partitions) == len(part_cols)
        ):
            for part, cols in zip(existing.partitions, part_cols):
                _restore_image(part, cols)
            continue
        catalog.drop(name)
        if key is None:
            catalog.register(Table(name, schema, part_cols[0]))
        else:
            shared: dict = {}  # the partitions share each STRING column's dictionary
            parts = [
                Table(f"{name}#{i}", schema, cols, dictionaries=shared)
                for i, cols in enumerate(part_cols)
            ]
            catalog.register(PartitionedTable(name, parts, key, entry["upper_bounds"]))


class DurabilityManager:
    """Owns a data directory: WAL segments plus checkpoint files.

    Created by a SQL session when ``data_dir`` is configured; the
    session calls :meth:`recover` once at construction (restore newest
    valid checkpoint, replay the WAL tail through itself, open the log
    for append) and then :meth:`log_write` at every commit point.

    Parameters
    ----------
    catalog:
        The catalog whose tables are checkpointed and restored.
    data_dir:
        Directory for WAL segments and checkpoints (created on demand).
    wal_sync:
        Sync policy, see :data:`WAL_SYNC_POLICIES`.
    checkpoint_interval:
        Commits between automatic checkpoints (``None``, ``off`` or
        ``none`` disables; the close-time checkpoint still runs).  The
        automatic checkpoint fires at the *start* of the commit that
        crosses the interval, before that commit is logged, so a failed
        checkpoint can never leave a committed-but-uncheckpointed
        statement half-recorded.
    checkpoint_retain:
        Checkpoints kept on disk (a positive integer).  WAL segments
        are pruned only once no retained checkpoint needs them, so
        recovery can always fall back to an older checkpoint plus a
        longer replay.
    """

    def __init__(
        self,
        catalog: Catalog,
        data_dir: str,
        wal_sync: str = "fsync",
        checkpoint_interval: Optional[int] = None,
        checkpoint_retain: int = 2,
    ) -> None:
        self.catalog = catalog
        self.data_dir = validate_data_dir(data_dir)
        self._wal_sync = validate_wal_sync(wal_sync)
        #: Commits between automatic checkpoints (None = disabled).
        self.checkpoint_interval = validate_optional_positive_int(
            checkpoint_interval, "checkpoint_interval"
        )
        self.checkpoint_retain = validate_positive_int(checkpoint_retain, "checkpoint_retain")
        os.makedirs(self.data_dir, exist_ok=True)
        self.wal: Optional[WriteAheadLog] = None
        self._last_seq = 0
        self._last_record_offset = 0
        self._writes_since_checkpoint = 0
        self._checkpoints_written = 0
        self._replaying = False
        self._closed = False
        self.recovery_report = None

    # ------------------------------------------------------------------
    # knobs
    # ------------------------------------------------------------------
    @property
    def wal_sync(self) -> str:
        """Current sync policy; a new one applies from the next append.

        The setter takes a policy :func:`validate_wal_sync` returned.
        """
        return self._wal_sync

    @wal_sync.setter
    def wal_sync(self, policy: str) -> None:
        self._wal_sync = policy
        if self.wal is not None:
            self.wal.policy = policy

    @property
    def checkpoints_written(self) -> int:
        """Checkpoints taken by this manager instance."""
        return self._checkpoints_written

    # ------------------------------------------------------------------
    # recovery + lifecycle
    # ------------------------------------------------------------------
    def recover(self, session) -> "object":
        """Restore the data directory into ``session`` and arm logging.

        Delegates the read side (checkpoint choice, WAL scan, torn-tail
        truncation, corruption refusal, replay) to
        :mod:`repro.storage.recovery`, then opens the newest segment for
        append and — when the directory held no checkpoint — seeds it
        with an initial checkpoint of the session's current catalog.
        """
        from repro.storage import recovery

        self._replaying = True
        try:
            report = recovery.run_recovery(self, session)
        finally:
            self._replaying = False
        self._last_seq = report.last_seq
        self._open_wal_for_append()
        if report.checkpoint_path is None:
            # fresh directory (or WAL-only): establish the base image
            self.checkpoint()
        self.recovery_report = report
        return report

    def _open_wal_for_append(self) -> None:
        from repro.storage import recovery

        segments = recovery.list_segments(self.data_dir)
        if segments:
            path = segments[-1][1]
        else:
            path = os.path.join(self.data_dir, segment_name(self._last_seq + 1))
        self.wal = WriteAheadLog(path, policy=self._wal_sync)

    def close(self, checkpoint: bool = True) -> None:
        """Flush, optionally checkpoint, and release the directory.

        The graceful-shutdown path: the server drain calls through the
        session's ``close()``, so a clean stop always leaves a synced
        log — and, by default, a fresh checkpoint when any commit
        happened since the last one.
        """
        if self._closed:
            return
        if self.wal is not None and not self.wal.closed:
            try:
                self.wal.sync()
            except (OSError, faults.InjectedFaultError):
                pass
            if checkpoint and self._writes_since_checkpoint > 0:
                self.checkpoint()
            self.wal.close()
        self._closed = True

    # ------------------------------------------------------------------
    # the commit path
    # ------------------------------------------------------------------
    def log_write(self, sql: str) -> Optional[int]:
        """Log one committed write statement; returns its sequence.

        Called by the session at the commit point — after the last
        interruption window, immediately before the atomic table
        mutation — so a logged record implies the mutation applies
        unless the process dies first (in which case replay applies
        it).  No-op (returns None) while recovery is replaying.
        """
        return self._log("write", sql)

    def log_set(self, sql: str) -> Optional[int]:
        """Log a replay-relevant SET statement (durability knobs)."""
        return self._log("set", sql)

    def _log(self, kind: str, sql: str) -> Optional[int]:
        if self._replaying:
            return None
        if self._closed or self.wal is None:
            raise WALError("durability manager is closed")
        if not sql:
            raise WALError(
                "cannot log a statement without SQL text; prepared statements "
                "must carry their source on a durable session"
            )
        if (
            kind == "write"
            and self.checkpoint_interval is not None
            and self._writes_since_checkpoint >= self.checkpoint_interval
        ):
            # checkpoint *before* logging the crossing commit: a failed
            # checkpoint aborts the statement before it is logged or
            # applied, so log and tables never diverge
            self.checkpoint()
        seq = self._last_seq + 1
        self._last_record_offset = self.wal.append(seq, kind, sql)
        self._last_seq = seq
        if kind == "write":
            self._writes_since_checkpoint += 1
        return seq

    def rollback_record(self, seq: int) -> None:
        """Un-log the newest record (mutation failed after logging).

        Only the record just returned by :meth:`log_write` can be
        rolled back; the session calls this when the table mutation
        itself raises, so the log never claims a commit that did not
        apply.
        """
        if seq != self._last_seq or self.wal is None:
            raise WALError(f"cannot roll back record {seq}; last is {self._last_seq}")
        self.wal.truncate_to(self._last_record_offset)
        self._last_seq -= 1
        self._writes_since_checkpoint = max(0, self._writes_since_checkpoint - 1)

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self) -> str:
        """Snapshot the catalog, rotate the WAL, prune old state.

        Write-temp → fsync → atomic rename, so a crash mid-checkpoint
        leaves the previous checkpoint (and the un-rotated log) fully
        usable; only after the rename does the log rotate and pruning
        delete checkpoints/segments no retained checkpoint needs.
        Returns the checkpoint file path.
        """
        if self._closed:
            raise WALError("durability manager is closed")
        data = snapshot_catalog(self.catalog, self._last_seq)
        final = os.path.join(self.data_dir, checkpoint_name(self._last_seq))
        tmp = final + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        if faults.ACTIVE:
            try:
                faults.fire("checkpoint.write")
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        os.replace(tmp, final)
        self._sync_dir()
        self._rotate_wal()
        self._prune()
        self._writes_since_checkpoint = 0
        self._checkpoints_written += 1
        return final

    def _rotate_wal(self) -> None:
        if self.wal is not None:
            self.wal.close()
        path = os.path.join(self.data_dir, segment_name(self._last_seq + 1))
        self.wal = WriteAheadLog(path, policy=self._wal_sync)
        self._sync_dir()

    def _prune(self) -> None:
        """Drop checkpoints beyond the retention bound, then every WAL
        segment whose records are all covered by the oldest retained
        checkpoint."""
        from repro.storage import recovery

        ckpts = recovery.list_checkpoints(self.data_dir)
        if len(ckpts) > self.checkpoint_retain:
            for _, path in ckpts[: -self.checkpoint_retain]:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            ckpts = ckpts[-self.checkpoint_retain :]
        if not ckpts:
            return
        horizon = ckpts[0][0]  # oldest retained checkpoint's sequence
        segments = recovery.list_segments(self.data_dir)
        for i, (start, path) in enumerate(segments[:-1]):  # never the active one
            next_start = segments[i + 1][0]
            if next_start <= horizon + 1:
                # every record in [start, next_start) is <= horizon
                try:
                    os.unlink(path)
                except OSError:
                    pass

    def _sync_dir(self) -> None:
        """fsync the directory so renames/creates survive power loss."""
        try:
            fd = os.open(self.data_dir, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DurabilityManager({self.data_dir!r}, wal_sync={self._wal_sync}, "
            f"last_seq={self._last_seq}, "
            f"checkpoints={self._checkpoints_written})"
        )
