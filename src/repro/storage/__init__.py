"""Column-store storage substrate.

The paper integrates PatchIndexes into Actian Vector; this package is our
stand-in substrate: in-memory, numpy-backed columns organized in tables
with positional rowIDs, written in place under updates unless a reader
holds the buffer (where the paper buffers them in PDTs [17]), minmax
summaries (small materialized aggregates [22]) for range propagation,
and a catalog tying it together.
"""

from repro.storage.column import ColumnType
from repro.storage.minmax import MinMaxIndex
from repro.storage.table import Field, Schema, Table, UpdateEvent
from repro.storage.partition import PartitionedTable
from repro.storage.catalog import Catalog
from repro.storage.wal import (
    WAL_SYNC_POLICIES,
    DurabilityManager,
    WALError,
    WriteAheadLog,
    validate_data_dir,
    validate_wal_sync,
)
from repro.storage.recovery import (
    CheckpointCorruptionError,
    RecoveryError,
    RecoveryReport,
    WALCorruptionError,
)

__all__ = [
    "ColumnType",
    "MinMaxIndex",
    "UpdateEvent",
    "Field",
    "Schema",
    "Table",
    "PartitionedTable",
    "Catalog",
    "WAL_SYNC_POLICIES",
    "DurabilityManager",
    "WALError",
    "WriteAheadLog",
    "validate_data_dir",
    "validate_wal_sync",
    "CheckpointCorruptionError",
    "RecoveryError",
    "RecoveryReport",
    "WALCorruptionError",
]
