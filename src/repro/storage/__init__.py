"""Column-store storage substrate.

The paper integrates PatchIndexes into Actian Vector; this package is our
stand-in substrate: in-memory, numpy-backed columns organized in tables
with positional rowIDs, positional delta structures for updates (the
paper's PDT [17]), minmax summaries (small materialized aggregates [22])
for scan pruning and range propagation, and a catalog tying it together.
"""

from repro.storage.column import ColumnType
from repro.storage.minmax import MinMaxIndex
from repro.storage.pdt import PositionalDelta, UpdateEvent
from repro.storage.table import Field, Schema, Table
from repro.storage.partition import PartitionedTable
from repro.storage.catalog import Catalog
from repro.storage.wal import (
    WAL_SYNC_POLICIES,
    DurabilityManager,
    WALError,
    WriteAheadLog,
    validate_checkpoint_interval,
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
    "PositionalDelta",
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
    "validate_checkpoint_interval",
    "validate_data_dir",
    "validate_wal_sync",
    "CheckpointCorruptionError",
    "RecoveryError",
    "RecoveryReport",
    "WALCorruptionError",
]
