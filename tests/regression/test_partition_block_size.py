"""Partitioning a table keeps its minmax block size.

``PartitionedTable.from_table`` built its partitions with the default
summary block size (4 096 rows), whatever block size the source table
had, so a table summarised in 8-row blocks became one summarised in
blocks larger than each partition, and a scan of it could prune nothing.
"""

import numpy as np

from repro.engine.expressions import col
from repro.engine.operators import Scan
from repro.storage import PartitionedTable, Table

BLOCK = 8


def test_partitions_keep_the_source_block_size():
    k = np.arange(64, dtype=np.int64)
    table = Table.from_arrays("t", {"k": k, "v": k % 5}, minmax_block_size=BLOCK)
    parts = PartitionedTable.from_table(table, "k", 2)
    assert [p.minmax("k").num_blocks for p in parts.partitions] == [4, 4]
    # key 41 is row 9 of the second partition: one 8-row block holds it
    assert parts.partitions[1].minmax("k").row_ranges_in_range(41, 41) == [(8, 16)]
    assert Scan(parts, ["k", "v"], col("k") == 41).execute().to_rows() == [(41, 1)]
