"""DML on partitioned tables: global rowids route to the partitions.

``SQLSession`` UPDATE/DELETE used to address plain tables only — on a
:class:`PartitionedTable` the write step raised.  Matched global rowids
now route through ``PartitionedTable.modify`` / ``delete``, which take
table-global rowids as ``Table``'s do, and the result must be equivalent to (a) the same
statements on an unpartitioned copy of the data and (b) per-partition
DML applied by hand — for one partition, a pair and eight.
"""

import numpy as np
import pytest

from repro.sql.session import SQLSession
from repro.storage import Catalog, PartitionedTable, Table

N = 20_000
PARTS = 5


def make_rows(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    # rows arrive sorted on the partition key, so the partitioned
    # table's global (partition-major) order equals the plain table's
    return {
        "pk": np.arange(N, dtype=np.int64),
        "grp": rng.integers(0, 60, N).astype(np.int64),
        "val": rng.random(N),
    }


def plain_catalog(seed: int = 0) -> Catalog:
    catalog = Catalog()
    catalog.register(Table.from_arrays("events", make_rows(seed)))
    return catalog


def partitioned_catalog(seed: int = 0, parts: int = PARTS) -> Catalog:
    table = Table.from_arrays("events", make_rows(seed))
    catalog = Catalog()
    catalog.register(PartitionedTable.from_table(table, "pk", parts))
    return catalog


STATEMENTS = [
    "UPDATE events SET val = val * 2 WHERE grp < 20",
    "DELETE FROM events WHERE grp % 7 = 3",
    "UPDATE events SET grp = grp + 1, val = val / 2 WHERE val > 0.8",
    "DELETE FROM events WHERE val < 0.03",
]


def assert_images_identical(a, b) -> None:
    assert a.num_rows == b.num_rows
    for name in a.schema.names:
        x, y = a.column(name), b.column(name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)


class TestPartitionedDMLEquivalence:
    @pytest.mark.parametrize("parts", [1, 2, 8])
    def test_matches_plain_table_dml(self, parts):
        plain = SQLSession(plain_catalog(seed=1))
        parted = SQLSession(partitioned_catalog(seed=1, parts=parts))
        for sql in STATEMENTS:
            assert plain.execute(sql) == parted.execute(sql), sql
            assert_images_identical(plain.catalog.table("events"), parted.catalog.table("events"))

    def test_matches_per_partition_serial_dml(self):
        """Equivalence against DML applied partition by partition."""
        session = SQLSession(partitioned_catalog(seed=2))
        reference = partitioned_catalog(seed=2).table("events")
        for sql in STATEMENTS:
            # hand-apply the statement per partition (partition-local
            # rowids, no global routing involved): each partition poses
            # as the "events" table of its own serial session
            for part in reference.partitions:
                original_name = part.name
                part.name = "events"
                try:
                    count = SQLSession(_catalog_of(part)).execute(sql)
                    assert count >= 0
                finally:
                    part.name = original_name
            session.execute(sql)
        assert_images_identical(session.catalog.table("events"), reference)

    def test_delete_spanning_partition_boundaries(self):
        with SQLSession(partitioned_catalog(seed=3)) as s:
            table = s.catalog.table("events")
            before = table.num_rows
            # a key-range predicate straddling several partition bounds
            deleted = s.execute("DELETE FROM events WHERE pk >= 3990 AND pk < 12010")
            assert deleted == 12010 - 3990
            assert table.num_rows == before - deleted
            np.testing.assert_array_equal(
                table.column("pk"),
                np.concatenate([np.arange(3990), np.arange(12010, N)]),
            )

    def test_update_all_rows_without_predicate(self):
        with SQLSession(partitioned_catalog(seed=4)) as s:
            count = s.execute("UPDATE events SET val = 0")
            assert count == N
            assert np.all(s.catalog.table("events").column("val") == 0.0)

    def test_partitioned_rowids(self):
        table = partitioned_catalog(seed=5).table("events")
        rowids = table.rowids()
        assert rowids.dtype == np.int64
        np.testing.assert_array_equal(rowids, np.arange(N))


def _catalog_of(part: Table) -> Catalog:
    catalog = Catalog()
    catalog.register(part)
    return catalog
