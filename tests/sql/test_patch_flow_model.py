"""Model test: PatchIndex read plans under random DML (ROADMAP item 6, a slice).

One table carries a NUC index on ``u`` and an NSC index on ``s``.  A
seeded random sequence of INSERT / UPDATE / DELETE statements runs
through the index session; after every statement both indexes must pass
``verify()`` and the Fig. 7 reads — ``ORDER BY s``, ``ORDER BY s LIMIT
n``, ``SELECT DISTINCT u`` and a predicate-carrying variant of each —
must answer through the index session (positional PatchScan plans)
exactly as through a plain session over the same tables that never sees
the indexes.

The model runs on three table shapes: a plain table, the same table as
a one-partition ``PartitionedTable`` and a three-partition one.  A
plain table is its own one-partition list, so the one-partition leg
must also answer, patch and verify exactly as the plain leg does.

Found while writing this test and pinned at the bottom: on a table with
more than one partition the NUC indexes are partition-local, so the
distinct rewrite returns a value once per partition it is unique in.
The three-partition runs therefore leave the DISTINCT reads out.
"""

import numpy as np
import pytest

from repro.core import NearlySortedColumn, NearlyUniqueColumn, PatchIndexManager
from repro.sql import SQLSession
from repro.storage import Catalog, PartitionedTable, Table

ROWS = 400
STATEMENTS = 30

READS = [
    "SELECT s, p0 FROM facts ORDER BY s",
    "SELECT s, p0 FROM facts WHERE g < 6 ORDER BY s",
    "SELECT s FROM facts ORDER BY s LIMIT 9",
    "SELECT s FROM facts WHERE g >= 3 ORDER BY s LIMIT 9",
    "SELECT DISTINCT u FROM facts",
    "SELECT DISTINCT u FROM facts WHERE g < 6",
]


def start_columns(rng):
    k = np.arange(ROWS, dtype=np.int64)
    u = k + 10_000
    dup = rng.choice(ROWS, 30, replace=False)
    u[dup] = rng.integers(0, 8, 30)
    s = 4 * k
    s[rng.choice(ROWS, 30, replace=False)] = rng.integers(0, 4 * ROWS, 30)
    g, p0 = rng.integers(0, 10, ROWS), rng.integers(0, 1000, ROWS)
    return {"k": k, "u": u, "s": s, "g": g, "p0": p0}


class Model:
    """The table, its two sessions and the random statement source."""

    def __init__(self, seed: int, design: str, partitions: int) -> None:
        """``partitions`` 0 keeps the plain table."""
        self.rng = np.random.default_rng(seed)
        table = Table.from_arrays("facts", start_columns(self.rng))
        if partitions:
            table = PartitionedTable.from_table(table, "k", partitions)
        self.table = table
        self.reads = [q for q in READS if partitions <= 1 or "DISTINCT" not in q]
        catalog = Catalog()
        catalog.register(table)
        manager = PatchIndexManager(catalog)
        self.indexes = [
            manager.create(table, "u", NearlyUniqueColumn(), design=design),
            manager.create(table, "s", NearlySortedColumn(), design=design),
        ]
        self.indexed = SQLSession(catalog, index_manager=manager)
        self.plain = SQLSession(catalog)
        self.next_k = ROWS

    def random_statement(self) -> str:
        rng = self.rng
        kind = rng.choice(["insert", "update", "delete"], p=[0.4, 0.35, 0.25])
        if kind == "insert":
            rows = []
            for _ in range(int(rng.integers(1, 12))):
                k, self.next_k = self.next_k, self.next_k + 1
                # a fifth of the new rows repeat a value / fall out of order
                u = int(rng.integers(0, 8)) if rng.random() < 0.2 else 10_000 + k
                s = int(rng.integers(0, 4 * k)) if rng.random() < 0.2 else 4 * k
                g, p0 = int(rng.integers(0, 10)), int(rng.integers(0, 1000))
                rows.append(f"({k},{u},{s},{g},{p0})")
            return "INSERT INTO facts (k,u,s,g,p0) VALUES " + ",".join(rows)
        lo = int(rng.integers(0, self.next_k))
        where = f"WHERE k >= {lo} AND k < {lo + int(rng.integers(1, 25))}"
        if kind == "delete":
            return f"DELETE FROM facts {where}"
        assignment = rng.choice(
            ["u = 0 - k", "s = s + 1", "u = 3, s = 17", "s = 4 * k, u = k + 10000"]
        )
        return f"UPDATE facts SET {assignment} {where}"

    def check_reads(self, step: str) -> None:
        for sql in self.reads:
            got, want = self.indexed.execute(sql), self.plain.execute(sql)
            assert got.column_names == want.column_names, f"{step}: {sql}"
            if "ORDER BY" not in sql:
                got, want = got.sort_by(got.column_names), want.sort_by(want.column_names)
            elif "LIMIT" not in sql:
                # ties on the sort key may come in either order
                np.testing.assert_array_equal(got.column("s"), want.column("s"), f"{step}: {sql}")
                got, want = got.sort_by(got.column_names), want.sort_by(want.column_names)
            for name in want.column_names:
                np.testing.assert_array_equal(got.column(name), want.column(name), f"{step}: {sql}")


@pytest.mark.parametrize("partitions", [0, 1, 3], ids=["plain", "1-partition", "3-partition"])
@pytest.mark.parametrize("design", ["bitmap", "identifier"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reads_agree_and_indexes_verify_after_every_statement(seed, design, partitions):
    model = Model(seed, design, partitions)
    # the unpredicated reads take the PatchIndex plans under test
    assert all("PatchScan" in model.indexed.explain(sql) for sql in (READS[0], READS[4]))
    model.check_reads("start")
    for number in range(STATEMENTS):
        sql = model.random_statement()
        step = f"seed {seed} statement {number}: {sql[:70]}"
        assert model.indexed.execute(sql) >= 0
        for index in model.indexes:
            assert index.verify(), f"{step}: index on {index.column} fails verify()"
        model.check_reads(step)
    assert model.table.num_rows > 0


@pytest.mark.parametrize("design", ["bitmap", "identifier"])
@pytest.mark.parametrize("seed", [1, 2])
def test_one_partition_list_answers_as_the_plain_table(seed, design):
    plain, one = Model(seed, design, 0), Model(seed, design, 1)
    assert len(one.table.partitions) == 1 and one.table is not plain.table
    for number in range(STATEMENTS):
        sql = plain.random_statement()
        assert one.random_statement() == sql
        step = f"seed {seed} statement {number}: {sql[:70]}"
        assert one.indexed.execute(sql) == plain.indexed.execute(sql), step
        for got, want in zip(one.indexes, plain.indexes):
            assert got.verify() and want.verify(), step
            np.testing.assert_array_equal(got.patch_rowids(), want.patch_rowids(), step)
        for read in plain.reads:
            got, want = one.indexed.execute(read), plain.indexed.execute(read)
            for name in want.column_names:
                np.testing.assert_array_equal(got.column(name), want.column(name), step)


def test_one_partition_handle_hands_out_the_index_array():
    table = Table.from_arrays("facts", start_columns(np.random.default_rng(5)))
    for shape in (table, PartitionedTable.from_table(table, "k", 1)):
        handle = PatchIndexManager().create(shape, "u", NearlyUniqueColumn())
        rowids = handle.patch_rowids()
        assert len(rowids) and rowids is handle.parts[0].index.patch_rowids()
        assert not rowids.flags.writeable
        handle.detach()


@pytest.mark.xfail(strict=True, reason="NUC discovery is partition-local, the rewrite is not")
def test_distinct_over_partitions_sharing_a_value():
    k = np.arange(12, dtype=np.int64)
    u = k + 100
    u[[2, 9]] = 5  # one duplicate pair, its halves in different partitions
    table = PartitionedTable.from_table(Table.from_arrays("facts", {"k": k, "u": u}), "k", 3)
    catalog = Catalog()
    catalog.register(table)
    manager = PatchIndexManager(catalog)
    manager.create(table, "u", NearlyUniqueColumn())
    got = SQLSession(catalog, index_manager=manager).execute("SELECT DISTINCT u FROM facts")
    assert sorted(got.column("u").tolist()) == sorted(set(u.tolist()))
