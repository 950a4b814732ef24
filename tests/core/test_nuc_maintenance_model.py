"""Model test of NUC maintenance (§5.1, Figure 5) against the operator tree.

Production maintenance probes the indexed column directly with the
equi-join kernel.  The oracle below is the path it replaced: a
``Scan → HashJoin`` tree per statement (over a probe copy of the column
that carries the rowIDs as a second column), dynamic range propagation
through ``Scan.push_range`` and a full ``patch_mask()``.
Two copies of one table receive the same seeded random statements, one
maintained by each path; after every statement the production index
must pass ``verify()`` and hold exactly the oracle's patch set.
"""

import numpy as np
import pytest

from repro.core import (
    BITMAP_DESIGN,
    IDENTIFIER_DESIGN,
    NearlyUniqueColumn,
    PatchIndex,
    PatchIndexManager,
)
from repro.engine.batch import ROWID, Relation
from repro.engine.operators import HashJoin, RelationSource, Scan
from repro.storage import PartitionedTable, Table

ROWS = 360
PARTS = 3


# ----------------------------------------------------------------------
# the oracle: the operator-tree maintenance path
# ----------------------------------------------------------------------
def oracle_apply(index: PatchIndex, table, event, drp: bool) -> None:
    if event.kind == "delete":
        index.remove_rows(event.rowids)
        return
    if index.column not in event.values:
        return
    touched = np.asarray(event.values[index.column])
    if event.kind == "insert":
        index.extend_rows(len(event.rowids))
    if len(touched) == 0:
        return
    build = RelationSource(Relation({index.column: np.unique(touched)}), name="delta")
    probe = Scan(
        Table.from_arrays(
            "probe",
            {index.column: table.column(index.column), ROWID: table.rowids()},
            minmax_block_size=16,  # the block size of make_table
        )
    )
    join = HashJoin(
        build, probe, index.column, index.column,
        build_side="left", dynamic_range_propagation=drp,
    )
    candidates = np.unique(join.execute().column(ROWID))
    if len(candidates) == 0:
        return
    values = table.column(index.column)[candidates]
    is_patch = index.patch_mask()[candidates]
    _, codes, counts = np.unique(values, return_inverse=True, return_counts=True)
    index.add_patches(np.sort(candidates[(counts[codes] > 1) & ~is_patch]))


# ----------------------------------------------------------------------
# two copies of one table, one per maintenance path
# ----------------------------------------------------------------------
def start_columns(rng):
    v = np.arange(ROWS, dtype=np.int64) * 3 + 1000
    dup = rng.choice(ROWS, 40, replace=False)
    v[dup] = rng.choice(v, 40)  # existing duplicates: patches from the start
    return {"k": np.arange(ROWS, dtype=np.int64), "v": v}


def make_table(cols, partitioned: bool):
    if not partitioned:
        return Table.from_arrays("t", cols, minmax_block_size=16)
    edges = [ROWS * p // PARTS for p in range(PARTS + 1)]
    parts = [
        Table.from_arrays(
            f"t#{p}", {c: a[lo:hi] for c, a in cols.items()}, minmax_block_size=16
        )
        for p, (lo, hi) in enumerate(zip(edges, edges[1:]))
    ]
    return PartitionedTable("t", parts, "k", [int(cols["k"][hi - 1]) for hi in edges[1:-1]])


class Pair:
    """The production-maintained table and its oracle-maintained twin."""

    def __init__(self, rng, design, drp, partitioned):
        cols = start_columns(rng)
        self.table = make_table(cols, partitioned)
        self.handle = PatchIndexManager().create(
            self.table, "v", NearlyUniqueColumn(), design=design, shard_bits=64,
            dynamic_range_propagation=drp,
        )
        self.twin = make_table(cols, partitioned)
        self.twin_indexes = []
        for part in self.twin.partitions:
            index = PatchIndex(part, "v", NearlyUniqueColumn(), design=design, shard_bits=64)
            part.add_update_hook(lambda t, e, index=index: oracle_apply(index, t, e, drp))
            self.twin_indexes.append(index)

    def run(self, kind, *args):
        for table in (self.table, self.twin):
            getattr(table, kind)(*args)

    def check(self, step):
        assert self.handle.verify(), step
        offsets = np.cumsum([0] + [i.num_rows for i in self.twin_indexes[:-1]])
        want = np.concatenate(
            [i.patch_rowids() + off for i, off in zip(self.twin_indexes, offsets)]
        )
        np.testing.assert_array_equal(self.handle.patch_rowids(), want, err_msg=step)
        assert self.handle.num_patches == len(want), step


def touched_values(rng, column, patch_values, count):
    """``count`` values: fresh ones, and 0-50 % that collide.

    Collisions hit plain existing values, values of existing patches and
    each other; fresh values fall below the column's minimum, above its
    maximum and into the gaps between existing values.
    """
    lo, hi = int(column.min()), int(column.max())
    fresh = np.concatenate([
        rng.integers(lo - 500, lo, count),
        rng.integers(hi + 1, hi + 500, count),
        rng.integers(lo, hi, count) // 3 * 3 + 2,  # existing values are 1 mod 3
    ])
    values = rng.choice(fresh, count)
    n_col = int(round(rng.uniform(0.0, 0.5) * count))
    pool = np.concatenate([rng.choice(column, count), rng.choice(patch_values, count)])
    where = rng.choice(count, n_col, replace=False)
    values[where] = rng.choice(pool, n_col)
    if count > 3 and n_col:
        values[rng.choice(count, 2, replace=False)] = values[where[0]]  # in-batch duplicate
    return values.astype(np.int64)


@pytest.mark.parametrize("partitioned", [False, True], ids=["plain", "partitioned"])
@pytest.mark.parametrize("drp", [True, False], ids=["drp", "nodrp"])
@pytest.mark.parametrize("design", [BITMAP_DESIGN, IDENTIFIER_DESIGN])
@pytest.mark.parametrize("seed", range(4))
def test_patch_set_equals_operator_tree_path(seed, design, drp, partitioned):
    rng = np.random.default_rng([seed, drp, partitioned])
    pair = Pair(rng, design, drp, partitioned)
    pair.check("build")
    next_k = ROWS
    for step in range(14):
        column = pair.table.column("v")
        patch_values = column[pair.handle.patch_rowids()]
        n = len(column)
        kind = rng.choice(["insert", "insert", "modify", "modify", "delete"])
        count = int(rng.integers(1, 25))
        if kind == "insert":
            values = touched_values(rng, column, patch_values, count)
            pair.run("insert", {"k": np.arange(next_k, next_k + count), "v": values})
            next_k += count
        elif kind == "modify":
            rowids = np.sort(rng.choice(n, count, replace=False))
            pair.run("modify", rowids, {"v": touched_values(rng, column, patch_values, count)})
        else:
            pair.run("delete", np.sort(rng.choice(n, count, replace=False)))
        pair.check(f"seed {seed} step {step}: {kind} of {count}")
