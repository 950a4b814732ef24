"""NUC maintenance and range propagation over columns holding NULL.

Three wrong answers, all from treating NULL as a value in the minmax
summaries and as nothing in the collision join:

* A float block holding NaN summarized to ``[nan, nan]``, which overlaps
  no range, so the Figure 5 probe skipped the block's other values: a
  duplicate INSERT went unpatched and ``SELECT DISTINCT`` through the
  PatchIndex returned the value twice.  ``HashJoin``'s dynamic range
  propagation skipped the same blocks, and a NaN build key pruned every
  block.
* An object block holding ``None`` made the summary raise ``TypeError``,
  so an INSERT into a table whose NUC column held a NULL failed after
  its rows were stored.
* The collision join joins NULL to nothing, as SQL joins do, but
  DISTINCT folds NULLs into one group: a second NULL stayed out of the
  patches and DISTINCT returned NULL twice.

Every DISTINCT runs once through the forced PatchIndex plan
(``use_cost_model=False``) and once through a plain session.
"""

import numpy as np
import pytest

from repro.core import NearlyUniqueColumn, PatchIndexManager
from repro.engine.batch import Relation
from repro.engine.operators import HashJoin, RelationSource, Scan
from repro.sql import SQLSession
from repro.storage import Catalog, Table

COLUMNS = {
    "f": np.array([1.0, np.nan, 3.0, 4.0, 5.0, 6.0]),
    "s": np.array(["a", "b", None, "c", "d", "e"], dtype=object),
}


def sessions(column, drp):
    cat = Catalog()
    cat.register(
        Table.from_arrays(
            "t", {"k": np.arange(6, dtype=np.int64), column: COLUMNS[column]},
            minmax_block_size=2,
        )
    )
    manager = PatchIndexManager(cat)
    handle = manager.create(
        cat.table("t"), column, NearlyUniqueColumn(), dynamic_range_propagation=drp
    )
    forced = SQLSession(cat, index_manager=manager, use_cost_model=False)
    return forced, SQLSession(cat), handle


def distinct(session, column):
    values = session.execute(f"SELECT DISTINCT {column} FROM t").column(column).tolist()
    return sorted(map(repr, values))


@pytest.mark.parametrize("column, duplicate", [("f", "1.0"), ("s", "'a'")], ids=["float", "string"])
@pytest.mark.parametrize("drp", [True, False], ids=["drp", "no_drp"])
def test_inserts_next_to_null_keep_the_index_exact(column, duplicate, drp):
    forced, plain, handle = sessions(column, drp)
    assert "PatchScan" in forced.explain(f"SELECT DISTINCT {column} FROM t")
    for value in (duplicate, "NULL"):
        forced.execute(f"INSERT INTO t (k, {column}) VALUES (9, {value})")
        assert handle.parts[0].index.verify()
        assert distinct(forced, column) == distinct(plain, column)
    assert len(distinct(plain, column)) == 6  # five values and one NULL


@pytest.mark.parametrize(
    "build_keys", [[1.0], [1.0, np.nan]], ids=["value", "value_and_null"]
)
def test_join_range_propagation_keeps_blocks_holding_null(build_keys):
    probe = Table.from_arrays(
        "p", {"f": np.array([1.0, np.nan, 3.0, 4.0])}, minmax_block_size=2
    )
    join = HashJoin(
        RelationSource(Relation({"b": np.array(build_keys)})),
        Scan(probe),
        "b",
        "f",
        build_side="left",
        dynamic_range_propagation=True,
    )
    assert join.execute().column("f").tolist() == [1.0]
