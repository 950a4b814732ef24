"""A JoinIndex over a partitioned fact table follows every write.

The JoinIndex hooked the fact table only when it had
``add_update_hook``, which a :class:`PartitionedTable` does not, so its
partner array silently stopped matching after the first write: 40 fact
rows in 4 partitions, one INSERT, then 41 rows against 40 partners.

Each partition is now hooked, and an event's partition-local rowids are
shifted by that partition's offset at event time.  After every
statement the partners equal a fresh full join and the materialized
join equals a hash join of the current columns.
"""

import numpy as np
import pytest

from repro.materialization import JoinIndex
from repro.storage import PartitionedTable, Table


def tables(parts):
    rng = np.random.default_rng(7)
    dim = Table.from_arrays(
        "dim", {"dk": np.arange(12, dtype=np.int64), "dval": np.arange(12) * 100}
    )
    fact = Table.from_arrays(
        "fact",
        {"id": np.arange(40, dtype=np.int64), "fk": rng.integers(0, 15, 40)},
    )
    if parts > 1:
        fact = PartitionedTable.from_table(fact, "id", parts)
    return fact, dim


def joined(fact, dim):
    """``(id, dval)`` pairs of the inner join, by a dict probe."""
    dval = dict(zip(dim.column("dk").tolist(), dim.column("dval").tolist()))
    return [
        (i, dval[k])
        for i, k in zip(fact.column("id").tolist(), fact.column("fk").tolist())
        if k in dval
    ]


@pytest.mark.parametrize("parts", [1, 4])
def test_partners_follow_writes_on_every_partition(parts):
    fact, dim = tables(parts)
    ji = JoinIndex(fact, "fk", dim, "dk")
    statements = [
        lambda: fact.insert({"id": np.array([3, 25, 99]), "fk": np.array([1, 14, 2])}),
        lambda: fact.delete(np.array([0, 11, 12, 30, 42])),
        lambda: fact.modify(np.array([1, 20, 37]), {"fk": np.array([5, 13, 0])}),
        lambda: fact.insert({"id": np.array([-1, 50]), "fk": np.array([4, 4])}),
        lambda: fact.delete(np.arange(5, 25)),
    ]
    for statement in statements:
        statement()
        assert len(ji.partners) == fact.num_rows
        assert ji.verify()
        out = ji.join(["id"], ["dval"])
        assert list(zip(out["id"].tolist(), out["dval"].tolist())) == joined(fact, dim)
    ji.detach()
    fact.insert({"id": np.array([7]), "fk": np.array([1])})
    assert len(ji.partners) == fact.num_rows - 1
