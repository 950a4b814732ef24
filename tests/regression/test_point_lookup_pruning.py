"""A point lookup on a sorted key reads one minmax block, and an UPDATE
keeps the summaries of the columns it does not assign.

The per-block minmax summaries used to serve only join ranges pushed
into a scan; a scan's own ``WHERE k = N`` compared all 200 k rows of
``k`` and then boolean-compressed every output column to keep one row,
and the WHERE of UPDATE and DELETE did the same.  Any write also dropped
every summary of the table, so the next scan rebuilt ``k``'s after an
UPDATE of another column.  Now the predicate's range conjuncts bound
``k``, its sorted summary answers with one block, and only that block
meets the predicate, in a SELECT and in an UPDATE alike.  Readers that
rebuild dropped summaries at once share them without a lock.
"""

import sys
import threading

import numpy as np

from repro.engine.expressions import ComparisonExpr, col
from repro.engine.operators import Scan
from repro.sql import SQLSession
from repro.storage import Catalog, Table
from repro.storage.minmax import DEFAULT_BLOCK_SIZE

ROWS = 200_000


def sorted_table():
    k = np.arange(ROWS, dtype=np.int64)
    return Table.from_arrays("t", {"k": k, "u": 2 * k, "p": k / 8.0})


def test_point_lookup_evaluates_its_predicate_on_one_block(monkeypatch):
    table = sorted_table()
    seen = []
    evaluate = ComparisonExpr.evaluate

    def recording(self, rel):
        seen.append(rel.num_rows)
        return evaluate(self, rel)

    monkeypatch.setattr(ComparisonExpr, "evaluate", recording)
    got = Scan(table, ["k", "u"], col("k") == 123_456).execute()
    assert got.to_rows() == [(123_456, 246_912)]
    assert seen and max(seen) <= DEFAULT_BLOCK_SIZE

    catalog = Catalog()
    catalog.register(table)
    session = SQLSession(catalog)
    seen.clear()
    rel = session.execute("SELECT k, u, p FROM t WHERE k = 77777")
    assert rel.to_rows() == [(77_777, 155_554, 77_777 / 8.0)]
    assert session.execute("UPDATE t SET u = 0 WHERE 150000 = k") == 1
    assert session.execute("DELETE FROM t WHERE k >= 199990") == 10
    assert seen and max(seen) <= DEFAULT_BLOCK_SIZE


def test_update_of_another_column_keeps_the_key_summary():
    table = sorted_table()
    k_summary, u_summary = table.minmax("k"), table.minmax("u")
    table.modify(np.array([5, 70_000]), {"u": np.array([-1, -2])})
    assert table.minmax("k") is k_summary
    assert table.minmax("u") is not u_summary
    table.modify(np.array([7]), {"k": np.array([ROWS + 1])})
    assert table.minmax("k") is not k_summary
    # the rebuilt summary holds the new key: a lookup finds it
    assert Scan(table, ["k"], col("k") == ROWS + 1).execute().num_rows == 1


def test_concurrent_readers_share_the_rebuilt_summaries():
    """Readers of one table find its summaries dropped by a write and
    rebuild them at once; each lookup must still find its row."""
    table = sorted_table()
    errors = []

    def read(seed):
        rng = np.random.default_rng(seed)
        try:
            for key in rng.integers(0, table.num_rows - 1, 30).tolist():
                got = Scan(table, ["k", "u"], (col("k") >= key) & (col("u") <= 2 * key)).execute()
                assert got.to_rows() == [(key, 2 * key)]
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_no in range(3):
            # drop every summary: the readers rebuild them concurrently
            table.delete(np.array([table.num_rows - 1]))
            threads = [threading.Thread(target=read, args=(round_no * 8 + i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(switch)
    assert not errors, errors[0]
