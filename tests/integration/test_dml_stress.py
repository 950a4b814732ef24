"""Stress: a randomized DML stream with and without a maintained index.

Three sessions replay one randomized stream of
UPDATE/DELETE/INSERT/SELECT statements against separate but identical
catalogs: one without an index, one with a maintained NSC PatchIndex in
the bitmap design, one in the identifier design.  After every statement
the table images and SELECT answers must match exactly, and the two
indexes must hold the same patch rowIDs.  Every fifth statement is
followed by a condense of both indexes, so the stream interleaves bulk
delete (through the update hooks) and condense — the full §4.2
maintenance path — and checks it against the identifier design's
independent sorted-array delete.
"""

import numpy as np

from repro.core import NearlySortedColumn, PatchIndexManager
from repro.sql.session import SQLSession
from repro.storage import Catalog, Table

#: PatchIndex design per catalog; None builds no index.
MAINTENANCE = [None, "bitmap", "identifier"]
NUM_ROWS = 30_000
NUM_STATEMENTS = 60
#: A pseudo-statement of the stream: condense every index's bitmap.
CONDENSE = "CONDENSE"


def build_catalog(maintenance):
    rng = np.random.default_rng(42)
    values = np.arange(NUM_ROWS, dtype=np.int64)
    noise = rng.random(NUM_ROWS) < 0.02
    values[noise] = rng.integers(0, NUM_ROWS, int(noise.sum()))
    table = Table.from_arrays(
        "stream",
        {
            "k": np.arange(NUM_ROWS, dtype=np.int64),
            "v": values,
            "x": rng.random(NUM_ROWS),
        },
    )
    catalog = Catalog()
    catalog.register(table)
    if maintenance is None:
        return catalog, None
    manager = PatchIndexManager(catalog)
    manager.create(
        table,
        "v",
        NearlySortedColumn(),
        design=maintenance,
        shard_bits=1024,
    )
    return catalog, manager


def statement_stream(rng):
    for i in range(NUM_STATEMENTS):
        kind = rng.integers(0, 10)
        a = int(rng.integers(0, 100))
        b = round(float(rng.random()), 3)
        if kind < 4:
            yield f"UPDATE stream SET x = x * {1 + b} WHERE k % 100 = {a}"
        elif kind < 7:
            yield f"DELETE FROM stream WHERE x < {b / 8}"
        elif kind < 8:
            key = NUM_ROWS + i
            yield (
                "INSERT INTO stream (k, v, x) "
                f"VALUES ({key}, {key}, {b})"
            )
        else:
            yield "SELECT COUNT(*) AS n FROM stream WHERE x > 0.5"
        if i % 5 == 4:
            yield CONDENSE


def test_randomized_dml_stream_equivalence():
    setups = [build_catalog(m) for m in MAINTENANCE]
    sessions = [SQLSession(catalog) for catalog, _ in setups]
    handles = [manager.get("stream", "v") for _, manager in setups[1:]]
    reclaimed = 0
    try:
        rng = np.random.default_rng(7)
        for sql in statement_stream(rng):
            if sql == CONDENSE:
                reclaimed += handles[0].parts[0].index._bitmap.lost_bits()
                for handle in handles:
                    handle.condense()
            elif sql.startswith("SELECT"):
                results = [session.execute(sql) for session in sessions]
                first = results[0].column("n")
                for other in results[1:]:
                    np.testing.assert_array_equal(other.column("n"), first)
            else:
                results = [session.execute(sql) for session in sessions]
                assert len(set(results)) == 1, sql
            baseline = setups[0][0].table("stream")
            for catalog, _ in setups[1:]:
                other = catalog.table("stream")
                assert other.num_rows == baseline.num_rows, sql
                for name in baseline.schema.names:
                    np.testing.assert_array_equal(
                        other.column(name), baseline.column(name), err_msg=sql
                    )
            bitmap, ids = handles
            np.testing.assert_array_equal(bitmap.patch_rowids(), ids.patch_rowids(), err_msg=sql)
        # maintained indexes stayed consistent through the whole stream,
        # and the condenses had deleted capacity to reclaim
        assert bitmap.verify() and ids.verify()
        assert reclaimed > 0
        assert bitmap.parts[0].index._bitmap.lost_bits() == 0
    finally:
        for session in sessions:
            session.close()
