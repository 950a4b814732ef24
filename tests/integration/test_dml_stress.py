"""Stress: a randomized DML stream with and without a maintained index.

Three sessions replay one randomized stream of
UPDATE/DELETE/INSERT/SELECT statements against separate but identical
catalogs: one without an index, one with a maintained NSC PatchIndex in
the bitmap design, one in the identifier design.  After every statement
the table images and SELECT answers must match exactly, and the two
indexes must hold the same patch rowIDs.  The bitmap index carries an
auto-condense threshold, so the stream drives bulk delete and condense
through the update hooks — the full §4.2 maintenance path — and checks
it against the identifier design's independent sorted-array delete.
"""

import numpy as np

from repro.core import NearlySortedColumn, PatchIndexManager
from repro.sql.session import SQLSession
from repro.storage import Catalog, Table

#: PatchIndex design per catalog; None builds no index.
MAINTENANCE = [None, "bitmap", "identifier"]
NUM_ROWS = 30_000
NUM_STATEMENTS = 60


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
        condense_threshold=0.05,
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


def test_randomized_dml_stream_equivalence():
    setups = [build_catalog(m) for m in MAINTENANCE]
    sessions = [SQLSession(catalog) for catalog, _ in setups]
    try:
        rng = np.random.default_rng(7)
        for sql in statement_stream(rng):
            results = [session.execute(sql) for session in sessions]
            if sql.startswith("SELECT"):
                first = results[0].column("n")
                for other in results[1:]:
                    np.testing.assert_array_equal(other.column("n"), first)
            else:
                assert len(set(results)) == 1, sql
            baseline = setups[0][0].table("stream")
            for catalog, _ in setups[1:]:
                other = catalog.table("stream")
                assert other.num_rows == baseline.num_rows, sql
                for name in baseline.schema.names:
                    np.testing.assert_array_equal(
                        other.column(name), baseline.column(name), err_msg=sql
                    )
            bitmap, ids = [manager.get("stream", "v") for _, manager in setups[1:]]
            np.testing.assert_array_equal(bitmap.patch_rowids(), ids.patch_rowids(), err_msg=sql)
        # maintained indexes stayed consistent through the whole stream
        assert bitmap.verify() and ids.verify()
        bits = bitmap.parts[0].index._bitmap
        assert bits.lost_bits() <= 0.05 * bits.num_shards * 1024
    finally:
        for session in sessions:
            session.close()
