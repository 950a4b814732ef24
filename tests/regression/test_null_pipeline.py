"""NULL must survive the full pipeline, not just the parser.

Satellite contract: a NULL written through INSERT/UPDATE round-trips
through WAL replay and the async session, IS [NOT] NULL sees it, and a
column type with no NULL representation refuses it with a typed error
instead of storing garbage.

NULL join keys (PR 13): ``HashJoin`` used to match ``None = None``
(dict probe) and a sorted build ``NaN = NaN`` (``searchsorted``); SQL
matches neither, and since every build runs one kernel neither does
the join, whichever side it builds on.

NULL group keys (PR 17): ``GROUP BY`` / ``DISTINCT`` over a string
column holding NULL used to raise ``TypeError: '<' not supported
between 'NoneType' and 'str'`` out of ``np.unique``'s object sort; the
group kernel's string codes make NULL one group, ordered first
as in SQLite.
"""

import asyncio

import numpy as np
import pytest

from repro.engine.batch import Relation
from repro.engine.operators import (
    Distinct,
    GroupAggregate,
    HashJoin,
    RelationSource,
)
from repro.sql import AsyncSQLSession, NullStorageError, SQLSession
from repro.storage import Catalog, Table
from repro.testing import CORPUS_VERSION, XFAIL_MANIFEST, default_corpus


def make_catalog():
    cat = Catalog()
    cat.register(
        Table.from_arrays(
            "people",
            {
                "pid": np.arange(6, dtype=np.int64),
                "pname": np.array([f"p{i}" for i in range(6)], dtype=object),
                "score": np.arange(6, dtype=np.float64),
            },
        )
    )
    return cat


class TestStorage:
    def test_insert_null_string_and_float(self):
        s = SQLSession(make_catalog())
        s.execute("INSERT INTO people (pid, pname, score) VALUES (6, NULL, NULL)")
        rel = s.execute("SELECT pid FROM people WHERE pname IS NULL")
        assert rel.column("pid").tolist() == [6]
        rel = s.execute("SELECT pid FROM people WHERE score IS NULL")
        assert rel.column("pid").tolist() == [6]

    def test_update_to_null(self):
        s = SQLSession(make_catalog())
        assert s.execute("UPDATE people SET pname = NULL WHERE pid < 2") == 2
        rel = s.execute("SELECT pid FROM people WHERE pname IS NULL ORDER BY pid")
        assert rel.column("pid").tolist() == [0, 1]

    def test_null_excluded_from_comparisons(self):
        s = SQLSession(make_catalog())
        s.execute("UPDATE people SET pname = NULL WHERE pid = 0")
        # neither = nor <> matches a NULL cell (SQL comparison semantics)
        eq = s.execute("SELECT pid FROM people WHERE pname = 'p0'")
        ne = s.execute("SELECT pid FROM people WHERE pname <> 'p0' ORDER BY pid")
        assert eq.num_rows == 0
        assert ne.column("pid").tolist() == [1, 2, 3, 4, 5]

    def test_int_column_refuses_null_on_insert(self):
        s = SQLSession(make_catalog())
        with pytest.raises(NullStorageError, match="INT64"):
            s.execute("INSERT INTO people (pid, pname, score) VALUES (NULL, 'x', 1.0)")

    def test_int_column_refuses_null_on_update(self):
        s = SQLSession(make_catalog())
        with pytest.raises(NullStorageError):
            s.execute("UPDATE people SET pid = NULL WHERE pid = 0")

    def test_refused_insert_leaves_table_unchanged(self):
        s = SQLSession(make_catalog())
        with pytest.raises(NullStorageError):
            s.execute("INSERT INTO people (pid, pname, score) VALUES (NULL, 'x', 1.0)")
        assert s.execute("SELECT COUNT(*) AS n FROM people").column("n").tolist() == [6]


class TestNullJoinKeys:
    KEYS = {
        "string": (
            np.array(["a", None, "b", None], dtype=object),
            np.array([None, "b", None, "b", "z"], dtype=object),
            [(2, 1), (2, 3)],
        ),
        "float": (
            np.array([1.5, np.nan, 2.5, np.nan]),
            np.array([np.nan, 2.5, np.nan, 2.5, 9.0]),
            [(2, 1), (2, 3)],
        ),
    }

    @pytest.mark.parametrize("kind", sorted(KEYS))
    @pytest.mark.parametrize("build_side", ["auto", "left", "right"])
    def test_null_keys_match_nothing(self, build_side, kind):
        left_keys, right_keys, want = self.KEYS[kind]
        left = Relation({"k": left_keys, "l": np.arange(len(left_keys))})
        right = Relation({"j": right_keys, "r": np.arange(len(right_keys))})
        out = HashJoin(
            RelationSource(left), RelationSource(right), "k", "j", build_side=build_side
        ).execute()
        got = sorted(zip(out.column("l").tolist(), out.column("r").tolist()))
        assert got == want

    def test_sql_join_skips_null_keys(self):
        cat = make_catalog()
        cat.register(
            Table.from_arrays(
                "tags",
                {
                    "tname": np.array([None, "p1", None], dtype=object),
                    "tscore": np.array([np.nan, 2.0, np.nan]),
                    "tid": np.arange(3, dtype=np.int64),
                },
            )
        )
        s = SQLSession(cat)
        s.execute("UPDATE people SET pname = NULL, score = NULL WHERE pid = 0")
        by_name = s.execute("SELECT pid, tid FROM people JOIN tags ON pname = tname")
        by_score = s.execute("SELECT pid, tid FROM people JOIN tags ON score = tscore")
        assert by_name.to_rows() == [(1, 1)]
        assert by_score.to_rows() == [(2, 1)]

    def test_corpus_carries_the_probes_unexcused(self):
        ids = {q.qid for q in default_corpus(seed=7)}
        probes = {"null/join-null-key", "null/join-null-key-float"}
        assert probes <= ids
        assert not probes & set(XFAIL_MANIFEST)
        assert len(XFAIL_MANIFEST) == 7


class TestNullGroupKeys:
    @pytest.fixture
    def session(self):
        s = SQLSession(make_catalog())
        s.execute("UPDATE people SET pname = NULL WHERE pid IN (1, 4)")
        s.execute("UPDATE people SET pname = 'p0' WHERE pid = 5")
        s.execute("UPDATE people SET score = NULL WHERE pid IN (0, 1)")
        return s

    def test_group_by_null_key(self, session):
        rel = session.execute("SELECT pname, COUNT(*) AS n FROM people GROUP BY pname")
        assert rel.to_rows() == [(None, 2), ("p0", 2), ("p2", 1), ("p3", 1)]

    def test_distinct_null_key(self, session):
        rel = session.execute("SELECT DISTINCT pname FROM people")
        assert rel.to_rows() == [(None,), ("p0",), ("p2",), ("p3",)]

    def test_distinct_null_key_multi(self, session):
        rel = session.execute("SELECT DISTINCT pname, score FROM people")
        # a NULL string sorts first, a NULL (NaN) float last within its string
        assert rel.column("pname").tolist() == [None, None, "p0", "p0", "p2", "p3"]
        np.testing.assert_array_equal(
            rel.column("score"), [4.0, np.nan, 5.0, np.nan, 2.0, 3.0]
        )

    def test_operators_group_none_and_nan(self):
        rel = Relation(
            {
                "s": np.array(["b", None, "a", None, "b"], dtype=object),
                "f": np.array([np.nan, 1.0, np.nan, 1.0, np.nan]),
                "v": np.arange(5, dtype=np.int64),
            }
        )
        agg = GroupAggregate(
            RelationSource(rel), ["s"], {"n": ("count", None), "t": ("sum", "v")}
        ).execute()
        assert agg.to_rows() == [(None, 2, 4), ("a", 1, 2), ("b", 2, 4)]
        assert Distinct(RelationSource(rel), ["s"]).execute().to_rows() == [
            (None,), ("a",), ("b",)
        ]
        pairs = Distinct(RelationSource(rel), ["s", "f"]).execute()
        assert pairs.column("s").tolist() == [None, "a", "b"]
        np.testing.assert_array_equal(pairs.column("f"), [1.0, np.nan, np.nan])

    def test_corpus_carries_the_probes_unexcused(self):
        ids = {q.qid for q in default_corpus(seed=7)}
        probes = {
            "null/group-by-null-key",
            "null/distinct-null-key",
            "null/distinct-null-key-multi",
        }
        assert probes <= ids
        assert not probes & set(XFAIL_MANIFEST)
        assert CORPUS_VERSION == 4 and len(XFAIL_MANIFEST) == 7


class TestWalReplay:
    def test_nulls_survive_crash_recovery(self, tmp_path):
        s = SQLSession(make_catalog(), data_dir=str(tmp_path), wal_sync="off")
        s.execute("INSERT INTO people (pid, pname, score) VALUES (6, NULL, NULL)")
        s.execute("UPDATE people SET pname = NULL WHERE pid = 1")
        del s  # crash: no close, no checkpoint — reopen replays the WAL
        s2 = SQLSession(make_catalog(), data_dir=str(tmp_path), wal_sync="off")
        rel = s2.execute("SELECT pid FROM people WHERE pname IS NULL ORDER BY pid")
        assert rel.column("pid").tolist() == [1, 6]
        rel = s2.execute("SELECT pid FROM people WHERE score IS NULL")
        assert rel.column("pid").tolist() == [6]
        s2.close()

    def test_nulls_survive_checkpoint_then_replay(self, tmp_path):
        s = SQLSession(
            make_catalog(), data_dir=str(tmp_path), wal_sync="off",
            checkpoint_interval=1,
        )
        s.execute("UPDATE people SET pname = NULL WHERE pid = 2")
        s.execute("INSERT INTO people (pid, pname, score) VALUES (7, NULL, 3.5)")
        del s
        s2 = SQLSession(make_catalog(), data_dir=str(tmp_path), wal_sync="off")
        rel = s2.execute("SELECT pid FROM people WHERE pname IS NULL ORDER BY pid")
        assert rel.column("pid").tolist() == [2, 7]
        s2.close()


class TestAsyncSession:
    def test_null_through_async_session(self):
        async def scenario():
            async with AsyncSQLSession(SQLSession(make_catalog())) as db:
                await db.execute(
                    "INSERT INTO people (pid, pname, score) VALUES (6, NULL, NULL)"
                )
                await db.execute("UPDATE people SET pname = NULL WHERE pid = 0")
                rel = await db.execute(
                    "SELECT pid FROM people WHERE pname IS NULL ORDER BY pid"
                )
                return rel.column("pid").tolist()

        assert asyncio.run(asyncio.wait_for(scenario(), 60.0)) == [0, 6]

    def test_null_storage_error_propagates_async(self):
        async def scenario():
            async with AsyncSQLSession(SQLSession(make_catalog())) as db:
                with pytest.raises(NullStorageError):
                    await db.execute("UPDATE people SET pid = NULL WHERE pid = 0")

        asyncio.run(asyncio.wait_for(scenario(), 60.0))
