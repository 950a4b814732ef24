"""Cross-engine differential regression harness (the correctness oracle).

Runs a versioned workload corpus through **our** SQL engine
(:class:`repro.sql.SQLSession`) and through a reference engine — the
stdlib :mod:`sqlite3` by default — on identically loaded schemas, and
asserts row-level result equality under a canonical comparator.  The
idea follows the differential-testing style of optimizer/engine research
harnesses: the reference engine is the oracle, every divergence is
either a bug or a *documented* semantic gap.

Three moving parts:

* **Mirroring** — :func:`mirror_catalog` recreates every catalog table
  inside a reference connection (INT64→INTEGER, FLOAT64→REAL,
  STRING→TEXT; our NaN-as-NULL float representation maps onto SQL NULL
  both ways).
* **Comparison** — :func:`compare_rows` canonicalizes both result sets
  (NaN↔NULL unification, numeric widening, canonical row order) and
  compares cell-wise with a float tolerance, raising a typed
  :class:`ResultMismatch` carrying the first differing rows.  SQL our
  engine rejects but the reference accepts surfaces as
  :class:`UnsupportedSQL` — honest "not implemented", never a silent
  skip.
* **The corpus** — :func:`default_corpus` assembles TPC-H Q-shapes,
  PublicBI-style profile probes, NULL-semantics probes, WHERE-over-join
  probes and seeded
  randomized SELECT / DML mixes (:func:`random_select_corpus`,
  :func:`random_dml_corpus`).  ``CORPUS_VERSION`` names the corpus
  revision: bump it whenever a query is added, removed or reworded so
  stored expectations keyed by query id are invalidated explicitly
  rather than silently compared across revisions.

Known, deliberate semantic gaps live in :data:`XFAIL_MANIFEST` — each
entry says *why* the engines diverge.  :func:`run_corpus` enforces the
manifest strictly: an unexplained mismatch fails, and so does an entry
that unexpectedly passes (so stale excuses cannot linger).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import sqlite3
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.sql.session import SQLSession
from repro.storage.catalog import Catalog
from repro.storage.column import ColumnType
from repro.storage.partition import PartitionedTable
from repro.storage.table import Table
from repro.workloads.tpch import generate_tpch

__all__ = [
    "CORPUS_VERSION",
    "Query",
    "ResultMismatch",
    "UnsupportedSQL",
    "XFAIL_MANIFEST",
    "DifferentialPair",
    "DifferentialReport",
    "build_reference_catalog",
    "mirror_catalog",
    "canonical_value",
    "canonical_rows",
    "compare_rows",
    "tpch_corpus",
    "publicbi_corpus",
    "null_corpus",
    "feature_corpus",
    "join_where_corpus",
    "random_select_corpus",
    "random_dml_corpus",
    "default_corpus",
    "run_corpus",
]

#: Corpus revision; bump on any query add/remove/reword (see module doc).
CORPUS_VERSION = 4

#: Relative float tolerance of the comparator (absolute 1e-12 floor).
FLOAT_RTOL = 1e-9


class ResultMismatch(AssertionError):
    """Our engine and the reference returned different result sets.

    Carries the query id, its SQL and a human-readable diff of the
    first divergent canonical rows.
    """

    def __init__(self, qid: str, sql: str, detail: str) -> None:
        super().__init__(f"[{qid}] result mismatch for {sql!r}: {detail}")
        self.qid = qid
        self.sql = sql
        self.detail = detail


class UnsupportedSQL(Exception):
    """Our engine rejected SQL that the reference engine accepts.

    Wraps the engine's own error so corpus runs can separate "wrong
    answer" (a bug) from "no answer" (a feature gap) — only the former
    fails a differential run outright.
    """

    def __init__(self, qid: str, sql: str, error: Exception) -> None:
        super().__init__(f"[{qid}] unsupported by our engine: {sql!r} ({error})")
        self.qid = qid
        self.sql = sql
        self.error = error


@dataclasses.dataclass(frozen=True)
class Query:
    """One corpus entry: a stable id, its SQL, and its statement kind.

    ``kind`` is ``select`` (compare result sets) or ``dml`` (compare
    affected-row counts, then compare the mutated table's full content).
    For ``dml`` entries ``table`` names the mutated table.
    """

    qid: str
    sql: str
    kind: str = "select"
    table: Optional[str] = None


#: Known, explained divergences from the reference engine.  Keys are
#: query ids; values say why the engines disagree.  ``run_corpus``
#: treats an entry that *passes* as an error (stale excuse).
XFAIL_MANIFEST: Dict[str, str] = {
    "null/agg-count-col": (
        "COUNT(col) counts NULLs in our engine (count is row-count per "
        "group, not non-NULL count as SQL requires)"
    ),
    "null/agg-sum-nan": (
        "SUM/AVG over a NULL-holding float column propagates NaN "
        "(numpy accumulation) where SQL ignores NULLs"
    ),
    "null/agg-min-nan": (
        "MIN/MAX over a NULL-holding float column propagates NaN "
        "(numpy accumulation) where SQL ignores NULLs"
    ),
    "null/agg-empty-sum": (
        "SUM over an empty input returns the dtype zero in our engine "
        "(numpy reduction identity) where SQL returns NULL"
    ),
    "rand/s7-01": (
        "seeded query hits the SUM-over-empty-set gap: our engine "
        "returns 0 where SQLite returns NULL (see null/agg-empty-sum)"
    ),
    "null/order-by-null-first": (
        "ORDER BY + LIMIT over a NULL-holding column: NaN sorts last in "
        "numpy, NULL sorts first in SQLite, so the limited prefix differs"
    ),
    "null/not-over-null-comparison": (
        "NOT (x = y) with NULL x is two-valued in our engine (NULL "
        "comparison -> false, NOT -> true) where SQL three-valued logic "
        "keeps the row excluded"
    ),
}


# ----------------------------------------------------------------------
# schema mirroring
# ----------------------------------------------------------------------
_SQLITE_TYPE = {
    ColumnType.INT64: "INTEGER",
    ColumnType.FLOAT64: "REAL",
    ColumnType.STRING: "TEXT",
}


def mirror_catalog(catalog: Catalog, conn: sqlite3.Connection) -> None:
    """Recreate every catalog table, with its rows, in ``conn``.

    Column types map INT64→INTEGER, FLOAT64→REAL, STRING→TEXT.  Float
    NaN (our NULL representation) is converted to SQL NULL explicitly,
    so both engines start from the same logical content.
    """
    for table in catalog:
        names = table.schema.names
        cols = ", ".join(
            f"{f.name} {_SQLITE_TYPE[f.type]}" for f in table.schema.fields
        )
        conn.execute(f"DROP TABLE IF EXISTS {table.name}")
        conn.execute(f"CREATE TABLE {table.name} ({cols})")
        arrays = [table.column(n) for n in names]
        rows = []
        for i in range(table.num_rows):
            row = []
            for arr in arrays:
                v = arr[i]
                if v is None:
                    row.append(None)
                elif isinstance(v, (float, np.floating)):
                    row.append(None if math.isnan(v) else float(v))
                elif isinstance(v, (int, np.integer)):
                    row.append(int(v))
                else:
                    row.append(str(v))
            rows.append(tuple(row))
        placeholders = ", ".join("?" for _ in names)
        conn.executemany(
            f"INSERT INTO {table.name} VALUES ({placeholders})", rows
        )
    conn.commit()


# ----------------------------------------------------------------------
# canonical comparison
# ----------------------------------------------------------------------
def canonical_value(v: object) -> object:
    """Collapse a cell to the comparator's canonical domain.

    ``None`` and float NaN both become ``None`` (one NULL); numpy
    scalars widen to python ints/floats; everything else becomes its
    string form.
    """
    if v is None:
        return None
    if isinstance(v, (bool, np.bool_)):
        return int(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return None if math.isnan(v) else float(v)
    return str(v)


def _row_sort_key(row: Tuple) -> Tuple:
    """Total order over canonical rows (NULL first, then by type).

    Floats are keyed on a rounded value so two cells that are equal
    within the comparator's tolerance sort to the same position in both
    result sets.
    """
    key = []
    for v in row:
        if v is None:
            key.append((0, "", 0.0))
        elif isinstance(v, str):
            key.append((1, v, 0.0))
        else:
            key.append((2, "", round(float(v), 7)))
    return tuple(key)


def canonical_rows(rows: Iterable[Sequence]) -> List[Tuple]:
    """Canonicalize and sort a result set for order-insensitive diffing."""
    canon = [tuple(canonical_value(v) for v in row) for row in rows]
    return sorted(canon, key=_row_sort_key)


def _cells_equal(a: object, b: object) -> bool:
    """Cell equality with float tolerance (exact for everything else)."""
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return math.isclose(float(a), float(b), rel_tol=FLOAT_RTOL, abs_tol=1e-12)


def compare_rows(
    qid: str, sql: str, ours: Iterable[Sequence], reference: Iterable[Sequence]
) -> None:
    """Assert two result sets are equal under the canonical comparator.

    Raises :class:`ResultMismatch` with the first few divergent rows;
    returns ``None`` when the sets agree.
    """
    a = canonical_rows(ours)
    b = canonical_rows(reference)
    if len(a) != len(b):
        raise ResultMismatch(
            qid, sql,
            f"row count {len(a)} (ours) vs {len(b)} (reference); "
            f"ours[:3]={a[:3]} reference[:3]={b[:3]}",
        )
    diffs = []
    for i, (ra, rb) in enumerate(zip(a, b)):
        if len(ra) != len(rb):
            raise ResultMismatch(
                qid, sql, f"column count {len(ra)} vs {len(rb)} at row {i}"
            )
        if not all(_cells_equal(x, y) for x, y in zip(ra, rb)):
            diffs.append(f"row {i}: ours={ra} reference={rb}")
            if len(diffs) >= 5:
                break
    if diffs:
        raise ResultMismatch(qid, sql, "; ".join(diffs))


# ----------------------------------------------------------------------
# the paired runner
# ----------------------------------------------------------------------
class DifferentialPair:
    """One :class:`SQLSession` and its reference mirror, run in lockstep.

    Construct from a loaded catalog; :meth:`check` compares a SELECT,
    :meth:`apply` runs a DML statement on both sides and compares the
    affected-row count plus the mutated table's full content.  The
    reference connection is owned by the pair (closed by :meth:`close`)
    unless one is passed in.
    """

    def __init__(
        self,
        catalog: Catalog,
        session: Optional[SQLSession] = None,
        conn: Optional[sqlite3.Connection] = None,
    ) -> None:
        self.catalog = catalog
        self.session = session if session is not None else SQLSession(catalog)
        self._owns_conn = conn is None
        self.conn = conn if conn is not None else sqlite3.connect(":memory:")
        mirror_catalog(catalog, self.conn)

    def close(self) -> None:
        """Release the session pool and (if owned) the reference connection."""
        self.session.close()
        if self._owns_conn:
            self.conn.close()

    def __enter__(self) -> "DifferentialPair":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _run_ours(self, query: Query):
        """Run on our engine, wrapping rejections as :class:`UnsupportedSQL`."""
        try:
            return self.session.execute(query.sql)
        except (AssertionError, KeyboardInterrupt):
            raise
        except Exception as exc:
            raise UnsupportedSQL(query.qid, query.sql, exc) from exc

    def check(self, query: Query) -> None:
        """Run one SELECT on both engines and compare the result sets."""
        rel = self._run_ours(query)
        ours = rel.to_rows()
        reference = self.conn.execute(query.sql).fetchall()
        compare_rows(query.qid, query.sql, ours, reference)

    def apply(self, query: Query) -> None:
        """Run one DML statement on both engines and compare the effects.

        Compares the affected-row count (INSERT/UPDATE/DELETE) and then
        the full content of the mutated table, so a statement that
        touches the right number of the wrong rows still fails.
        """
        count = self._run_ours(query)
        cur = self.conn.execute(query.sql)
        self.conn.commit()
        if int(count) != int(cur.rowcount):
            raise ResultMismatch(
                query.qid, query.sql,
                f"affected-row count {count} (ours) vs {cur.rowcount} (reference)",
            )
        if query.table is not None:
            self.check_table(query.qid, query.table)

    def check_table(self, qid: str, table: str) -> None:
        """Compare a table's full content across the two engines."""
        probe = Query(f"{qid}/content", f"SELECT * FROM {table}")
        self.check(probe)


# ----------------------------------------------------------------------
# reference dataset
# ----------------------------------------------------------------------
def build_reference_catalog(seed: int = 0) -> Catalog:
    """The corpus's shared dataset: TPC-H tiny + profiles + events.

    * the five TPC-H tables at scale 0.001 (≈1.5 k orders, ≈6 k
      lineitems) from :func:`repro.workloads.tpch.generate_tpch`;
    * ``profiles`` — a PublicBI-style wide-ish table whose string and
      float columns contain NULLs at known positions;
    * ``events`` — a small int-keyed table the DML mixes mutate;
    * ``regions`` — six rows whose string and float columns join against
      ``profiles.city`` / ``profiles.score`` and hold NULLs on their own.
    * ``shipments`` — 240 rows referencing ``orders`` by key,
      range-partitioned three ways, so joins also read a
      :class:`~repro.storage.partition.PartitionedTable`.

    Everything derives from ``seed`` so a corpus run is reproducible.
    """
    catalog = Catalog()
    generate_tpch(scale=0.001, seed=seed).register(catalog)
    rng = np.random.default_rng(seed + 1)
    n = 400
    names = np.empty(n, dtype=object)
    cities = ["amsterdam", "berlin", "chicago", "dresden", "espoo"]
    for i in range(n):
        names[i] = None if i % 11 == 0 else f"user{i:03d}"
    city = np.empty(n, dtype=object)
    for i in range(n):
        city[i] = None if i % 17 == 0 else cities[i % len(cities)]
    score = rng.random(n).round(4) * 100.0
    score[::13] = np.nan  # NULLs in the float column
    catalog.register(
        Table.from_arrays(
            "profiles",
            {
                "pid": np.arange(n, dtype=np.int64),
                "pname": names,
                "city": city,
                "score": score,
                "visits": rng.integers(0, 50, n).astype(np.int64),
            },
        )
    )
    m = 300
    catalog.register(
        Table.from_arrays(
            "events",
            {
                "eid": np.arange(m, dtype=np.int64),
                "etype": np.array(
                    [["click", "view", "buy"][i % 3] for i in range(m)],
                    dtype=object,
                ),
                "amount": (rng.random(m) * 50).round(2),
                "flag": rng.integers(0, 2, m).astype(np.int64),
            },
        )
    )
    catalog.register(
        Table.from_arrays(
            "regions",
            {
                "rid": np.arange(6, dtype=np.int64),
                "rcity": np.array(
                    ["amsterdam", None, "berlin", "zagreb", None, "espoo"], dtype=object
                ),
                # three scores that occur in ``profiles``, one that does not
                "rscore": np.array([score[1], np.nan, score[2], -1.0, np.nan, score[5]]),
            },
        )
    )
    k = 240
    shipments = Table.from_arrays(
        "shipments",
        {
            "sh_id": np.arange(k, dtype=np.int64),
            "sh_orderkey": rng.choice(catalog.table("orders").column("o_orderkey"), k),
            "sh_weight": (rng.random(k) * 20).round(2),
        },
    )
    catalog.register(PartitionedTable.from_table(shipments, "sh_id", 3))
    return catalog


# ----------------------------------------------------------------------
# corpus sections
# ----------------------------------------------------------------------
def tpch_corpus() -> List[Query]:
    """TPC-H Q-shapes (joins, group-bys, date-range filters, top-n)."""
    queries = [
        # Q1-shape: grouped aggregation over a date filter
        ("q01-shape", "SELECT l_shipmode, COUNT(*) AS cnt, SUM(l_extendedprice) AS total "
                      "FROM lineitem WHERE l_shipdate <= 19980801 GROUP BY l_shipmode "
                      "ORDER BY l_shipmode"),
        # Q3-shape: 3-way join with segment filter and top-n
        ("q03-shape", "SELECT o_orderkey, SUM(l_extendedprice) AS revenue FROM customer "
                      "JOIN orders ON c_custkey = o_custkey "
                      "JOIN lineitem ON o_orderkey = l_orderkey "
                      "WHERE c_mktsegment = 'BUILDING' GROUP BY o_orderkey "
                      "ORDER BY o_orderkey LIMIT 20"),
        # Q6-shape: range + discount band aggregate
        ("q06-shape", "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
                      "WHERE l_shipdate >= 19940101 AND l_shipdate < 19950101 "
                      "AND l_discount BETWEEN 0.05 AND 0.07"),
        # Q12-shape: shipmode IN-list with late/commit comparison
        ("q12-shape", "SELECT l_shipmode, COUNT(*) AS cnt FROM lineitem "
                      "WHERE l_shipmode IN ('MAIL', 'SHIP') AND l_commitdate < l_receiptdate "
                      "GROUP BY l_shipmode ORDER BY l_shipmode"),
        ("join-nation", "SELECT n_name, COUNT(*) AS suppliers FROM supplier "
                        "JOIN nation ON s_nationkey = n_nationkey "
                        "GROUP BY n_name ORDER BY n_name"),
        ("orders-prio", "SELECT o_orderpriority, COUNT(*) AS cnt FROM orders "
                        "GROUP BY o_orderpriority ORDER BY o_orderpriority"),
        ("lineitem-topn", "SELECT l_orderkey, l_extendedprice FROM lineitem "
                          "ORDER BY l_extendedprice DESC LIMIT 15"),
        ("orders-distinct", "SELECT DISTINCT o_shippriority FROM orders"),
        ("orders-filter-proj", "SELECT o_orderkey, o_custkey FROM orders "
                               "WHERE o_orderdate > 19970601 ORDER BY o_orderkey LIMIT 50"),
        ("customer-seg", "SELECT c_mktsegment, COUNT(*) AS cnt FROM customer "
                         "GROUP BY c_mktsegment ORDER BY c_mktsegment"),
        ("lineitem-case", "SELECT SUM(CASE WHEN l_discount > 0.05 THEN 1 ELSE 0 END) "
                          "AS discounted FROM lineitem"),
        ("join-qualified", "SELECT o.o_orderkey, l.l_extendedprice FROM orders o "
                           "JOIN lineitem l ON o_orderkey = l_orderkey "
                           "WHERE l.l_discount >= 0.10 ORDER BY o.o_orderkey, "
                           "l.l_extendedprice LIMIT 25"),
        ("agg-minmax", "SELECT MIN(l_shipdate) AS lo, MAX(l_shipdate) AS hi, "
                       "AVG(l_discount) AS mid FROM lineitem"),
    ]
    return [Query(f"tpch/{qid}", sql) for qid, sql in queries]


def publicbi_corpus() -> List[Query]:
    """PublicBI-style profile probes over the ``profiles`` table."""
    queries = [
        ("city-counts", "SELECT city, COUNT(*) AS cnt FROM profiles "
                        "WHERE city IS NOT NULL GROUP BY city ORDER BY city"),
        ("score-band", "SELECT pid, score FROM profiles "
                       "WHERE score BETWEEN 25.0 AND 75.0 ORDER BY pid"),
        ("visit-histogram", "SELECT visits, COUNT(*) AS cnt FROM profiles "
                            "GROUP BY visits ORDER BY visits"),
        ("distinct-city", "SELECT DISTINCT city FROM profiles WHERE city IS NOT NULL"),
        ("named-top", "SELECT pname, visits FROM profiles WHERE pname IS NOT NULL "
                      "ORDER BY visits DESC, pname LIMIT 10"),
        ("score-sum-visitors", "SELECT SUM(visits) AS total FROM profiles "
                               "WHERE score IS NOT NULL"),
    ]
    return [Query(f"publicbi/{qid}", sql) for qid, sql in queries]


def null_corpus() -> List[Query]:
    """NULL-semantics probes (several are manifest-tracked gaps)."""
    queries = [
        ("is-null", "SELECT pid FROM profiles WHERE pname IS NULL ORDER BY pid"),
        ("is-not-null", "SELECT pid FROM profiles WHERE city IS NOT NULL ORDER BY pid"),
        ("eq-null-literal", "SELECT pid FROM profiles WHERE pname = NULL"),
        ("null-excluded-eq", "SELECT pid FROM profiles WHERE city = 'berlin' ORDER BY pid"),
        ("null-excluded-ne", "SELECT pid FROM profiles WHERE city <> 'berlin' ORDER BY pid"),
        ("null-excluded-lt", "SELECT pid FROM profiles WHERE score < 50.0 ORDER BY pid"),
        ("null-in-list", "SELECT pid FROM profiles WHERE city IN ('berlin', 'espoo') "
                         "ORDER BY pid"),
        ("float-null-filter", "SELECT pid, score FROM profiles WHERE score IS NULL "
                              "ORDER BY pid"),
        ("agg-count-col", "SELECT COUNT(pname) AS named FROM profiles"),
        ("agg-sum-nan", "SELECT SUM(score) AS total FROM profiles"),
        ("agg-min-nan", "SELECT MIN(score) AS lo, MAX(score) AS hi FROM profiles"),
        ("agg-empty-sum", "SELECT SUM(visits) AS total FROM profiles WHERE pid < 0"),
        ("order-by-null-first", "SELECT pid, score FROM profiles ORDER BY score, pid LIMIT 5"),
        ("not-over-null-comparison", "SELECT pid FROM profiles "
                                     "WHERE NOT (city = 'berlin') ORDER BY pid"),
        # NULL join keys match nothing, NULL = NULL included
        ("join-null-key", "SELECT pid, rid FROM profiles JOIN regions ON city = rcity "
                          "ORDER BY pid, rid"),
        ("join-null-key-float", "SELECT pid, rid FROM profiles JOIN regions "
                                "ON score = rscore ORDER BY pid, rid"),
        # NULL group / distinct keys form one group of their own
        ("group-by-null-key", "SELECT city, COUNT(*) AS cnt FROM profiles GROUP BY city"),
        ("distinct-null-key", "SELECT DISTINCT city FROM profiles"),
        ("distinct-null-key-multi", "SELECT DISTINCT city, visits FROM profiles"),
    ]
    return [Query(f"null/{qid}", sql) for qid, sql in queries]


def feature_corpus() -> List[Query]:
    """Grammar-feature probes: LIMIT/OFFSET, qualifiers, expressions."""
    queries = [
        ("limit-zero", "SELECT eid FROM events ORDER BY eid LIMIT 0"),
        ("limit-offset", "SELECT eid FROM events ORDER BY eid LIMIT 10 OFFSET 25"),
        ("limit-comma", "SELECT eid FROM events ORDER BY eid LIMIT 25, 10"),
        ("offset-past-end", "SELECT eid FROM events ORDER BY eid LIMIT 10 OFFSET 10000"),
        ("qualified-simple", "SELECT e.eid FROM events e WHERE e.flag = 1 "
                             "ORDER BY e.eid LIMIT 20"),
        ("arith-expr", "SELECT eid, amount * 2.0 + 1.0 AS adjusted FROM events "
                       "WHERE eid < 20 ORDER BY eid"),
        ("neg-literal", "SELECT eid FROM events WHERE amount > -1 ORDER BY eid LIMIT 5"),
        ("case-projection", "SELECT eid, CASE WHEN flag = 1 THEN 'on' ELSE 'off' END "
                            "AS state FROM events WHERE eid < 15 ORDER BY eid"),
        ("between-ints", "SELECT eid FROM events WHERE eid BETWEEN 40 AND 49 ORDER BY eid"),
        ("in-strings", "SELECT eid, etype FROM events WHERE etype IN ('click', 'buy') "
                       "ORDER BY eid LIMIT 30"),
        ("distinct-pair", "SELECT DISTINCT etype, flag FROM events"),
        ("or-predicate", "SELECT eid FROM events WHERE eid < 5 OR eid > 295 ORDER BY eid"),
    ]
    return [Query(f"feature/{qid}", sql) for qid, sql in queries]


def join_where_corpus() -> List[Query]:
    """WHERE over joins: binding moves each single-table conjunct onto
    its scan and keeps the rest above the join."""
    queries = [
        ("both-sides-plus-cross", "SELECT o_orderpriority, COUNT(*) AS n, "
                                  "SUM(l_extendedprice) AS total FROM orders "
                                  "JOIN lineitem ON o_orderkey = l_orderkey "
                                  "WHERE o_orderdate < 19960101 AND l_discount >= 0.04 "
                                  "AND l_shipdate > o_orderdate "
                                  "GROUP BY o_orderpriority ORDER BY o_orderpriority"),
        ("or-across-tables", "SELECT o_orderkey, l_extendedprice FROM orders "
                             "JOIN lineitem ON o_orderkey = l_orderkey "
                             "WHERE o_orderpriority = '1-URGENT' OR l_discount > 0.09"),
        ("not-one-side", "SELECT l_shipmode, COUNT(*) AS n FROM orders "
                         "JOIN lineitem ON o_orderkey = l_orderkey "
                         "WHERE NOT (l_shipmode = 'MAIL') AND o_orderdate >= 19950101 "
                         "GROUP BY l_shipmode"),
        ("is-null-one-side", "SELECT pid, rid FROM profiles JOIN regions ON city = rcity "
                             "WHERE pname IS NULL"),
        ("is-not-null-both-sides", "SELECT pid, rid, score FROM profiles "
                                   "JOIN regions ON city = rcity "
                                   "WHERE score IS NOT NULL AND rscore IS NOT NULL"),
        ("count-3way", "SELECT COUNT(*) AS n FROM customer "
                       "JOIN orders ON c_custkey = o_custkey "
                       "JOIN lineitem ON o_orderkey = l_orderkey "
                       "WHERE c_mktsegment = 'MACHINERY' AND l_shipmode <> 'AIR'"),
        ("partitioned-side", "SELECT o_orderpriority, COUNT(*) AS n, SUM(sh_weight) AS w "
                             "FROM shipments JOIN orders ON sh_orderkey = o_orderkey "
                             "WHERE sh_weight > 5.0 AND o_orderdate < 19970101 "
                             "GROUP BY o_orderpriority ORDER BY o_orderpriority"),
    ]
    return [Query(f"join/{qid}", sql) for qid, sql in queries]


def random_select_corpus(seed: int = 7, count: int = 12) -> List[Query]:
    """Seeded randomized SELECTs over ``events`` and ``profiles``.

    The generator draws from the supported grammar only (filters,
    IN-lists, BETWEEN, aggregates, ORDER BY + LIMIT/OFFSET) and from the
    tables' actual value domains, so every generated query is
    executable on both engines.  Same seed → same corpus.
    """
    rng = random.Random(seed)
    tables = {
        "events": {
            "int": ["eid", "flag"],
            "float": ["amount"],
            "str": [("etype", ["click", "view", "buy"])],
        },
        "profiles": {
            "int": ["pid", "visits"],
            "float": ["score"],
            "str": [("city", ["amsterdam", "berlin", "chicago", "dresden", "espoo"])],
        },
    }
    queries: List[Query] = []
    for i in range(count):
        tname = rng.choice(sorted(tables))
        spec = tables[tname]
        preds = []
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice(["int", "float", "str"])
            if kind == "int":
                column = rng.choice(spec["int"])
                op = rng.choice(["<", "<=", ">", ">=", "=", "<>"])
                preds.append(f"{column} {op} {rng.randint(0, 60)}")
            elif kind == "float":
                column = rng.choice(spec["float"])
                lo = round(rng.uniform(0, 40), 2)
                preds.append(f"{column} BETWEEN {lo} AND {round(lo + 30.0, 2)}")
            else:
                column, domain = rng.choice(spec["str"])
                chosen = rng.sample(domain, rng.randint(1, 2))
                quoted = ", ".join(f"'{v}'" for v in chosen)
                preds.append(f"{column} IN ({quoted})")
        connector = rng.choice([" AND ", " OR "])
        where = connector.join(preds)
        key = spec["int"][0]
        if rng.random() < 0.4:
            agg = rng.choice(["COUNT(*)", f"SUM({spec['int'][1]})", f"MIN({key})"])
            sql = f"SELECT {agg} AS v FROM {tname} WHERE {where}"
        else:
            limit = rng.randint(5, 40)
            offset = rng.choice([0, 0, rng.randint(1, 20)])
            tail = f" LIMIT {limit}" + (f" OFFSET {offset}" if offset else "")
            sql = (
                f"SELECT {key} FROM {tname} WHERE {where} ORDER BY {key}{tail}"
            )
        queries.append(Query(f"rand/s{seed}-{i:02d}", sql))
    return queries


def random_dml_corpus(seed: int = 11, rounds: int = 6) -> List[Query]:
    """Seeded randomized DML mix over ``events`` (INSERT/UPDATE/DELETE).

    Each statement names its target table so :meth:`DifferentialPair.apply`
    verifies full table content after every mutation — an UPDATE that
    touches the right number of the wrong rows is caught.  Same seed →
    same mix.  NULL-free: ``events`` has an INT64 key column and the mix
    must be applicable on both engines identically.
    """
    rng = random.Random(seed)
    queries: List[Query] = []
    next_eid = 100_000  # far above the loaded key range
    for i in range(rounds):
        roll = rng.random()
        if roll < 0.4:
            rows = ", ".join(
                f"({next_eid + j}, '{rng.choice(['click', 'view', 'buy'])}', "
                f"{round(rng.uniform(0, 50), 2)}, {rng.randint(0, 1)})"
                for j in range(rng.randint(1, 3))
            )
            next_eid += 3
            sql = f"INSERT INTO events (eid, etype, amount, flag) VALUES {rows}"
        elif roll < 0.75:
            bump = round(rng.uniform(0.5, 5.0), 2)
            lo = rng.randint(0, 250)
            sql = (
                f"UPDATE events SET amount = amount + {bump} "
                f"WHERE eid >= {lo} AND eid < {lo + rng.randint(5, 40)}"
            )
        else:
            victim = rng.randint(0, 280)
            sql = f"DELETE FROM events WHERE eid = {victim}"
        queries.append(Query(f"dml/s{seed}-{i:02d}", sql, kind="dml", table="events"))
    return queries


def default_corpus(seed: int = 7) -> List[Query]:
    """The full versioned corpus (see ``CORPUS_VERSION``)."""
    corpus = list(
        itertools.chain(
            tpch_corpus(),
            publicbi_corpus(),
            null_corpus(),
            feature_corpus(),
            join_where_corpus(),
            random_select_corpus(seed=seed),
            random_dml_corpus(seed=seed + 4),
        )
    )
    ids = [q.qid for q in corpus]
    if len(set(ids)) != len(ids):
        dupes = sorted({q for q in ids if ids.count(q) > 1})
        raise ValueError(f"duplicate corpus query ids: {dupes}")
    return corpus


# ----------------------------------------------------------------------
# corpus runner
# ----------------------------------------------------------------------
@dataclasses.dataclass
class DifferentialReport:
    """Outcome of one corpus run, strict about the xfail manifest.

    ``passed`` / ``xfailed`` collect query ids; ``mismatches`` holds
    *unexplained* divergences, ``unsupported`` holds rejected SQL, and
    ``xpassed`` holds manifest entries that no longer diverge (stale
    excuses — also a failure).
    """

    passed: List[str] = dataclasses.field(default_factory=list)
    xfailed: Dict[str, str] = dataclasses.field(default_factory=dict)
    xpassed: List[str] = dataclasses.field(default_factory=list)
    mismatches: List[ResultMismatch] = dataclasses.field(default_factory=list)
    unsupported: List[UnsupportedSQL] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing unexplained happened (strict xfail)."""
        return not self.mismatches and not self.unsupported and not self.xpassed

    def summary(self) -> str:
        """One-line human-readable tally."""
        return (
            f"differential corpus v{CORPUS_VERSION}: {len(self.passed)} passed, "
            f"{len(self.xfailed)} xfailed, {len(self.xpassed)} XPASS, "
            f"{len(self.mismatches)} mismatched, {len(self.unsupported)} unsupported"
        )


def run_corpus(
    pair: DifferentialPair,
    corpus: Optional[Sequence[Query]] = None,
    manifest: Optional[Dict[str, str]] = None,
) -> DifferentialReport:
    """Run a corpus through a pair and tally outcomes (strict xfail).

    A query in the manifest must diverge (else it lands in ``xpassed``);
    a query outside it must agree (else ``mismatches``/``unsupported``).
    """
    corpus = default_corpus() if corpus is None else corpus
    manifest = XFAIL_MANIFEST if manifest is None else manifest
    report = DifferentialReport()
    for query in corpus:
        expected_reason = manifest.get(query.qid)
        try:
            if query.kind == "dml":
                pair.apply(query)
            else:
                pair.check(query)
        except ResultMismatch as exc:
            if expected_reason is not None:
                report.xfailed[query.qid] = expected_reason
            else:
                report.mismatches.append(exc)
        except UnsupportedSQL as exc:
            if expected_reason is not None:
                report.xfailed[query.qid] = expected_reason
            else:
                report.unsupported.append(exc)
        else:
            if expected_reason is not None:
                report.xpassed.append(query.qid)
            else:
                report.passed.append(query.qid)
    return report
