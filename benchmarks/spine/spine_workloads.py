"""Data, statement scripts and numpy oracles of the four spine workloads.

Everything a workload feeds the program is generated here with numpy
from the run's seed: the program under test sees only tables and SQL
text.  Every statement carries the answer the spine expects for it,
computed from a numpy shadow copy of the tables that the spine updates
itself, so a wrong result is a counted failure and never a timing.

All four workloads are mixes of the same nine statement classes — four
read families (distinct, sort, join, agg), point lookups, and the three
DML types — in different proportions, because the benchmark contract
wants every end-to-end metric measured on every workload:

* ``pi_query`` / ``plain_query``: the Fig. 7 + Fig. 10 read script plus
  a one-statement-each refresh tail (TPC-H RF1/RF2 in miniature) that
  leaves the tables as it found them.
* ``pi_update``: the Fig. 9 write script plus one check read per family.
* ``tcp_mixed``: tiny statements over TCP, mostly point reads.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import shutil
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import NearlySortedColumn, NearlyUniqueColumn, PatchIndexManager
from repro.server import AsyncSQLClient, ServerError, SQLServer
from repro.sql import SQLSession
from repro.storage import Catalog, Table

READ_FAMILIES = ("distinct", "sort", "join", "agg")
WORKLOADS = ("pi_query", "plain_query", "pi_update", "tcp_mixed")

#: point lookups per facts table and round: a clear majority of the
#: round's reads, so ``read_p50_ms`` is a lookup and not the boundary
#: between lookups and the fastest big read
LOOKUPS = 12

#: deployment settings of ``tcp_mixed`` (everything else is a default)
WAL_SYNC = "group"
CHECKPOINT_INTERVAL = 500

SHIP_MODES = ["MAIL", "SHIP", "AIR", "RAIL", "TRUCK", "FOB", "REG AIR"]
SEGMENTS = ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
HIGH_PRIORITIES = PRIORITIES[:2]

#: dates are day numbers; orders span [0, ORDER_DAYS)
ORDER_DAYS = 2400
Q3_DAY = 1200
Q12_LO, Q12_HI = 800, 1165
Q1_DAY = 2450
Q6_LO, Q6_HI = 800, 1165


# ----------------------------------------------------------------------
# statements and their expected answers
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Expected:
    """The relation a read must return.

    ``order`` is ``"set"`` (any row order), ``"keyed"`` (the ``keys``
    columns must come back in exactly this order, ties among the other
    columns free) or ``"exact"`` (row for row).
    """

    columns: Dict[str, np.ndarray]
    order: str = "set"
    keys: Tuple[str, ...] = ()
    _sorted: Optional[Dict[str, np.ndarray]] = None

    def sorted_columns(self) -> Dict[str, np.ndarray]:
        """The columns in canonical row order (computed once: reads repeat)."""
        if self._sorted is None:
            self._sorted = _canonical(self.columns)
        return self._sorted


@dataclasses.dataclass
class Stmt:
    """One SQL statement, its class, and the answer the spine expects."""

    sql: str
    family: str
    expect: object  # Expected for reads, the affected-row count for DML

    @property
    def is_read(self) -> bool:
        return isinstance(self.expect, Expected)


def result_columns(result) -> Dict[str, np.ndarray]:
    """A read's columns, from a Relation or a wire ``ClientResult``."""
    if hasattr(result, "column_names"):
        return {n: result.column(n) for n in result.column_names}
    names = result.columns or []
    cols = list(zip(*result.rows)) if result.rows else [[] for _ in names]
    return {n: np.asarray(c) for n, c in zip(names, cols)}


def _is_float(arr: np.ndarray) -> bool:
    return np.issubdtype(arr.dtype, np.floating)


def _same(got: np.ndarray, exp: np.ndarray) -> bool:
    if _is_float(got) or _is_float(exp):
        return bool(
            np.allclose(
                got.astype(np.float64), exp.astype(np.float64), rtol=1e-9, atol=1e-9
            )
        )
    return bool(np.array_equal(got, exp))


def _canonical(cols: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """``cols`` with the rows sorted by the non-float columns, then the floats."""
    ordered = sorted(cols, key=lambda n: _is_float(cols[n]))
    if any(cols[n].dtype == object for n in ordered):
        rows = list(zip(*(cols[n].tolist() for n in ordered)))
        order = np.asarray(sorted(range(len(rows)), key=rows.__getitem__), dtype=np.int64)
    else:
        order = np.lexsort(tuple(cols[n] for n in reversed(ordered)))
    return {n: arr[order] for n, arr in cols.items()}


def check_statement(stmt: Stmt, result) -> Optional[str]:
    """``None`` when ``result`` is what ``stmt`` expects, else the reason.

    ``result`` may be the exception the statement raised: a failed
    statement is a wrong answer.
    """
    why = _mismatch(stmt, result)
    return None if why is None else f"{stmt.sql[:80]}: {why}"


def _mismatch(stmt: Stmt, result) -> Optional[str]:
    if isinstance(result, Exception):
        return repr(result)
    exp = stmt.expect
    if not isinstance(exp, Expected):
        count = result if isinstance(result, (int, np.integer)) else result.row_count
        return None if int(count) == exp else f"row count {count} != {exp}"
    got = result_columns(result)
    names = list(exp.columns)
    if set(got) != set(names):
        return f"columns {sorted(got)} != {sorted(names)}"
    n = len(exp.columns[names[0]])
    if any(len(got[c]) != n for c in names):
        return f"row count {len(got[names[0]])} != {n}"
    bad = [c for c in names if not _same(got[c], exp.columns[c])]
    if not bad:
        return None
    if exp.order == "exact" or set(bad) & set(exp.keys):
        return f"columns {bad} differ"
    got, want = _canonical(got), exp.sorted_columns()
    bad = [c for c in names if not _same(got[c], want[c])]
    return f"columns {bad} differ as multisets" if bad else None


# ----------------------------------------------------------------------
# data generation
# ----------------------------------------------------------------------
FACT_COLUMNS = ("k", "u", "s", "g", "p0", "p1")


def facts_columns(n: int, e: float, rng: np.random.Generator) -> Dict[str, np.ndarray]:
    """``k`` unique; ``u`` nearly unique and ``s`` nearly sorted at rate ``e``."""
    n_exc = int(round(e * n))
    k = np.arange(n, dtype=np.int64)
    u = k + n
    u[rng.choice(n, n_exc, replace=False)] = rng.integers(0, max(2, n_exc // 4), n_exc)
    s = 4 * k
    s[rng.choice(n, n_exc, replace=False)] = rng.integers(0, 4 * n, n_exc)
    return {
        "k": k,
        "u": u,
        "s": s,
        "g": rng.integers(0, 100, n),
        "p0": rng.integers(0, 1 << 30, n),
        "p1": rng.integers(0, 1 << 20, n) / 1024.0,
    }


def new_fact_rows(
    first_k: int, count: int, fresh_u: int, existing_u: np.ndarray,
    collide: float, unsorted: float, rng: np.random.Generator,
) -> Dict[str, np.ndarray]:
    """Rows to insert: fresh ascending keys, mostly fresh ``u`` and ``s``.

    ``collide`` of the ``u`` values repeat values already in the table
    (NUC patches on both sides), ``unsorted`` of the ``s`` values fall
    below the sorted run (NSC patches).
    """
    k = np.arange(first_k, first_k + count, dtype=np.int64)
    u = k + fresh_u
    n_col = int(round(collide * count))
    u[rng.choice(count, n_col, replace=False)] = rng.choice(existing_u, n_col)
    s = 4 * k
    n_uns = int(round(unsorted * count))
    s[rng.choice(count, n_uns, replace=False)] = rng.integers(0, 4 * first_k, n_uns)
    return {
        "k": k,
        "u": u,
        "s": s,
        "g": rng.integers(0, 100, count),
        "p0": rng.integers(0, 1 << 30, count),
        "p1": rng.integers(0, 1 << 20, count) / 1024.0,
    }


def insert_sql(table: str, columns: Dict[str, np.ndarray]) -> str:
    names = list(columns)
    rows = zip(*(columns[n].tolist() for n in names))
    values = ",".join("(" + ",".join(repr(v) for v in row) + ")" for row in rows)
    return f"INSERT INTO {table} ({','.join(names)}) VALUES {values}"


def _table(name: str, columns: Dict[str, np.ndarray]) -> Table:
    """A table over copies, so the spine's shadow arrays stay its own."""
    return Table.from_arrays(name, {c: v.copy() for c, v in columns.items()})


def _strings(values: List[str], idx: np.ndarray) -> np.ndarray:
    return np.array(values, dtype=object)[idx]


def tpch_columns(scale: float, perturb: float, rng: np.random.Generator):
    """customer / orders / lineitem in TPC-H's shape, dates as day numbers.

    ``orders`` is stored sorted on ``o_orderkey``; ``lineitem`` is
    clustered on ``l_orderkey`` except for ``perturb`` of its rows,
    which are shuffled among themselves (the paper's §6.3 manipulation).
    """
    n_cust = max(10, int(150_000 * scale))
    n_ord = max(20, int(1_500_000 * scale))
    customer = {
        "c_custkey": np.arange(n_cust, dtype=np.int64),
        "c_mktsegment": _strings(SEGMENTS, rng.integers(0, len(SEGMENTS), n_cust)),
    }
    o_date = rng.integers(0, ORDER_DAYS, n_ord)
    orders = {
        "o_orderkey": np.arange(n_ord, dtype=np.int64),
        "o_custkey": rng.integers(0, n_cust, n_ord),
        "o_orderdate": o_date,
        "o_shippriority": np.zeros(n_ord, dtype=np.int64),
        "o_orderpriority": _strings(PRIORITIES, rng.integers(0, len(PRIORITIES), n_ord)),
    }
    per_order = rng.integers(1, 8, n_ord)
    l_key = np.repeat(orders["o_orderkey"], per_order)
    n = len(l_key)
    ship = np.repeat(o_date, per_order) + rng.integers(1, 122, n)
    lineitem = {
        "l_orderkey": l_key,
        "l_extendedprice": (rng.random(n) * 90_000 + 1_000).round(2),
        "l_discount": rng.integers(0, 11, n) / 100.0,
        "l_shipdate": ship,
        "l_commitdate": np.repeat(o_date, per_order) + rng.integers(30, 91, n),
        "l_receiptdate": ship + rng.integers(1, 31, n),
        "l_shipmode": _strings(SHIP_MODES, rng.integers(0, len(SHIP_MODES), n)),
    }
    moved = rng.choice(n, max(2, int(round(perturb * n))), replace=False)
    shuffled = rng.permutation(moved)
    for name, arr in lineitem.items():
        arr[moved] = arr[shuffled]
    return customer, orders, lineitem


# ----------------------------------------------------------------------
# read statements and their numpy ground truth
# ----------------------------------------------------------------------
def _grouped(keys: np.ndarray, **sums: np.ndarray):
    uniq, inv = np.unique(keys, return_inverse=True)
    return uniq, {n: np.bincount(inv, weights=v, minlength=len(uniq)) for n, v in sums.items()}


def fact_reads(table: str, cols: Dict[str, np.ndarray], limit: Optional[int]) -> List[Stmt]:
    """The distinct and sort statements of Fig. 7 on one facts table."""
    if limit is None:
        order = np.argsort(cols["s"], kind="stable")
        sort = Stmt(
            f"SELECT s, p0 FROM {table} ORDER BY s",
            "sort",
            Expected({"s": cols["s"][order], "p0": cols["p0"][order]}, "keyed", ("s",)),
        )
    else:
        sort = Stmt(
            f"SELECT s FROM {table} ORDER BY s LIMIT {limit}",
            "sort",
            Expected({"s": np.sort(cols["s"])[:limit]}, "exact"),
        )
    return [
        Stmt(f"SELECT DISTINCT u FROM {table}", "distinct", Expected({"u": np.unique(cols["u"])})),
        sort,
    ]


def fact_lookups(
    table: str, cols: Dict[str, np.ndarray], count: int, rng: np.random.Generator
) -> List[Stmt]:
    out = []
    for i in rng.integers(0, len(cols["k"]), count).tolist():
        row = {c: cols[c][i : i + 1].copy() for c in ("k", "u", "s", "p0")}
        out.append(
            Stmt(
                f"SELECT k, u, s, p0 FROM {table} WHERE k = {int(cols['k'][i])}",
                "point",
                Expected(row, "exact"),
            )
        )
    return out


def tpch_reads(customer, orders, lineitem) -> List[Stmt]:
    """Q3- and Q12-shaped joins, Q1- and Q6-shaped aggregates."""
    li = lineitem
    revenue = li["l_extendedprice"] * (1.0 - li["l_discount"])
    o_row = np.searchsorted(orders["o_orderkey"], li["l_orderkey"])

    building = customer["c_custkey"][customer["c_mktsegment"] == "BUILDING"]
    o_ok = (orders["o_orderdate"] < Q3_DAY) & np.isin(orders["o_custkey"], building)
    sel = (li["l_shipdate"] > Q3_DAY) & o_ok[o_row]
    keys, sums = _grouped(li["l_orderkey"][sel], revenue=revenue[sel])
    dates = orders["o_orderdate"][np.searchsorted(orders["o_orderkey"], keys)]
    top = np.lexsort((dates, -sums["revenue"]))[:10]
    q3 = Stmt(
        "SELECT l_orderkey, o_orderdate, o_shippriority, "
        "SUM(l_extendedprice * (1.0 - l_discount)) AS revenue "
        "FROM customer JOIN orders ON c_custkey = o_custkey "
        "JOIN lineitem ON o_orderkey = l_orderkey "
        f"WHERE c_mktsegment = 'BUILDING' AND o_orderdate < {Q3_DAY} "
        f"AND l_shipdate > {Q3_DAY} "
        "GROUP BY l_orderkey, o_orderdate, o_shippriority "
        "ORDER BY revenue DESC, o_orderdate LIMIT 10",
        "join",
        Expected(
            {
                "l_orderkey": keys[top],
                "o_orderdate": dates[top],
                "o_shippriority": np.zeros(len(top), dtype=np.int64),
                "revenue": sums["revenue"][top],
            },
            "exact",
        ),
    )

    sel = (
        np.isin(li["l_shipmode"], ["MAIL", "SHIP"])
        & (li["l_commitdate"] < li["l_receiptdate"])
        & (li["l_shipdate"] < li["l_commitdate"])
        & (li["l_receiptdate"] >= Q12_LO)
        & (li["l_receiptdate"] < Q12_HI)
    )
    high = np.isin(orders["o_orderpriority"][o_row[sel]], HIGH_PRIORITIES)
    modes, sums = _grouped(li["l_shipmode"][sel].astype(str), high=high, low=~high)
    case = "SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN {} ELSE {} END)"
    q12 = Stmt(
        f"SELECT l_shipmode, {case.format(1, 0)} AS high_line_count, "
        f"{case.format(0, 1)} AS low_line_count "
        "FROM orders JOIN lineitem ON o_orderkey = l_orderkey "
        "WHERE l_shipmode IN ('MAIL', 'SHIP') AND l_commitdate < l_receiptdate "
        f"AND l_shipdate < l_commitdate AND l_receiptdate >= {Q12_LO} "
        f"AND l_receiptdate < {Q12_HI} GROUP BY l_shipmode ORDER BY l_shipmode",
        "join",
        Expected(
            {
                "l_shipmode": modes.astype(object),
                "high_line_count": sums["high"],
                "low_line_count": sums["low"],
            },
            "exact",
        ),
    )

    sel = li["l_shipdate"] <= Q1_DAY
    modes, sums = _grouped(
        li["l_shipmode"][sel].astype(str),
        price=li["l_extendedprice"][sel],
        disc_price=revenue[sel],
        disc=li["l_discount"][sel],
        n=np.ones(int(sel.sum())),
    )
    q1 = Stmt(
        "SELECT l_shipmode, SUM(l_extendedprice) AS sum_price, "
        "SUM(l_extendedprice * (1.0 - l_discount)) AS sum_disc_price, "
        "AVG(l_discount) AS avg_disc, COUNT(*) AS n FROM lineitem "
        f"WHERE l_shipdate <= {Q1_DAY} GROUP BY l_shipmode ORDER BY l_shipmode",
        "agg",
        Expected(
            {
                "l_shipmode": modes.astype(object),
                "sum_price": sums["price"],
                "sum_disc_price": sums["disc_price"],
                "avg_disc": sums["disc"] / sums["n"],
                "n": sums["n"],
            },
            "exact",
        ),
    )

    sel = (
        (li["l_shipdate"] >= Q6_LO)
        & (li["l_shipdate"] < Q6_HI)
        & (li["l_discount"] >= 0.05)
        & (li["l_discount"] <= 0.07)
    )
    q6 = Stmt(
        "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
        f"WHERE l_shipdate >= {Q6_LO} AND l_shipdate < {Q6_HI} "
        "AND l_discount BETWEEN 0.05 AND 0.07",
        "agg",
        Expected(
            {"revenue": np.array([(li["l_extendedprice"] * li["l_discount"])[sel].sum()])},
            "exact",
        ),
    )
    return [q3, q12, q1, q6]


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Sample:
    """One timed statement of a measured round."""

    family: str
    seconds: float
    is_read: bool


@dataclasses.dataclass
class RoundResult:
    seconds: float
    samples: List[Sample]
    errors: List[str]


class Workload:
    """What both kinds of workload share: a catalog and its indexes."""

    name = ""
    use_index = True

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        self.catalog: Optional[Catalog] = None
        self.manager: Optional[PatchIndexManager] = None
        #: seconds spent in each ``PatchIndexManager.create`` by constraint
        self.create_seconds: Dict[str, List[float]] = {"nuc": [], "nsc": []}

    def new_catalog(self, tables: List[Tuple[Table, List[str]]]) -> None:
        """Register ``tables``; build each one's ``"nuc:col"`` / ``"nsc:col"`` indexes."""
        self.catalog = Catalog()
        self.manager = PatchIndexManager(self.catalog) if self.use_index else None
        for table, indexes in tables:
            self.catalog.register(table)
            for spec in indexes if self.use_index else []:
                kind, column = spec.split(":")
                constraint = NearlyUniqueColumn() if kind == "nuc" else NearlySortedColumn()
                t0 = time.perf_counter()
                self.manager.create(table, column, constraint)
                self.create_seconds[kind].append(time.perf_counter() - t0)

    def indexes(self) -> list:
        return self.manager.indexes() if self.manager is not None else []

    def index_errors(self) -> List[str]:
        return [
            f"{self.name}: index on {handle.column} fails verify()"
            for handle in self.indexes()
            if not handle.verify()
        ]

    def plain_session(self) -> SQLSession:
        """A session over the same tables that never sees the indexes."""
        return SQLSession(self.catalog)

    def close(self) -> None:
        """Release what outlives :meth:`teardown`."""


class InProcessWorkload(Workload):
    """A workload driven through one blocking ``SQLSession``."""

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.session: Optional[SQLSession] = None

    # -- set-up ---------------------------------------------------------
    def build_tables(self, rng: np.random.Generator) -> List[Tuple[Table, List[str]]]:
        """Tables plus, per table, the indexes to build on it."""
        raise NotImplementedError

    def setup(self) -> None:
        self.stream = np.random.default_rng([self.seed, 1])
        self.new_catalog(self.build_tables(np.random.default_rng([self.seed, 0])))
        self.session = SQLSession(self.catalog, index_manager=self.manager)

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
        self.session = self.manager = self.catalog = None

    # -- rounds ---------------------------------------------------------
    def script(self, round_no: int) -> List[Stmt]:
        raise NotImplementedError

    def run_round(self, round_no: int, execute=None) -> RoundResult:
        """Time every statement of one round, then check the answers."""
        stmts = self.last_script = self.script(round_no)
        execute = execute or (lambda stmt: self.session.execute(stmt.sql))
        results, samples, errors = [], [], []
        clock = time.perf_counter
        t_round = clock()
        for stmt in stmts:
            t0 = clock()
            try:
                result = execute(stmt)
            except Exception as exc:  # a failed statement is a counted failure
                result = exc
            samples.append(Sample(stmt.family, clock() - t0, stmt.is_read))
            results.append(result)
        seconds = clock() - t_round
        for stmt, result in zip(stmts, results):
            why = check_statement(stmt, result)
            if why is not None:
                errors.append(f"{self.name} round {round_no}: {why}")
        return RoundResult(seconds, samples, errors)

    def storage_rows(self) -> Tuple[Table, Dict[str, np.ndarray]]:
        """The main table and 50 rows that could be inserted into it."""
        name = next(iter(self.shadow_tables()))
        table = self.catalog.table(name)
        top = int(table.column("k").max()) + 1
        return table, new_fact_rows(top, 50, 100 * top, table.column("u"), 0.0, 0.0, self.stream)

    # -- final checks ---------------------------------------------------
    def shadow_tables(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Table name -> the columns the spine's shadow copy says it holds."""
        raise NotImplementedError

    def final_errors(self) -> List[str]:
        errors = []
        for name, cols in self.shadow_tables().items():
            table = self.catalog.table(name)
            for col, exp in cols.items():
                if not _same(table.column(col), exp):
                    errors.append(f"{self.name}: table {name}.{col} differs from the shadow copy")
        return errors + self.index_errors()


class QueryWorkload(InProcessWorkload):
    """``pi_query`` / ``plain_query``: the read script and a refresh tail."""

    def __init__(self, seed: int, scale: float, use_index: bool) -> None:
        super().__init__(seed, scale)
        self.use_index = use_index
        self.name = "pi_query" if use_index else "plain_query"

    def build_tables(self, rng):
        n = max(2_000, int(200_000 * self.scale))
        self.facts = {
            "facts_e01": facts_columns(n, 0.01, rng),
            "facts_e20": facts_columns(n, 0.20, rng),
        }
        self.tpch = tpch_columns(0.03 * self.scale, 0.05, rng)
        self.next_k = n
        self.reads: Optional[List[Stmt]] = None
        out = [
            (_table(name, cols), ["nuc:u", "nsc:s"])
            for name, cols in self.facts.items()
        ]
        for name, cols in zip(("customer", "orders", "lineitem"), self.tpch):
            out.append((_table(name, cols), ["nsc:l_orderkey"] * (name == "lineitem")))
        return out

    def script(self, round_no):
        if self.reads is None:
            # the refresh tail restores the tables, so every round reads
            # the same data and the ground truth is computed once
            self.reads = [
                s for name, cols in self.facts.items() for s in fact_reads(name, cols, None)
            ] + tpch_reads(*self.tpch)
        lookups = [
            s
            for name, cols in self.facts.items()
            for s in fact_lookups(name, cols, LOOKUPS, self.stream)
        ]
        base = self.facts["facts_e01"]
        tail = []
        for _ in range(2):
            lo, hi = self.next_k, self.next_k + 50
            self.next_k = hi
            rows = new_fact_rows(lo, 50, 10 * len(base["k"]), base["u"], 0.2, 0.05, self.stream)
            where = f"WHERE k >= {lo} AND k < {hi}"
            tail += [
                Stmt(insert_sql("facts_e01", rows), "insert", 50),
                Stmt(f"UPDATE facts_e01 SET u = 0 - k, s = s + 1 {where}", "modify", 50),
                Stmt(f"DELETE FROM facts_e01 {where}", "delete", 50),
            ]
        return self.reads + lookups + tail

    def shadow_tables(self):
        return dict(self.facts)


class UpdateWorkload(InProcessWorkload):
    """``pi_update``: DML on one table carrying a NUC and an NSC index."""

    name = "pi_update"

    def build_tables(self, rng):
        n = max(5_000, int(200_000 * self.scale))
        self.rows = facts_columns(n, 0.05, rng)
        self.fresh_u = 10 * n
        self.next_k = n
        self.bulk = max(100, int(2_000 * self.scale))
        self.pending: List[Tuple[int, int]] = []
        self.dims = {"d_g": np.arange(100, dtype=np.int64), "d_band": np.arange(100) // 10}
        return [
            (_table("facts", self.rows), ["nuc:u", "nsc:s"]),
            (_table("dims", self.dims), []),
        ]

    def _insert(self, count: int, collide: float, family: str) -> Stmt:
        rows = new_fact_rows(
            self.next_k, count, self.fresh_u, self.rows["u"], collide, 0.05, self.stream
        )
        self.next_k += count
        self.rows = {c: np.concatenate([self.rows[c], rows[c]]) for c in FACT_COLUMNS}
        return Stmt(insert_sql("facts", rows), family, count)

    def _range(self, count: int) -> Tuple[int, int]:
        """A key range ``[lo, hi)`` covering exactly ``count`` live rows."""
        k = self.rows["k"]
        i = int(self.stream.integers(0, len(k) - count))
        return int(k[i]), int(k[i + count])

    def _rows(self, lo: int, hi: int) -> slice:
        """Shadow positions of the live rows with ``lo <= k < hi``."""
        i, j = np.searchsorted(self.rows["k"], [lo, hi])
        return slice(int(i), int(j))

    def _delete(self, lo: int, hi: int, family: str) -> Stmt:
        rows = self._rows(lo, hi)
        keep = np.ones(len(self.rows["k"]), dtype=bool)
        keep[rows] = False
        self.rows = {c: v[keep] for c, v in self.rows.items()}
        count = rows.stop - rows.start
        return Stmt(f"DELETE FROM facts WHERE k >= {lo} AND k < {hi}", family, count)

    def script(self, round_no):
        # Each round deletes the ranges the previous round updated: the
        # check reads still see 300 updated rows, but the NSC patch set
        # (every updated row is a patch) stops growing, so round 30
        # measures what round 1 measured.
        out, updated = [], []
        for i in range(6):
            out.append(self._insert(50, 0.2, "insert"))
            lo, hi = self._range(50)
            rows = self._rows(lo, hi)
            self.rows["u"][rows] = -self.rows["k"][rows]
            self.rows["s"][rows] += 1
            where = f"WHERE k >= {lo} AND k < {hi}"
            out.append(Stmt(f"UPDATE facts SET u = 0 - k, s = s + 1 {where}", "modify", 50))
            updated.append((lo, hi))
            victim = self.pending[i] if self.pending else self._range(50)
            out.append(self._delete(*victim, "delete"))
        self.pending = updated
        out.append(self._insert(self.bulk, 0.05, "bulk_insert"))
        out.append(self._delete(*self._range(self.bulk), "bulk_delete"))

        r = self.rows
        out += fact_reads("facts", r, 1000)
        bands, sums = _grouped(r["g"] // 10, n=np.ones(len(r["g"])), sp=r["p1"])
        out.append(
            Stmt(
                "SELECT d_band, COUNT(*) AS n, SUM(p1) AS sp FROM dims JOIN facts ON d_g = g "
                "GROUP BY d_band",
                "join",
                Expected({"d_band": bands, "n": sums["n"], "sp": sums["sp"]}),
            )
        )
        groups, sums = _grouped(r["g"], n=np.ones(len(r["g"])), sp=r["p0"])
        out.append(
            Stmt(
                "SELECT g, COUNT(*) AS n, SUM(p0) AS sp FROM facts GROUP BY g",
                "agg",
                Expected({"g": groups, "n": sums["n"], "sp": sums["sp"]}),
            )
        )
        return out + fact_lookups("facts", r, LOOKUPS, self.stream)

    def shadow_tables(self):
        return {"facts": self.rows}


#: statements per client and round in ``tcp_mixed``, by class
TCP_MIX = {
    "point": 100, "agg": 40, "distinct": 8, "sort": 8, "join": 4,
    "insert": 20, "modify": 14, "delete": 6,
}
TCP_RANGE = 100


class TcpWorkload(Workload):
    """``tcp_mixed``: closed-loop clients against one ``SQLServer``.

    Each client reads and writes only the rows it owns (``owner`` column,
    ``eid % clients``), so the answer to every statement follows from
    that client's own earlier statements whatever the interleaving.

    The process is pinned to one CPU while the workload lives.  Clients,
    event loop and the session's worker threads share one interpreter
    lock; left unpinned, the kernel at some point spreads them over two
    CPUs, context switches quadruple and every statement gets 1.5x
    slower — a run is then a random mix of two modes.
    """

    name = "tcp_mixed"

    def __init__(self, seed: int, scale: float, work_dir: str) -> None:
        super().__init__(seed, scale)
        self.work_dir = work_dir
        self.clients_n = min(os.cpu_count() or 1, 2)
        self.affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.affinity)})
        self.loop = asyncio.new_event_loop()
        self.server: Optional[SQLServer] = None
        self.clients: List[AsyncSQLClient] = []
        self.data_dir: Optional[str] = None
        self.error_frames = 0

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.streams = [np.random.default_rng([self.seed, 1, c]) for c in range(self.clients_n)]
        n = max(2_000, int(20_000 * self.scale))
        cap = n + 200_000
        eid = np.arange(n, dtype=np.int64)
        self.alive = np.zeros(cap, dtype=bool)
        self.alive[:n] = True
        self.cat = np.zeros(cap, dtype=np.int64)
        self.cat[:n] = rng.integers(0, 20, n)
        self.val = np.zeros(cap, dtype=np.int64)
        self.val[:n] = rng.integers(0, 1000, n)
        self.next_eid = [n + (c - n) % self.clients_n for c in range(self.clients_n)]
        events = {
            "eid": eid,
            "owner": eid % self.clients_n,
            "cat": self.cat[:n],
            "val": self.val[:n],
            "ts": eid * 3,
        }
        cats = {"c_id": np.arange(20, dtype=np.int64), "c_band": np.arange(20) // 5}
        self.new_catalog([(_table("events", events), ["nuc:eid"]), (_table("cats", cats), [])])
        os.makedirs(self.work_dir, exist_ok=True)
        self.data_dir = tempfile.mkdtemp(prefix="tcp_", dir=self.work_dir)
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        self.server = SQLServer(
            self.catalog,
            self.manager,
            data_dir=self.data_dir,
            wal_sync=WAL_SYNC,
            checkpoint_interval=CHECKPOINT_INTERVAL,
        )
        await self.server.start()
        self.durability = self.server.session.durability
        self.clients = [
            await AsyncSQLClient.connect(self.server.host, self.server.port)
            for _ in range(self.clients_n)
        ]

    async def _stop(self) -> None:
        for client in self.clients:
            await client.aclose()
        self.clients = []
        if self.server is not None:
            await self.server.aclose()
            self.server = None

    def stop_server(self) -> None:
        """Close clients and server (the server checkpoints on close)."""
        self.loop.run_until_complete(self._stop())

    def teardown(self) -> None:
        self.stop_server()
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self.data_dir = None
        self.catalog = self.manager = None

    def close(self) -> None:
        self.loop.close()
        os.sched_setaffinity(0, self.affinity)

    # -- statement stream -------------------------------------------------
    def _own(self, client: int, lo: int, hi: int) -> np.ndarray:
        eids = np.arange(lo + (client - lo) % self.clients_n, hi, self.clients_n)
        return eids[self.alive[eids]]

    def _pick(self, client: int, rng: np.random.Generator) -> int:
        while True:
            eid = int(rng.integers(0, self.next_eid[client] // self.clients_n))
            eid = eid * self.clients_n + client
            if self.alive[eid]:
                return eid

    def client_script(self, client: int) -> List[Stmt]:
        """One round of one client; the shadow advances as it is built."""
        rng = self.streams[client]
        kinds = rng.permutation([k for k, count in TCP_MIX.items() for _ in range(count)])
        out = []
        for kind in kinds.tolist():
            if kind == "insert":
                eid = self.next_eid[client]
                self.next_eid[client] += self.clients_n
                cat, val = int(rng.integers(0, 20)), int(rng.integers(0, 1000))
                self.alive[eid], self.cat[eid], self.val[eid] = True, cat, val
                sql = (
                    "INSERT INTO events (eid, owner, cat, val, ts) "
                    f"VALUES ({eid}, {client}, {cat}, {val}, {eid * 3})"
                )
                out.append(Stmt(sql, kind, 1))
                continue
            if kind in ("point", "modify", "delete"):
                eid = self._pick(client, rng)
                if kind == "point":
                    exp = {
                        "eid": np.array([eid]),
                        "cat": self.cat[eid : eid + 1].copy(),
                        "val": self.val[eid : eid + 1].copy(),
                    }
                    sql = f"SELECT eid, cat, val FROM events WHERE eid = {eid}"
                    out.append(Stmt(sql, kind, Expected(exp, "exact")))
                elif kind == "modify":
                    self.val[eid] = int(rng.integers(0, 1000))
                    sql = f"UPDATE events SET val = {self.val[eid]} WHERE eid = {eid}"
                    out.append(Stmt(sql, kind, 1))
                else:
                    self.alive[eid] = False
                    out.append(Stmt(f"DELETE FROM events WHERE eid = {eid}", kind, 1))
                continue
            lo = int(rng.integers(0, self.next_eid[client] - TCP_RANGE))
            own = self._own(client, lo, lo + TCP_RANGE)
            where = f"WHERE eid >= {lo} AND eid < {lo + TCP_RANGE} AND owner = {client}"
            if kind == "agg":
                exp = {"n": np.array([len(own)]), "sv": np.array([self.val[own].sum()])}
                sql = f"SELECT COUNT(*) AS n, SUM(val) AS sv FROM events {where}"
                out.append(Stmt(sql, kind, Expected(exp, "exact")))
            elif kind == "distinct":
                exp = {"cat": np.unique(self.cat[own])}
                out.append(Stmt(f"SELECT DISTINCT cat FROM events {where}", kind, Expected(exp)))
            elif kind == "sort":
                top = own[np.lexsort((own, self.val[own]))][:10]
                exp = {"eid": top, "val": self.val[top]}
                sql = f"SELECT eid, val FROM events {where} ORDER BY val, eid LIMIT 10"
                out.append(Stmt(sql, kind, Expected(exp, "exact")))
            else:
                bands, sums = _grouped(self.cat[own] // 5, n=np.ones(len(own)))
                sql = (
                    "SELECT c_band, COUNT(*) AS n FROM cats JOIN events ON c_id = cat "
                    f"{where} GROUP BY c_band"
                )
                out.append(Stmt(sql, "join", Expected({"c_band": bands, "n": sums["n"]})))
        return out

    # -- rounds ---------------------------------------------------------
    async def _client_loop(self, client: AsyncSQLClient, stmts: List[Stmt]):
        clock = time.perf_counter
        out = []
        for stmt in stmts:
            t0 = clock()
            try:
                result = await client.execute(stmt.sql)
            except ServerError as exc:
                self.error_frames += 1
                result = exc
            except Exception as exc:  # a failed statement is a counted failure
                result = exc
            out.append((clock() - t0, result))
        return out

    async def _round(self, scripts: List[List[Stmt]]):
        t0 = time.perf_counter()
        replies = await asyncio.gather(
            *(self._client_loop(c, s) for c, s in zip(self.clients, scripts))
        )
        return time.perf_counter() - t0, replies

    def run_round(self, round_no: int, execute=None) -> RoundResult:
        scripts = self.last_scripts = [self.client_script(c) for c in range(self.clients_n)]
        seconds, replies = self.loop.run_until_complete(self._round(scripts))
        samples, errors = [], []
        for stmts, reply in zip(scripts, replies):
            for stmt, (dt, result) in zip(stmts, reply):
                samples.append(Sample(stmt.family, dt, stmt.is_read))
                why = check_statement(stmt, result)
                if why is not None:
                    errors.append(f"tcp_mixed round {round_no}: {why}")
        return RoundResult(seconds, samples, errors)

    def storage_rows(self) -> Tuple[Table, Dict[str, np.ndarray]]:
        """The main table and one row that could be inserted into it."""
        eid = np.array([max(self.next_eid)])
        row = {"eid": eid, "owner": eid % self.clients_n, "cat": eid % 20, "val": eid % 1000}
        return self.catalog.table("events"), {**row, "ts": eid * 3}

    # -- final checks ---------------------------------------------------
    def shadow_events(self) -> Dict[str, np.ndarray]:
        eid = np.flatnonzero(self.alive)
        return {
            "eid": eid,
            "owner": eid % self.clients_n,
            "cat": self.cat[eid],
            "val": self.val[eid],
            "ts": eid * 3,
        }

    def recover(self) -> Tuple[float, List[str]]:
        """Recover ``data_dir`` into a fresh catalog; seconds and mismatches.

        Call after :meth:`stop_server`.  The recovered tables must equal
        the live ones row for row, in the live row order.
        """
        fresh = Catalog()
        t0 = time.perf_counter()
        session = SQLSession(fresh, data_dir=self.data_dir, wal_sync=WAL_SYNC)
        seconds = time.perf_counter() - t0
        session.close()
        errors = []
        for live in self.catalog:
            for col in live.schema.names:
                if not _same(fresh.table(live.name).column(col), live.column(col)):
                    errors.append(f"tcp_mixed: recovered {live.name}.{col} differs from live")
        return seconds, errors

    def final_errors(self) -> List[str]:
        # clients insert concurrently, so the live row order is not the shadow's
        table = self.catalog.table("events")
        order = np.argsort(table.column("eid"), kind="stable")
        return [
            f"tcp_mixed: events.{col} differs from the shadow copy"
            for col, exp in self.shadow_events().items()
            if not _same(table.column(col)[order], exp)
        ] + self.index_errors()


def make_workload(name: str, seed: int, scale: float, work_dir: str):
    if name in ("pi_query", "plain_query"):
        return QueryWorkload(seed, scale, use_index=name == "pi_query")
    if name == "pi_update":
        return UpdateWorkload(seed, scale)
    if name == "tcp_mixed":
        return TcpWorkload(seed, scale, work_dir)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
