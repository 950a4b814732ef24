"""Spans around the calls into each layer, and the direct layer probes.

The program has no instrumentation of its own yet, so the traced run
measures every layer from outside: a statement is driven through the
public functions one at a time (``parse_statement`` → ``bind_statement``
→ ``Optimizer.optimize`` → ``build_operator_tree`` → ``execute``) with a
span around each call, every operator instance's ``execute`` is wrapped,
and ``apply_update`` is wrapped where the index manager looks it up.
Layers that no statement path isolates (bitmap, table mutation, WAL,
frame codec) are timed by direct calls in the ``*_probe`` functions.

Spans stay in memory; the runner writes them out with its JSON document.
"""

from __future__ import annotations

import contextlib
import statistics
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

import repro.core.manager as manager_module
from repro.bitmap import ShardedBitmap
from repro.engine.batch import ROWID
from repro.plan import build_operator_tree
from repro.plan.nodes import PatchScanNode
from repro.server.protocol import HEADER, decode_frame, encode_frame
from repro.sql import SQLSession, bind_statement, parse_statement
from repro.storage import DurabilityManager, Table

#: operator classes reported as ``engine.op.<Class>.self_ms``
OPERATORS = (
    "Scan", "PatchSelect", "Filter", "Project", "HashJoin", "MergeJoin",
    "Sort", "TopN", "Distinct", "GroupAggregate", "Union", "MergeUnion",
)


class Span:
    """One timed interval; ``self_ns`` excludes the child spans."""

    __slots__ = ("name", "stmt", "round", "parent", "start", "end", "child_ns", "attrs")

    def __init__(self, name, stmt, round_no, parent, attrs):
        self.name = name
        self.stmt = stmt
        self.round = round_no
        self.parent = parent
        self.attrs = attrs
        self.child_ns = 0
        self.start = time.perf_counter_ns()
        self.end = self.start

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.ns - self.child_ns

    def as_dict(self) -> Dict:
        return {
            "name": self.name, "stmt": self.stmt, "round": self.round,
            "parent": self.parent.name if self.parent is not None else None,
            "start_ns": self.start, "end_ns": self.end, **self.attrs,
        }


class Tracer:
    """In-memory span recorder with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.round = -1
        self.stmt = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        span = Span(name, self.stmt, self.round, parent, attrs)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            stack.pop()
            if parent is not None:
                parent.child_ns += span.ns
            with self._lock:  # server worker threads record apply_update spans
                self.spans.append(span)

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    # -- wrapping ---------------------------------------------------------
    @contextlib.contextmanager
    def wrap_apply_update(self):
        """Span every index-maintenance call while the block runs."""
        original = manager_module.apply_update

        def traced(index, table, event, **kwargs):
            name = f"core.apply.{event.kind}.{index.constraint.kind}"
            with self.span(name, rows=len(event.rowids)):
                return original(index, table, event, **kwargs)

        manager_module.apply_update = traced
        try:
            yield
        finally:
            manager_module.apply_update = original

    def wrap_operators(self, root) -> None:
        """Span the ``execute`` of every operator instance under ``root``."""
        for op in _walk(root):
            cls = next((c.__name__ for c in type(op).__mro__ if c.__name__ in OPERATORS), None)
            if cls is not None:
                op.execute = self._timed_execute(op.execute, cls, getattr(op, "mode", None))

    def _timed_execute(self, execute: Callable, cls: str, mode: Optional[str]) -> Callable:
        def timed():
            with self.span(f"op.{cls}", mode=mode) as span:
                relation = execute()
                span.attrs["rows"] = relation.num_rows
                return relation

        return timed

    # -- the statement pipeline, one public call at a time --------------------
    def execute(self, session: SQLSession, sql: str, family: str):
        """Run ``sql`` as ``session.execute`` would, with a span per layer."""
        self.stmt += 1
        with self.span("stmt", family=family) as root:
            if not sql.lstrip().upper().startswith("SELECT"):
                with self.span("sql.prepare"):
                    prepared = session.prepare(sql)
                with self.span("sql.run_prepared"):
                    return session.run_prepared(prepared)
            with self.span("sql.parse"):
                stmt = parse_statement(sql)
            with self.span("sql.bind"):
                bind_statement(stmt, session.catalog)
            plan = stmt.plan
            with self.span("plan.optimize"):
                if session.optimizer is not None:
                    plan = session.optimizer.optimize(plan)
            root.attrs["patch_scans"] = sum(isinstance(n, PatchScanNode) for n in _walk(plan))
            with self.span("plan.lower"):
                tree = build_operator_tree(plan, session.catalog, session.context)
            self.wrap_operators(tree)
            with self.span("engine.exec"):
                relation = tree.execute()
            root.attrs["rows"] = relation.num_rows
            return relation.drop([ROWID]) if ROWID in relation else relation


def _walk(node):
    yield node
    for child in node.children():
        yield from _walk(child)


# ----------------------------------------------------------------------
# direct probes of layers no statement path isolates
# ----------------------------------------------------------------------
def _median_ns(fn: Callable[[], object], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times)


def bitmap_probe(seed: int, nbits: int) -> Dict[str, float]:
    """Table 2 on one ``ShardedBitmap`` (default shard size, 5 % set)."""
    rng = np.random.default_rng([seed, 7])
    bm = ShardedBitmap.from_positions(rng.choice(nbits, nbits // 20, replace=False), nbits)
    probes = rng.integers(0, nbits, 2_000).tolist()
    many = rng.integers(0, nbits, 10_000)
    out = {}

    def each(fn):
        for pos in probes:
            fn(pos)

    out["bitmap.get_ns"] = _median_ns(lambda: each(bm.get), 5) / len(probes)
    out["bitmap.positions_ms"] = _median_ns(bm.positions, 5) / 1e6
    out["bitmap.to_bool_ms"] = _median_ns(bm.to_bool_array, 5) / 1e6
    out["bitmap.count_us"] = _median_ns(bm.count, 5) / 1e3
    out["bitmap.set_ns"] = _median_ns(lambda: each(bm.set), 5) / len(probes)
    out["bitmap.set_many_ns_per_bit"] = _median_ns(lambda: bm.set_many(many), 5) / len(many)
    out["bitmap.extend_us"] = _median_ns(lambda: bm.extend(50), 25) / 1e3
    condenses = 0

    def delete(fn):
        nonlocal condenses
        lost = bm.lost_bits()
        fn()
        condenses += bm.lost_bits() < lost

    singles = rng.integers(0, len(bm) - 1_000, 200).tolist()
    t0 = time.perf_counter_ns()
    for pos in singles:
        delete(lambda: bm.delete(pos))
    out["bitmap.delete_us"] = (time.perf_counter_ns() - t0) / len(singles) / 1e3
    bulk_ns = []
    for _ in range(5):
        victims = rng.choice(len(bm), 2_000, replace=False)
        t0 = time.perf_counter_ns()
        delete(lambda: bm.bulk_delete(victims))
        bulk_ns.append(time.perf_counter_ns() - t0)
    out["bitmap.bulk_delete_us_per_bit"] = statistics.median(bulk_ns) / 2_000 / 1e3
    out["bitmap.auto_condenses"] = condenses
    out["bitmap.utilization_after"] = bm.utilization()
    out["bitmap.overhead_fraction"] = bm.overhead_fraction()
    out["bitmap.condense_ms"] = _median_ns(bm.condense, 3) / 1e6
    return out


def storage_probe(table: Table, rows: Dict[str, np.ndarray], seed: int) -> Dict[str, float]:
    """Insert / modify / delete of ``rows`` on a copy of ``table`` with no index."""
    rng = np.random.default_rng([seed, 8])
    bare = Table(table.name, table.schema, {c: table.column(c).copy() for c in table.schema.names})
    count = len(next(iter(rows.values())))
    column = next(n for n in rows if n != table.schema.names[0])
    ins, mod, dele = [], [], []
    for _ in range(7):
        t0 = time.perf_counter_ns()
        bare.insert(rows)
        t1 = time.perf_counter_ns()
        victims = np.sort(rng.choice(bare.num_rows, count, replace=False))
        t2 = time.perf_counter_ns()
        bare.modify(victims, {column: rows[column]})
        t3 = time.perf_counter_ns()
        bare.delete(victims)
        t4 = time.perf_counter_ns()
        ins.append(t1 - t0)
        mod.append(t3 - t2)
        dele.append(t4 - t3)
    return {
        "storage.table_insert_ms": statistics.median(ins) / 1e6,
        "storage.table_modify_ms": statistics.median(mod) / 1e6,
        "storage.table_delete_ms": statistics.median(dele) / 1e6,
    }


def wal_probe(catalog, writes: List[str], work_dir: str, wal_sync: str) -> Dict[str, float]:
    """``log_write`` and ``checkpoint`` called directly on a scratch directory."""
    with tempfile.TemporaryDirectory(prefix="wal_", dir=work_dir) as data_dir:
        durability = DurabilityManager(catalog, data_dir, wal_sync=wal_sync)
        durability.recover(SQLSession(catalog))  # fresh directory: opens the log
        start = durability.wal.offset
        append_ns = []
        for sql in writes:
            t0 = time.perf_counter_ns()
            durability.log_write(sql)
            append_ns.append(time.perf_counter_ns() - t0)
        appended = durability.wal.offset - start
        checkpoint_ns = _median_ns(durability.checkpoint, 3)
        durability.close(checkpoint=False)
    return {
        "storage.wal_append_us": statistics.median(append_ns) / 1e3,
        "storage.wal_bytes_per_commit": appended / len(writes),
        "storage.checkpoint_ms": checkpoint_ns / 1e6,
    }


def codec_probe(results: List) -> Dict[str, float]:
    """Encode and decode the ``result`` frames of ``ClientResult`` replies."""
    encode_ns, decode_ns, sizes = [], [], []
    for i, res in enumerate(results):
        message = {"type": "result", "id": i + 1, "row_count": res.row_count, "stats": res.stats}
        if res.columns is not None:
            message.update(columns=res.columns, rows=res.rows)
        t0 = time.perf_counter_ns()
        frame = encode_frame(message)
        t1 = time.perf_counter_ns()
        decode_frame(frame[HEADER.size :])
        t2 = time.perf_counter_ns()
        encode_ns.append(t1 - t0)
        decode_ns.append(t2 - t1)
        sizes.append(len(frame))
    return {
        "server.encode_us": statistics.median(encode_ns) / 1e3,
        "server.decode_us": statistics.median(decode_ns) / 1e3,
        "server.result_bytes": statistics.fmean(sizes),
    }
