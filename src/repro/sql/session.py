"""SQL session: parse, optimize (PatchIndex rewrites) and execute.

The execute pipeline is factored into two reusable halves so a
concurrent front-end can multiplex many clients onto one session core:

* :meth:`SQLSession.prepare` — parse, classify (read / write / session,
  see :func:`classify_statement`), run the PatchIndex optimizer and
  stamp an admission cost hint; pure and cheap, safe on an event loop.
* :meth:`SQLSession.run_prepared` — execute a prepared statement; this
  half carries no reentrancy guard and is the building block
  :class:`repro.sql.async_session.AsyncSQLSession` schedules under its
  own reader/writer discipline.

:meth:`SQLSession.execute` composes the two behind a thread-ownership
guard: the blocking session is **not thread-safe** (interleaved DML
from several threads used to silently corrupt positional-delta state)
and now rejects concurrent use with :class:`ConcurrentSessionError`
instead.  Concurrent clients belong on ``AsyncSQLSession``.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Optional

import numpy as np

from repro.engine.batch import ROWID, Relation
from repro.engine.expressions import expression_columns
from repro.engine.interrupt import (
    CHECKPOINT_ROWS,
    CancellationToken,
    cancellation_scope,
    checkpoint,
    current_token,
    validate_timeout_ms,
)
from repro.plan import nodes
from repro.plan.cost import CostModel
from repro.plan.executor import execute_plan, explain_plan
from repro.plan.optimizer import Optimizer
from repro.sql.binder import bind_statement
from repro.sql.parser import (
    DeleteStatement,
    InsertStatement,
    SelectStatement,
    SetStatement,
    Statement,
    UpdateStatement,
    parse_statement,
)
from repro.storage.catalog import Catalog
from repro.storage.partition import PartitionedTable
from repro.storage.wal import (
    DurabilityManager,
    validate_checkpoint_interval,
    validate_wal_sync,
)

__all__ = [
    "SQLSession",
    "PreparedStatement",
    "ConcurrentSessionError",
    "NullStorageError",
    "classify_statement",
    "KIND_READ",
    "KIND_WRITE",
    "KIND_SESSION",
]

#: Statement classes for concurrent scheduling: reads may run alongside
#: other reads; writes (and session knobs) require exclusive access.
KIND_READ = "read"
KIND_WRITE = "write"
KIND_SESSION = "session"


class NullStorageError(ValueError):
    """A NULL was routed at a column type that cannot represent it.

    NULL is stored as ``None`` in object (STRING) columns and as NaN in
    FLOAT64 columns; INT64 columns have no NULL representation, so
    inserting or assigning NULL there raises this instead of numpy's
    opaque conversion error.
    """


class ConcurrentSessionError(RuntimeError):
    """A second thread entered a blocking :class:`SQLSession`.

    The blocking session owns mutable per-statement state (positional
    delta maintenance) and is strictly one-statement-at-a-time; interleaved
    use from several threads used to corrupt DML state silently.  Use
    :class:`repro.sql.async_session.AsyncSQLSession` for concurrent
    clients — it multiplexes onto one session core with a proper
    reader/writer discipline.
    """


def classify_statement(stmt: Statement) -> str:
    """Concurrency class of a parsed statement.

    ``read`` statements (SELECT) only observe table state and may run
    concurrently with each other; ``write`` statements (INSERT / UPDATE
    / DELETE) mutate storage and require exclusive access; ``session``
    statements (SET) reconfigure the session itself — also exclusive,
    since e.g. ``SET wal_sync`` changes how the next commit is logged.
    """
    if isinstance(stmt, SelectStatement):
        return KIND_READ
    if isinstance(stmt, (InsertStatement, UpdateStatement, DeleteStatement)):
        return KIND_WRITE
    if isinstance(stmt, SetStatement):
        return KIND_SESSION
    raise TypeError(f"unhandled statement {type(stmt).__name__}")


@dataclasses.dataclass(frozen=True)
class PreparedStatement:
    """A parsed, classified, optimized statement ready to run.

    ``plan`` is the (optimizer-rewritten) logical plan for SELECTs and
    ``None`` otherwise; ``cost_hint`` is the admission cost estimate
    (see :meth:`repro.plan.cost.CostModel.admission_cost`) the async
    front-end records per query.
    """

    sql: str
    statement: Statement
    kind: str
    plan: Optional[nodes.PlanNode] = None
    cost_hint: float = 0.0


class SQLSession:
    """Executes SQL against a catalog, with PatchIndex optimization.

    Parameters
    ----------
    catalog:
        Table registry.
    index_manager:
        Optional :class:`~repro.core.manager.PatchIndexManager`; when
        given, SELECT plans run through the optimizer so the §3.3
        rewrites fire on plain SQL text.
    zero_branch_pruning / use_cost_model:
        Forwarded to the optimizer.
    statement_timeout_ms:
        Default per-statement deadline in milliseconds; ``None`` (the
        default) disables it.  :meth:`execute` arms a
        :class:`~repro.engine.interrupt.CancellationToken` with this
        deadline, and statements unwind with
        :class:`~repro.engine.interrupt.QueryTimeoutError` when it
        expires — reads leave tables untouched, DML either fully
        applies or raises before mutating anything.  Also settable per
        session via ``SET statement_timeout_ms = N`` (``= off``
        disables).
    data_dir:
        Directory for the write-ahead log and checkpoints (created on
        demand).  When given, the session recovers whatever committed
        state the directory holds at construction (newest valid
        checkpoint + WAL-tail replay, see
        :mod:`repro.storage.recovery`) and from then on logs every
        committed write statement *before* its table mutation applies.
        ``None`` (the default) keeps the session purely in-memory.
        Constructor-only: ``SET data_dir`` is rejected because the
        recovery/replay handshake only makes sense at startup.
    wal_sync:
        WAL durability policy — ``fsync`` (default; fsync per commit),
        ``group`` (piggybacked fsync on an interval) or ``off`` (flush
        per commit only).  Validated even without ``data_dir`` so
        misconfiguration fails fast; also settable via ``SET wal_sync``.
    checkpoint_interval:
        Commits between automatic checkpoints (``None`` disables; the
        close-time checkpoint still runs).  Positive integers only;
        also settable via ``SET checkpoint_interval = N`` (``= off``
        disables).
    checkpoint_retain:
        Checkpoint files kept on disk (WAL segments are pruned only
        once no retained checkpoint needs them).

    Execution is serial.  DML addresses plain and partitioned tables
    alike: matched global rowids route through
    ``PartitionedTable.modify_global``/``delete_global``.  The blocking
    session executes one statement at a time; concurrent
    :meth:`execute` calls from other threads raise
    :class:`ConcurrentSessionError` (see the module docstring).
    """

    def __init__(
        self,
        catalog: Catalog,
        index_manager=None,
        zero_branch_pruning: bool = False,
        use_cost_model: bool = True,
        statement_timeout_ms: Optional[int] = None,
        data_dir: Optional[str] = None,
        wal_sync: str = "fsync",
        checkpoint_interval: Optional[int] = None,
        checkpoint_retain: int = 2,
    ) -> None:
        self.catalog = catalog
        self._statement_timeout_ms: Optional[int] = None
        self.set_statement_timeout_ms(statement_timeout_ms)
        self._cost_model = CostModel(catalog)
        self._exec_guard = threading.Lock()
        # durability knobs validate up front even without a data_dir,
        # so a misconfigured server fails at construction, not first use
        self._wal_sync = validate_wal_sync(wal_sync)
        self._checkpoint_interval = (
            None
            if checkpoint_interval is None
            else validate_checkpoint_interval(checkpoint_interval)
        )
        self._durability: Optional[DurabilityManager] = None
        self.optimizer: Optional[Optimizer] = None
        if index_manager is not None:
            self.optimizer = Optimizer(
                catalog,
                index_manager,
                zero_branch_pruning=zero_branch_pruning,
                use_cost_model=use_cost_model,
            )
        if data_dir is not None:
            self._durability = DurabilityManager(
                catalog,
                data_dir,
                wal_sync=self._wal_sync,
                checkpoint_interval=self._checkpoint_interval,
                checkpoint_retain=checkpoint_retain,
            )
            # replays the WAL tail through this very session (replay
            # mode: nothing re-logs), then arms commit-point logging
            self._durability.recover(self)

    @property
    def context(self) -> None:
        """Always ``None``: execution is serial.

        Kept because the benchmark spine's tracer
        (``benchmarks/spine/spine_trace.py``) passes it to
        :func:`~repro.plan.executor.build_operator_tree`.
        """
        return None

    def close(self) -> None:
        """Seal durability.

        The session stays usable, but a durable session's WAL is synced,
        checkpointed (when any commit happened since the last
        checkpoint) and closed: this is the graceful-shutdown flush the
        server drain relies on.  Writes after close on a durable session
        raise :class:`~repro.storage.wal.WALError`.
        """
        if self._durability is not None:
            self._durability.close(checkpoint=True)

    def __enter__(self) -> "SQLSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the reusable sync core: prepare + run_prepared
    # ------------------------------------------------------------------
    def prepare(self, sql: str) -> PreparedStatement:
        """Parse, classify and optimize one statement without running it.

        Cheap relative to execution (no table data is touched), so a
        concurrent front-end can prepare on its event loop and dispatch
        only :meth:`run_prepared` to worker threads.  SELECT plans go
        through the PatchIndex optimizer here, exactly as
        :meth:`execute` would, and are stamped with the admission cost
        hint; DML statements are costed from the target table's
        cardinality and predicate width.
        """
        return self.prepare_parsed(parse_statement(sql), sql)

    def prepare_parsed(self, stmt: Statement, sql: str = "") -> PreparedStatement:
        """:meth:`prepare` for an already-parsed statement.

        Lets a scheduler parse/classify at arrival but defer the
        optimizer (whose rewrites snapshot live index state, e.g. patch
        counts for zero-branch pruning) until the statement actually
        holds its execution slot — so a read queued behind a write is
        planned against the post-write state it will observe.
        """
        kind = classify_statement(stmt)
        # catalog-aware reference check: ambiguous / unknown / unresolvable
        # qualified column refs fail here with typed errors, at prepare
        # time, instead of resolving to whichever join side happens to win
        bind_statement(stmt, self.catalog)
        plan: Optional[nodes.PlanNode] = None
        cost_hint = 0.0
        if isinstance(stmt, SelectStatement):
            plan, _ = self._optimize(stmt.plan)
            cost_hint = self._cost_model.admission_cost(plan)
        elif isinstance(stmt, (UpdateStatement, DeleteStatement)):
            try:
                table = self.catalog.table(stmt.table)
            except KeyError:
                table = None  # run_prepared raises the real error
            if table is not None:
                width = (
                    len(expression_columns(stmt.predicate))
                    if stmt.predicate is not None
                    else 0
                )
                cost_hint = self._cost_model.dml_scan_cost(
                    table.num_rows, max(1, width)
                )
        return PreparedStatement(
            sql=sql, statement=stmt, kind=kind, plan=plan, cost_hint=cost_hint
        )

    def run_prepared(self, prepared: PreparedStatement):
        """Execute a prepared statement (no reentrancy guard).

        This is the scheduling primitive: callers are responsible for
        the concurrency discipline — ``AsyncSQLSession`` admits reads
        concurrently and serializes writes behind its writer lock before
        calling in here from worker threads.  Direct users should go
        through :meth:`execute`.
        """
        stmt = prepared.statement
        if isinstance(stmt, SelectStatement):
            plan = prepared.plan if prepared.plan is not None else stmt.plan
            return execute_plan(plan, self.catalog)
        if isinstance(stmt, InsertStatement):
            return self._run_insert(stmt, prepared.sql)
        if isinstance(stmt, UpdateStatement):
            return self._run_update(stmt, prepared.sql)
        if isinstance(stmt, DeleteStatement):
            return self._run_delete(stmt, prepared.sql)
        if isinstance(stmt, SetStatement):
            return self._run_set(stmt)
        raise TypeError(f"unhandled statement {type(stmt).__name__}")

    # ------------------------------------------------------------------
    def execute(self, sql: str):
        """Run one statement; returns a Relation (SELECT) or a row count.

        One statement at a time: a second thread calling in while a
        statement is in flight gets :class:`ConcurrentSessionError`
        (the blocking session is not thread-safe; concurrent clients
        belong on ``AsyncSQLSession``).

        With ``statement_timeout_ms`` set (constructor or ``SET``), the
        statement runs under a deadline-armed
        :class:`~repro.engine.interrupt.CancellationToken` and raises
        :class:`~repro.engine.interrupt.QueryTimeoutError` if it runs
        past it — always from *between* chunks, so storage is never
        half-mutated.  A token already installed by the caller (via
        :func:`~repro.engine.interrupt.cancellation_scope`) takes
        precedence; the session never overrides an explicit scope.
        """
        if not self._exec_guard.acquire(blocking=False):
            raise ConcurrentSessionError(
                "another statement is already executing on this SQLSession; "
                "the blocking session is not thread-safe — use "
                "repro.sql.async_session.AsyncSQLSession for concurrent clients"
            )
        try:
            prepared = self.prepare(sql)
            if self._statement_timeout_ms is None or current_token() is not None:
                return self.run_prepared(prepared)
            token = CancellationToken(timeout_ms=self._statement_timeout_ms)
            with cancellation_scope(token):
                return self.run_prepared(prepared)
        finally:
            self._exec_guard.release()

    def explain(self, sql: str, costs: bool = False) -> str:
        """The (optimized) logical plan for a SELECT.

        ``costs=True`` annotates each node with estimated cardinality
        and cost, appends the staged optimizer's report — the join-order
        decision (chosen order and modeled cost vs the parser order) and
        the per-node physical operator assignments with their cost
        dicts — and closes with the admission cost hint (the figure the
        async front-end records per admitted query).
        """
        stmt = parse_statement(sql)
        if not isinstance(stmt, SelectStatement):
            raise ValueError("EXPLAIN supports SELECT statements only")
        # the steps of prepare_parsed: EXPLAIN rejects what execution
        # rejects and shows the plan that runs
        bind_statement(stmt, self.catalog)
        plan, report = self._optimize(stmt.plan)
        if costs:
            return explain_plan(
                plan, self.catalog, cost_model=self._cost_model, report=report
            )
        return plan.explain()

    def _optimize(self, plan: nodes.PlanNode):
        """A bound plan through the optimizer: ``(plan, report or None)``."""
        if self.optimizer is None:
            return plan, None
        return self.optimizer.optimize_staged(plan)

    def set_statement_timeout_ms(self, timeout_ms: Optional[int]) -> Optional[int]:
        """Reconfigure the default statement deadline (None disables).

        Validated like every knob: positive integers only (see
        :func:`~repro.engine.interrupt.validate_timeout_ms`).
        """
        if timeout_ms is not None:
            timeout_ms = validate_timeout_ms(timeout_ms)
        self._statement_timeout_ms = timeout_ms
        return timeout_ms

    @property
    def statement_timeout_ms(self) -> Optional[int]:
        """Current default statement deadline in ms (None = disabled)."""
        return self._statement_timeout_ms

    # ------------------------------------------------------------------
    # durability knobs
    # ------------------------------------------------------------------
    @property
    def data_dir(self) -> Optional[str]:
        """The durable data directory (None = in-memory session)."""
        return self._durability.data_dir if self._durability is not None else None

    @property
    def durability(self) -> Optional[DurabilityManager]:
        """The durability manager (None = in-memory session)."""
        return self._durability

    def set_wal_sync(self, policy: str) -> str:
        """Reconfigure the WAL sync policy (``off|group|fsync``).

        Validated even without a data directory (the knob then records
        the preference for a durable restart), mirroring ``SET
        wal_sync = fsync``; on a durable session the new policy applies
        from the next commit.
        """
        self._wal_sync = validate_wal_sync(policy)
        if self._durability is not None:
            self._durability.set_wal_sync(self._wal_sync)
        return self._wal_sync

    @property
    def wal_sync(self) -> str:
        """Current WAL sync policy (meaningful once ``data_dir`` is set)."""
        return self._wal_sync

    def set_checkpoint_interval(self, interval: Optional[int]) -> Optional[int]:
        """Reconfigure the automatic checkpoint cadence (None disables).

        Validated like every knob: positive integers only (see
        :func:`~repro.storage.wal.validate_checkpoint_interval`).
        """
        if interval is not None:
            interval = validate_checkpoint_interval(interval)
        self._checkpoint_interval = interval
        if self._durability is not None:
            self._durability.set_checkpoint_interval(interval)
        return interval

    @property
    def checkpoint_interval(self) -> Optional[int]:
        """Commits between automatic checkpoints (None = disabled)."""
        return self._checkpoint_interval

    def checkpoint(self) -> Optional[str]:
        """Force a checkpoint now; returns its path (None if in-memory).

        Snapshots every table, rotates the WAL and prunes segments no
        retained checkpoint needs (see
        :meth:`~repro.storage.wal.DurabilityManager.checkpoint`).
        """
        if self._durability is None:
            return None
        return self._durability.checkpoint()

    def _log_write(self, sql: str) -> Optional[int]:
        """Log a committed write at the commit point (no-op in-memory).

        Must be called *after* the last interruption window and
        *immediately before* the atomic table mutation: a logged record
        without its mutation can then only mean a process crash, which
        recovery resolves by replaying the record.
        """
        if self._durability is None:
            return None
        return self._durability.log_write(sql)

    def _rollback_logged(self, seq: Optional[int]) -> None:
        """Un-log a write whose table mutation raised (see ``_log_write``)."""
        if seq is not None and self._durability is not None:
            self._durability.rollback_record(seq)

    def _run_set(self, stmt: SetStatement) -> int:
        name = stmt.name.lower()
        if name == "statement_timeout_ms":
            value = stmt.value
            if isinstance(value, str) and value.lower() in ("off", "none"):
                self.set_statement_timeout_ms(None)
                return 0
            self.set_statement_timeout_ms(value)
            return self._statement_timeout_ms
        if name == "wal_sync":
            self.set_wal_sync(stmt.value)
            if self._durability is not None:
                # logged so a restart replays into the same policy
                self._durability.log_set(f"SET wal_sync = {self._wal_sync}")
            return 0
        if name == "checkpoint_interval":
            value = stmt.value
            if isinstance(value, str) and value.lower() in ("off", "none"):
                value = None
            self.set_checkpoint_interval(value)
            if self._durability is not None:
                logged = "off" if value is None else value
                self._durability.log_set(f"SET checkpoint_interval = {logged}")
            return 0
        if name == "data_dir":
            raise ValueError(
                "data_dir is constructor-only: recovery and WAL replay are "
                "bound to session startup, so SET data_dir is rejected"
            )
        raise ValueError(f"unknown session setting {stmt.name!r}")

    def _run_insert(self, stmt: InsertStatement, sql: str = "") -> int:
        table = self.catalog.table(stmt.table)
        # INSERT mutates in one atomic step; the only interruption
        # window is before it starts
        checkpoint()
        values = {}
        for i, column in enumerate(stmt.columns):
            field = table.schema.field(column)
            raw = [row[i] for row in stmt.rows]
            values[column] = _coerce_for_storage(column, field, raw)
        missing = set(table.schema.names) - set(stmt.columns)
        if missing:
            raise ValueError(f"INSERT must provide all columns; missing {sorted(missing)}")
        # commit point: log-before-apply, no interruption window between
        seq = self._log_write(sql)
        try:
            table.insert(values)
        except BaseException:
            self._rollback_logged(seq)
            raise
        return len(stmt.rows)

    def _predicate_rowids(self, table, predicate) -> np.ndarray:
        """RowIDs of the tuples matching a DML predicate.

        Only the columns the predicate references are materialized —
        untouched columns never leave storage.  While a cancellation
        token is armed the predicate runs in ``CHECKPOINT_ROWS`` chunks
        with a checkpoint before each; predicates are elementwise, so
        the concatenated per-chunk rowids equal one whole-table pass.
        """
        if predicate is None:
            return table.rowids()
        referenced = sorted(expression_columns(predicate))
        for name in referenced:
            table.schema.field(name)  # unknown columns fail before any scan
        if not referenced:
            # column-free predicate (e.g. WHERE 1 = 0): broadcast over
            # the rowid domain without touching any stored column
            rel = Relation({ROWID: table.rowids()})
            mask = np.asarray(predicate.evaluate(rel), dtype=bool)
            return np.flatnonzero(mask).astype(np.int64)
        arrays = table.columns(referenced)
        num_rows = table.num_rows
        if current_token() is not None and num_rows > CHECKPOINT_ROWS:
            pieces = []
            for start in range(0, num_rows, CHECKPOINT_ROWS):
                checkpoint()
                stop = min(start + CHECKPOINT_ROWS, num_rows)
                chunk = Relation({name: arr[start:stop] for name, arr in arrays.items()})
                mask = np.asarray(predicate.evaluate(chunk), dtype=bool)
                pieces.append(np.flatnonzero(mask).astype(np.int64) + start)
            return np.concatenate(pieces)
        mask = np.asarray(predicate.evaluate(Relation(arrays)), dtype=bool)
        return np.flatnonzero(mask).astype(np.int64)

    def _run_update(self, stmt: UpdateStatement, sql: str = "") -> int:
        table = self.catalog.table(stmt.table)
        rowids = self._predicate_rowids(table, stmt.predicate)
        if len(rowids) == 0:
            # zero-row writes still commit (and are acked with a commit
            # sequence), so they log too: the WAL stays 1:1 with the
            # commit log and replay re-derives the same zero matches
            self._log_write(sql)
            return 0
        referenced = set()
        for expr in stmt.assignments.values():
            referenced |= expression_columns(expr)
        if referenced:
            rel = Relation(table.columns(sorted(referenced))).take(rowids)
        else:
            # literal-only assignments: broadcast over the matched rows
            rel = Relation({ROWID: rowids})
        new_values = {}
        for column, expr in stmt.assignments.items():
            arr = np.asarray(expr.evaluate(rel))
            if arr.dtype == object:
                # NULL assignments surface as None in an object array;
                # route them at the column's storage representation
                field = table.schema.field(column)
                arr = _coerce_for_storage(column, field, list(arr))
            new_values[column] = arr
        # last interruption window: past this point the mutation applies
        # atomically, so an interrupted UPDATE is provably un-applied
        checkpoint()
        # commit point: the WAL append sits after the final interrupt
        # checkpoint and immediately before the atomic mutation, so a
        # logged-but-unapplied record can only mean a process crash
        seq = self._log_write(sql)
        try:
            if isinstance(table, PartitionedTable):
                # matched rowids are global: split them onto the partitions'
                # local rowid spaces (partition offsets are computed before
                # any partition mutates, so the statement is atomic per §3.2)
                table.modify_global(rowids, new_values)
            else:
                table.modify(rowids, new_values)
        except BaseException:
            self._rollback_logged(seq)
            raise
        return len(rowids)

    def _run_delete(self, stmt: DeleteStatement, sql: str = "") -> int:
        table = self.catalog.table(stmt.table)
        rowids = self._predicate_rowids(table, stmt.predicate)
        if len(rowids) == 0:
            self._log_write(sql)  # see _run_update: no-op writes commit
            return 0
        # last interruption window before the atomic mutation (see
        # _run_update)
        checkpoint()
        seq = self._log_write(sql)
        try:
            if isinstance(table, PartitionedTable):
                table.delete_global(rowids)
            else:
                table.delete(rowids)
        except BaseException:
            self._rollback_logged(seq)
            raise
        return len(rowids)


def _coerce_for_storage(column: str, field, raw) -> np.ndarray:
    """Coerce a python value list to a column's storage array.

    NULL (python ``None``) maps to the column type's representation —
    ``None`` in object (STRING) columns, NaN in FLOAT64 columns — and
    raises :class:`NullStorageError` for INT64 columns, which have no
    NULL representation.  Non-NULL values coerce exactly as before
    (strings via ``str``, numerics via ``np.asarray``).
    """
    dtype = field.type.numpy_dtype
    if dtype is object:
        arr = np.empty(len(raw), dtype=object)
        arr[:] = [None if v is None else str(v) for v in raw]
        return arr
    if any(v is None for v in raw):
        if not np.issubdtype(dtype, np.floating):
            raise NullStorageError(
                f"cannot store NULL in column {column!r}: its type "
                f"({field.type.name}) has no NULL representation; only "
                "STRING (None) and FLOAT64 (NaN) columns are nullable"
            )
        raw = [np.nan if v is None else v for v in raw]
    return np.asarray(raw, dtype=dtype)

