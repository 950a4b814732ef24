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
import functools
import threading
from typing import Callable, Dict, Optional

import numpy as np

from repro.engine.batch import ROWID, Relation, stored
from repro.engine.expressions import expression_columns
from repro.engine.operators import Scan
from repro.engine.interrupt import (
    CancellationToken,
    cancellation_scope,
    checkpoint,
    current_token,
    validate_optional_positive_int,
)
from repro.plan import nodes
from repro.plan.cost import CostModel
from repro.plan.executor import execute_plan, explain_plan
from repro.plan.optimizer import Optimizer
from repro.sql.binder import bind_statement
from repro.sql.parser import (
    NULL,
    DeleteStatement,
    InsertStatement,
    SelectStatement,
    SetStatement,
    Statement,
    UpdateStatement,
    parse_statement,
)
from repro.storage.catalog import Catalog
from repro.storage.wal import DurabilityManager, validate_wal_sync

__all__ = [
    "SQLSession",
    "SETTINGS",
    "Setting",
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
class Setting:
    """One ``SET``-able session knob.

    ``validate`` checks a value from a constructor or a ``SET``
    statement and returns it normalized; where the knob can be switched
    off it turns ``off`` / ``none`` into None.  A ``logged`` knob is
    held by the session's :class:`~repro.storage.wal.DurabilityManager`
    when it has one, and a ``SET`` of it is logged to the WAL so a
    restart replays into the same setting.  A ``SET`` replies with the
    new value when it is a number, and 0 otherwise.
    """

    validate: Callable[[object], object]
    logged: bool = False


def _optional_positive_int(name: str) -> Callable[[object], Optional[int]]:
    return functools.partial(validate_optional_positive_int, name=name)


#: The ``SET``-able session knobs by name; the constructors validate
#: their arguments through the same entries.
SETTINGS: Dict[str, Setting] = {
    "statement_timeout_ms": Setting(_optional_positive_int("statement_timeout_ms")),
    "wal_sync": Setting(validate_wal_sync, logged=True),
    "checkpoint_interval": Setting(_optional_positive_int("checkpoint_interval"), logged=True),
}


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
    use_cost_model:
        Forwarded to the optimizer.
    statement_timeout_ms:
        Default per-statement deadline in milliseconds; ``None`` (the
        default) disables it.  :meth:`execute` arms a
        :class:`~repro.engine.interrupt.CancellationToken` with this
        deadline, and statements unwind with
        :class:`~repro.engine.interrupt.QueryTimeoutError` when it
        expires — reads leave tables untouched, DML either fully
        applies or raises before mutating anything.
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
        misconfiguration fails fast.
    checkpoint_interval:
        Commits between automatic checkpoints (``None`` disables; the
        close-time checkpoint still runs).
    checkpoint_retain:
        Checkpoint files kept on disk (WAL segments are pruned only
        once no retained checkpoint needs them).

    ``statement_timeout_ms``, ``wal_sync`` and ``checkpoint_interval``
    validate through their :data:`SETTINGS` entries, read back with
    :meth:`setting` and change with ``SET <name> = <value>`` (``= off``
    switches the two counts off).

    Execution is serial.  DML addresses plain and partitioned tables
    alike: ``modify``/``delete`` take the matched table-global rowids
    (a partitioned table splits them onto its partitions).  The blocking
    session executes one statement at a time; concurrent
    :meth:`execute` calls from other threads raise
    :class:`ConcurrentSessionError` (see the module docstring).
    """

    def __init__(
        self,
        catalog: Catalog,
        index_manager=None,
        use_cost_model: bool = True,
        statement_timeout_ms: Optional[int] = None,
        data_dir: Optional[str] = None,
        wal_sync: str = "fsync",
        checkpoint_interval: Optional[int] = None,
        checkpoint_retain: int = 2,
    ) -> None:
        # every SETTINGS entry is a constructor argument of the same
        # name.  A DurabilityManager validates and holds the logged
        # knobs; an in-memory session still validates them, so a
        # misconfigured server fails at construction, not first use.
        arguments = locals()
        self._settings = {
            name: setting.validate(arguments[name])
            for name, setting in SETTINGS.items()
            if data_dir is None or not setting.logged
        }
        self.catalog = catalog
        self._cost_model = CostModel(catalog)
        self._exec_guard = threading.Lock()
        self._durability: Optional[DurabilityManager] = None
        self.optimizer: Optional[Optimizer] = None
        if index_manager is not None:
            self.optimizer = Optimizer(
                catalog, index_manager, use_cost_model=use_cost_model
            )
        if data_dir is not None:
            self._durability = DurabilityManager(
                catalog,
                data_dir,
                wal_sync=wal_sync,
                checkpoint_interval=checkpoint_interval,
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
        optimizer (whose cost gate snapshots live index state, e.g. an
        index's ``num_patches``) until the statement actually
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
            timeout_ms = self._settings["statement_timeout_ms"]
            if timeout_ms is None or current_token() is not None:
                return self.run_prepared(prepared)
            token = CancellationToken(timeout_ms=timeout_ms)
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

    def setting(self, name: str):
        """Current value of a :data:`SETTINGS` knob (None = switched off)."""
        if SETTINGS[name].logged and self._durability is not None:
            return getattr(self._durability, name)
        return self._settings[name]

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    @property
    def data_dir(self) -> Optional[str]:
        """The durable data directory (None = in-memory session)."""
        return self._durability.data_dir if self._durability is not None else None

    @property
    def durability(self) -> Optional[DurabilityManager]:
        """The durability manager (None = in-memory session)."""
        return self._durability

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
        if name == "data_dir":
            raise ValueError(
                "data_dir is constructor-only: recovery and WAL replay are "
                "bound to session startup, so SET data_dir is rejected"
            )
        if name not in SETTINGS:
            raise ValueError(f"unknown session setting {stmt.name!r}")
        setting = SETTINGS[name]
        value = setting.validate(stmt.value)
        if setting.logged and self._durability is not None:
            # logged first so a restart replays it and a refused log changes nothing
            self._durability.log_set(f"SET {name} = {'off' if value is None else value}")
            setattr(self._durability, name, value)
        else:
            self._settings[name] = value
        return value if isinstance(value, int) else 0

    def _run_insert(self, stmt: InsertStatement, sql: str = "") -> int:
        table = self.catalog.table(stmt.table)
        # INSERT mutates in one atomic step; the only interruption
        # window is before it starts
        checkpoint()
        values = {}
        for i, (column, kinds) in enumerate(zip(stmt.columns, stmt.kinds)):
            field = table.schema.field(column)
            values[column] = _coerce_for_storage(column, field, stmt.values(i), NULL in kinds)
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
        return len(stmt.kinds[0])

    def _predicate_rowids(self, table, predicate) -> np.ndarray:
        """RowIDs of the tuples matching a DML predicate, found by a
        :class:`~repro.engine.operators.Scan` as a SELECT finds its rows."""
        if predicate is None:
            return table.rowids()
        for name in expression_columns(predicate):
            table.schema.field(name)  # unknown columns fail before any scan
        return Scan(table, [], predicate).rowids()

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
            rel = Relation({name: stored(table, name) for name in referenced}).take(rowids)
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
                arr = _coerce_for_storage(column, field, list(arr), any(v is None for v in arr))
            new_values[column] = arr
        # last interruption window: past this point the mutation applies
        # atomically, so an interrupted UPDATE is provably un-applied
        checkpoint()
        # commit point: the WAL append sits after the final interrupt
        # checkpoint and immediately before the atomic mutation, so a
        # logged-but-unapplied record can only mean a process crash
        seq = self._log_write(sql)
        try:
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
            table.delete(rowids)
        except BaseException:
            self._rollback_logged(seq)
            raise
        return len(rowids)


def _coerce_for_storage(column: str, field, raw, has_null: bool) -> np.ndarray:
    """Coerce a python value list to a column's storage array.

    NULL (python ``None``, in ``raw`` only if ``has_null``) maps to the
    column type's representation — ``None`` in object (STRING) columns,
    NaN in FLOAT64 columns — and raises :class:`NullStorageError` for
    INT64 columns, which have no NULL representation.  Non-NULL values
    coerce as before (strings via ``str``, numerics via ``np.asarray``).
    """
    dtype = field.type.numpy_dtype
    if dtype is object:
        arr = np.empty(len(raw), dtype=object)
        arr[:] = [None if v is None else str(v) for v in raw]
        return arr
    if has_null:
        if not np.issubdtype(dtype, np.floating):
            raise NullStorageError(
                f"cannot store NULL in column {column!r}: its type "
                f"({field.type.name}) has no NULL representation; only "
                "STRING (None) and FLOAT64 (NaN) columns are nullable"
            )
        raw = [np.nan if v is None else v for v in raw]
    return np.asarray(raw, dtype=dtype)

