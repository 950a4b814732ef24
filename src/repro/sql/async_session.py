"""Async multi-client session layer over the blocking SQL core.

The ROADMAP's north star — heavy traffic from many concurrent clients —
needs more than one blocking :class:`~repro.sql.session.SQLSession`:
this module multiplexes many ``await session.execute(sql)`` callers
onto **one** session core and one statement lane of worker threads.

Scheduling discipline
---------------------
* Parse / classify / optimize runs on the event loop
  (:meth:`SQLSession.prepare_parsed` is cheap and touches no table
  data): parse and classification happen at arrival, the optimizer
  runs only once the statement holds its execution slot — so rewrites
  that snapshot live index state (the cost gate reads each index's
  ``num_patches``) see exactly the state execution will.  Execution is
  dispatched to the statement lane, a
  :class:`~concurrent.futures.ThreadPoolExecutor` of ``max_inflight``
  threads, where the numpy kernels release the GIL.
* Admission is a **fair FIFO queue** bounded by ``max_inflight``:
  statements are admitted strictly in arrival order, so a burst of
  cheap queries cannot starve an earlier expensive one, and at most
  ``max_inflight`` statements occupy worker threads at once
  (backpressure simply queues the rest).
* Statements are classified (:func:`~repro.sql.session.
  classify_statement`): **reads** run concurrently with each other,
  while **writes** (INSERT / UPDATE / DELETE) and **session** knobs
  (SET) serialize behind an async writer lock — a write is admitted
  only once every in-flight statement drained, and admits nothing
  until it commits.  In-flight reads therefore always observe a state
  between two writes, never a half-applied statement: a write arriving
  behind running reads waits for them, it does not interrupt them.
* **Cooperative cancellation**: cancelling an ``execute`` while it is
  still queued removes it before it ever starts (the statement never
  runs); cancelling after dispatch fires the statement's
  :class:`~repro.engine.interrupt.CancellationToken`, so a *running*
  statement unwinds at its next between-chunk checkpoint with
  :class:`~repro.engine.interrupt.QueryCancelledError` — reads leave
  tables untouched, writes are atomically un-applied (the last
  checkpoint sits immediately before the mutation).  The awaiting
  caller unblocks immediately either way; the admission slot is
  returned only when the worker thread actually finishes (promptly
  now, at checkpoint granularity), so ``max_inflight`` keeps meaning
  "threads doing work".  Statement deadlines
  (``statement_timeout_ms``) and overload shedding (``max_queued``,
  :class:`SessionOverloadedError` with a backoff hint) ride the same
  machinery.
* Every query is timed: ``queued_ns`` (arrival → admission) and
  ``exec_ns`` (on-thread execution), recorded together with the
  planner's admission cost hint as :class:`QueryStats` and surfaced
  through the EXPLAIN-style introspection (:meth:`AsyncSQLSession.
  explain`, :meth:`AsyncSQLSession.profile`).

Consistency contract
--------------------
Writes commit in admission (FIFO) order; ``commit_count`` numbers them.
A read's :attr:`QueryStats.write_seq` is the number of writes that had
committed when it started — because reads never overlap writes, every
read observes exactly the state produced by that prefix of the write
sequence, which is what the linearizability-style tests replay.

All methods must be called from a single event loop; the blocking
:class:`SQLSession` remains available for single-threaded scripts and
raises :class:`~repro.sql.session.ConcurrentSessionError` when misused
from several threads.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, List, Optional, Tuple

from repro.engine.interrupt import (
    CancellationToken,
    QueryTimeoutError,
    cancellation_scope,
    validate_positive_int,
)
from repro.sql.parser import parse_statement
from repro.sql.session import (
    KIND_READ,
    KIND_SESSION,
    KIND_WRITE,
    PreparedStatement,
    SQLSession,
    classify_statement,
)
from repro.storage.catalog import Catalog
from repro.testing import faults

__all__ = [
    "AsyncSQLSession",
    "QueryStats",
    "ServerClosedError",
    "SessionOverloadedError",
]


class ServerClosedError(RuntimeError):
    """The session (or the server fronting it) is shutting down.

    Raised instead of a hung ``await`` for statements caught by a drain:
    submitting after :meth:`AsyncSQLSession.aclose`/:meth:`AsyncSQLSession.
    shutdown` began, or sitting in the admission queue when
    :meth:`AsyncSQLSession.shutdown` aborted it.  The network layer maps
    this onto the ``server-closed`` wire error code (see
    ``docs/protocol.md``), so remote clients receive a typed frame
    rather than a dropped connection.

    Subclasses :class:`RuntimeError` for compatibility with callers that
    guarded the pre-network close behavior.
    """


class SessionOverloadedError(RuntimeError):
    """The admission queue is full; the statement was shed, not queued.

    Raised *synchronously* by :meth:`AsyncSQLSession.execute` when
    ``max_queued`` is set and the FIFO queue is at the bound — the
    statement never entered the queue, never ran, and is always safe to
    retry.  ``backoff_ms`` is a deterministic retry hint proportional to
    the current backlog; the network layer forwards it on the retryable
    ``overloaded`` wire error (see ``docs/protocol.md`` §5).
    """

    def __init__(self, message: str, backoff_ms: int) -> None:
        super().__init__(message)
        self.backoff_ms = int(backoff_ms)


@dataclasses.dataclass(frozen=True)
class QueryStats:
    """Timing and ordering record of one executed statement.

    ``write_seq`` is the statement's position in the global write
    order: for a committed write, its 1-based commit index; for a read
    (or session statement), the number of writes committed when it
    started — i.e. the exact write prefix whose state it observed.
    """

    sql: str
    kind: str
    cost_hint: float
    queued_ns: int
    exec_ns: int
    write_seq: int


class _Waiter:
    __slots__ = ("future", "kind")

    def __init__(self, future: "asyncio.Future[None]", kind: str) -> None:
        self.future = future
        self.kind = kind


def _timed_run(
    session: SQLSession,
    prepared: PreparedStatement,
    token: Optional[CancellationToken] = None,
):
    """Worker-thread body: run the statement under its token and clock it.

    The cancellation scope is installed *here*, around the
    ``run_prepared`` call, rather than threading the token through the
    session API — the scope is thread-local, and this is the thread the
    statement (and therefore every checkpoint on it) runs on.
    """
    if faults.ACTIVE:
        faults.fire("session.dispatch")
    t0 = time.perf_counter_ns()
    if token is None:
        result = session.run_prepared(prepared)
    else:
        token.check()
        with cancellation_scope(token):
            result = session.run_prepared(prepared)
    return result, time.perf_counter_ns() - t0


class AsyncSQLSession:
    """``asyncio`` front-end multiplexing clients onto one session core.

    Parameters
    ----------
    core:
        The :class:`SQLSession` every statement runs on.  The async
        session owns it from then on: :meth:`shutdown`, :meth:`aclose`
        and :meth:`close` close it, which on a durable core syncs and
        checkpoints the WAL.  The core's ``statement_timeout_ms`` is
        the default per-statement deadline, measured here from
        *arrival* (queue wait counts); each statement may override it
        via ``execute(..., timeout_ms=...)``.  Expired statements raise
        :class:`~repro.engine.interrupt.QueryTimeoutError`; a timed-out
        write never mutated anything, so timeouts are always safe to
        retry.  With a durable core every committed write is WAL-logged
        at its commit point — the exclusive-writer admission discipline
        means WAL order *is* commit order.
    max_inflight:
        Admission bound: at most this many statements execute on worker
        threads at once (also the statement lane's thread count); the
        rest wait in the FIFO queue.
    max_queued:
        Overload shedding bound: when set, a statement arriving while
        this many are already waiting for admission is refused with
        :class:`SessionOverloadedError` (carrying a backoff hint)
        instead of queueing without bound.  ``None`` (the default)
        keeps the queue unbounded.
    stats_history:
        How many per-query :class:`QueryStats` records to retain.

    Usage::

        async with AsyncSQLSession(SQLSession(catalog), max_inflight=4) as db:
            rows = await db.execute("SELECT COUNT(*) AS n FROM t")
    """

    def __init__(
        self,
        core: SQLSession,
        max_inflight: int = 8,
        max_queued: Optional[int] = None,
        stats_history: int = 256,
    ) -> None:
        self._max_inflight = validate_positive_int(max_inflight, "max_inflight")
        self._max_queued = (
            None
            if max_queued is None
            else validate_positive_int(max_queued, "max_queued")
        )
        self._session = core
        # the statement lane: threads start on first use
        self._lane = ThreadPoolExecutor(
            max_workers=self._max_inflight, thread_name_prefix="repro-stmt"
        )
        self._queue: Deque[_Waiter] = collections.deque()
        self._inflight = 0
        self._active_reads = 0
        self._writer_active = False
        self._commit_seq = 0
        self._stats: Deque[QueryStats] = collections.deque(maxlen=stats_history)
        self._drain_waiters: List["asyncio.Future[None]"] = []
        self._closed = False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def catalog(self) -> Catalog:
        """The catalog the shared session core executes against."""
        return self._session.catalog

    @property
    def max_inflight(self) -> int:
        """Admission bound: statements executing concurrently at most."""
        return self._max_inflight

    @property
    def max_queued(self) -> Optional[int]:
        """Shedding bound on the admission queue (None = unbounded)."""
        return self._max_queued

    @property
    def statement_timeout_ms(self) -> Optional[int]:
        """Default statement deadline of the session core (None = off)."""
        return self._session.setting("statement_timeout_ms")

    @property
    def durability(self):
        """The session core's :class:`DurabilityManager` (None = in-memory)."""
        return self._session.durability

    @property
    def inflight(self) -> int:
        """Statements currently admitted (dispatched or executing)."""
        return self._inflight

    @property
    def queued(self) -> int:
        """Statements waiting in the admission queue."""
        return len(self._queue)

    @property
    def commit_count(self) -> int:
        """Writes committed so far (the global write sequence length)."""
        return self._commit_seq

    def stats(self) -> List[QueryStats]:
        """Per-query records, oldest first (bounded by stats_history)."""
        return list(self._stats)

    def explain(self, sql: str) -> str:
        """EXPLAIN-style introspection of one SELECT.

        The cost-annotated plan (per-node cardinality/cost and the
        admission cost hint), the live admission-queue state, and —
        when this exact statement text ran before — its recorded
        ``queued_ns`` / ``exec_ns`` timings.
        """
        text = self._session.explain(sql, costs=True)
        lines = [
            text,
            (
                f"admission: max_inflight={self._max_inflight} "
                f"inflight={self._inflight} queued={len(self._queue)} "
                f"writes_committed={self._commit_seq}"
            ),
        ]
        runs = [s for s in self._stats if s.sql == sql]
        if runs:
            last = runs[-1]
            lines.append(
                f"last run: queued {last.queued_ns / 1e6:.3f} ms, "
                f"exec {last.exec_ns / 1e6:.3f} ms "
                f"({len(runs)} recorded run(s))"
            )
        return "\n".join(lines)

    def profile(self) -> str:
        """Formatted table of the recorded per-query stats."""
        header = f"{'kind':<8} {'queued ms':>10} {'exec ms':>10} {'seq':>5}  sql"
        lines = [header, "-" * len(header)]
        for s in self._stats:
            sql = s.sql if len(s.sql) <= 60 else s.sql[:57] + "..."
            lines.append(
                f"{s.kind:<8} {s.queued_ns / 1e6:>10.3f} "
                f"{s.exec_ns / 1e6:>10.3f} {s.write_seq:>5}  {sql}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # FIFO admission
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Admit queued statements from the head (loop thread only).

        Strict FIFO: the head is admitted or nothing is.  Consecutive
        reads at the head batch up to ``max_inflight``; a write at the
        head waits for every in-flight statement and then takes the
        session exclusively.
        """
        while self._queue:
            head = self._queue[0]
            if head.future.cancelled():
                self._queue.popleft()
                continue
            if self._inflight >= self._max_inflight:
                break
            if head.kind == KIND_READ:
                if self._writer_active:
                    break
                self._queue.popleft()
                self._inflight += 1
                self._active_reads += 1
                head.future.set_result(None)
            else:
                if self._inflight > 0:
                    break
                self._queue.popleft()
                self._inflight += 1
                self._writer_active = True
                head.future.set_result(None)
                break
        self._notify_drained()

    def _release(self, kind: str) -> None:
        self._inflight -= 1
        if kind == KIND_READ:
            self._active_reads -= 1
        else:
            self._writer_active = False
        self._pump()

    def _notify_drained(self) -> None:
        if self._drain_waiters and not self._queue and self._inflight == 0:
            waiters, self._drain_waiters = self._drain_waiters, []
            for fut in waiters:
                if not fut.done():
                    fut.set_result(None)

    async def _admit(self, kind: str) -> None:
        """Wait in the FIFO queue for an execution slot.

        Cancellation while waiting removes the entry — the statement is
        never dispatched.  Cancellation racing the grant returns the
        just-granted slot.
        """
        loop = asyncio.get_running_loop()
        waiter = _Waiter(loop.create_future(), kind)
        self._queue.append(waiter)
        self._pump()
        try:
            await waiter.future
        except asyncio.CancelledError:
            if waiter.future.cancelled():
                try:
                    self._queue.remove(waiter)
                except ValueError:
                    pass
                self._pump()
            elif waiter.future.exception() is not None:
                # aborted (shutdown's _abort_queued set ServerClosedError
                # on the waiter) concurrently with the task cancel: no
                # slot was ever granted, so there is nothing to give
                # back — releasing here used to corrupt the admission
                # accounting.  Reading exception() also marks it
                # retrieved, silencing the loop's never-retrieved
                # warning.
                pass
            else:
                # granted concurrently with the cancellation: the slot
                # was never used, give it back
                self._release(kind)
            raise

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    async def execute(
        self,
        sql: str,
        with_stats: bool = False,
        timeout_ms: Optional[int] = None,
    ):
        """Run one statement; returns what :meth:`SQLSession.execute`
        returns (a Relation for SELECT, a row count for DML/SET).

        ``with_stats=True`` returns ``(result, QueryStats)`` instead —
        the hook the concurrency test subsystem uses to relate every
        read to the write prefix it observed.  ``timeout_ms`` overrides
        the session's ``statement_timeout_ms`` for this statement only.
        """
        # parse/classify at arrival (pure); optimize only once the slot
        # is granted, so the plan snapshots index state (patch counts)
        # consistent with what execution will see — a read queued
        # behind a write must be planned *after* it
        return await self.execute_parsed(
            parse_statement(sql), sql, with_stats, timeout_ms=timeout_ms
        )

    async def execute_parsed(
        self,
        stmt,
        sql: str,
        with_stats: bool = False,
        timeout_ms: Optional[int] = None,
    ):
        """:meth:`execute` for an already-parsed statement.

        The server front-end's prepared statements parse once at
        ``prepare`` time and run many times through here — the deferred
        half (optimize, then execute) still happens per run, under the
        same admission discipline as :meth:`execute`, so a prepared
        SELECT is planned against the index state its run will observe.

        Interruption: every dispatched statement runs under its own
        :class:`~repro.engine.interrupt.CancellationToken`.  Cancelling
        the awaiting task fires the token, so a *running* statement
        unwinds at its next checkpoint instead of grinding to
        completion; the admission slot is still held until the worker
        thread actually returns.  The effective deadline
        (``timeout_ms`` override, else the session default) is measured
        from arrival and enforced both while queued (the admission wait
        itself times out) and while executing.
        """
        if self._closed:
            raise ServerClosedError("AsyncSQLSession is closed")
        if timeout_ms is not None:
            timeout_ms = validate_positive_int(timeout_ms, "timeout_ms")
        kind = classify_statement(stmt)
        if (
            self._max_queued is not None
            and kind != KIND_SESSION
            and len(self._queue) >= self._max_queued
        ):
            backlog = len(self._queue) + self._inflight
            backoff_ms = min(5_000, 25 * max(1, backlog))
            raise SessionOverloadedError(
                f"admission queue full ({len(self._queue)} queued, "
                f"max_queued={self._max_queued}); retry in ~{backoff_ms} ms",
                backoff_ms=backoff_ms,
            )
        effective_timeout = (
            timeout_ms if timeout_ms is not None else self.statement_timeout_ms
        )
        token = CancellationToken(timeout_ms=effective_timeout)
        t_arrival = time.perf_counter_ns()
        if token.deadline is None:
            await self._admit(kind)
        else:
            remaining = token.remaining()
            if remaining is not None and remaining <= 0:
                raise QueryTimeoutError(
                    f"query timed out after {effective_timeout} ms"
                )
            try:
                await asyncio.wait_for(self._admit(kind), remaining)
            except asyncio.TimeoutError:
                # the deadline expired while queued; _admit's
                # cancellation path already removed the waiter (or
                # returned a just-granted slot)
                raise QueryTimeoutError(
                    f"query timed out after {effective_timeout} ms "
                    "waiting for admission"
                ) from None
        queued_ns = time.perf_counter_ns() - t_arrival
        try:
            prepared = self._session.prepare_parsed(stmt, sql)
        except BaseException:
            # a statement that fails to bind or plan gives its slot back
            self._release(kind)
            raise

        if kind == KIND_SESSION:
            # session knobs (SET) run inline on the loop: they are
            # metadata-cheap
            try:
                t0 = time.perf_counter_ns()
                result = self._session.run_prepared(prepared)
                exec_ns = time.perf_counter_ns() - t0
            finally:
                self._release(kind)
            return self._finish(
                prepared, queued_ns, exec_ns, self._commit_seq, result, with_stats
            )

        seq_at_start = self._commit_seq
        future = self._lane.submit(_timed_run, self._session, prepared, token)
        try:
            result, exec_ns = await asyncio.wrap_future(future)
        except asyncio.CancelledError:
            # fire the token so the statement unwinds
            # at its next checkpoint instead of grinding to completion;
            # the slot is held until the worker thread actually returns
            token.cancel()
            loop = asyncio.get_running_loop()
            future.add_done_callback(
                lambda f: loop.call_soon_threadsafe(
                    self._finish_late, prepared, queued_ns, seq_at_start, f
                )
            )
            raise
        except Exception:
            self._release(kind)
            raise
        if kind == KIND_WRITE:
            self._commit_seq += 1
            seq = self._commit_seq
        else:
            seq = seq_at_start
        self._release(kind)
        return self._finish(prepared, queued_ns, exec_ns, seq, result, with_stats)

    def _finish(
        self,
        prepared: PreparedStatement,
        queued_ns: int,
        exec_ns: int,
        seq: int,
        result,
        with_stats: bool,
    ):
        stats = QueryStats(
            sql=prepared.sql,
            kind=prepared.kind,
            cost_hint=prepared.cost_hint,
            queued_ns=queued_ns,
            exec_ns=exec_ns,
            write_seq=seq,
        )
        self._stats.append(stats)
        return (result, stats) if with_stats else result

    def _finish_late(
        self, prepared: PreparedStatement, queued_ns: int, seq_at_start: int, future
    ) -> None:
        """Completion of a statement whose awaiter was cancelled.

        ``future`` may itself be cancelled (the cancel can win the race
        against the worker picking the item up) — check before touching
        ``exception()``, which raises on a cancelled future; the slot
        must be released on every path or the session deadlocks.

        A statement that did run still lands in :meth:`stats`: a write
        that committed after its client vanished (e.g. a mid-query
        disconnect at the server) must stay visible in the write log,
        or the committed history could not be replayed.
        """
        kind = prepared.kind
        if not future.cancelled() and future.exception() is None:
            # the statement ran to completion even though nobody awaited it
            result, exec_ns = future.result()
            if kind == KIND_WRITE:
                self._commit_seq += 1
                seq = self._commit_seq
            else:
                seq = seq_at_start
            self._finish(prepared, queued_ns, exec_ns, seq, result, False)
        self._release(kind)

    async def gather(self, *statements: str) -> Tuple:
        """Convenience: run several statements concurrently."""
        return tuple(await asyncio.gather(*(self.execute(s) for s in statements)))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Wait until the queue is empty and nothing is in flight."""
        while self._queue or self._inflight:
            fut = asyncio.get_running_loop().create_future()
            self._drain_waiters.append(fut)
            await fut

    def _abort_queued(self) -> int:
        """Fail every statement still waiting for admission.

        Their ``execute`` calls raise :class:`ServerClosedError` instead
        of hanging until the (never-coming) slot grant; statements that
        already hold a slot are untouched.  Returns how many were
        aborted.
        """
        aborted = 0
        while self._queue:
            waiter = self._queue.popleft()
            if not waiter.future.done():
                waiter.future.set_exception(
                    ServerClosedError(
                        "session is draining; queued statement aborted"
                    )
                )
                aborted += 1
        self._notify_drained()
        return aborted

    async def shutdown(self) -> int:
        """Graceful drain: stop admitting, abort queued, finish in-flight.

        The server-shutdown variant of :meth:`aclose`: new statements
        are rejected with :class:`ServerClosedError`, statements still
        *queued* for admission are aborted with the same typed error
        (they never ran, so the committed write order is untouched), and
        statements already in flight run to completion before the
        statement lane is released.  Returns the number of aborted
        statements.
        Idempotent; :meth:`aclose` after ``shutdown`` is a no-op.
        """
        self._closed = True
        aborted = self._abort_queued()
        await self.drain()
        self._session.close()
        self._lane.shutdown()
        return aborted

    async def aclose(self) -> None:
        """Stop admitting new statements, drain, release the lane.

        Queued statements still run to completion; only statements
        submitted after ``aclose`` began are rejected.
        """
        if self._closed:
            return
        self._closed = True
        await self.drain()
        self._session.close()
        self._lane.shutdown()

    def close(self) -> None:
        """Synchronous teardown for use outside any event loop.

        Must not be called while statements are queued or in flight —
        use :meth:`aclose` from async code.
        """
        self._closed = True
        if self._queue or self._inflight:
            raise RuntimeError("statements still in flight; use aclose()")
        self._session.close()
        self._lane.shutdown()

    async def __aenter__(self) -> "AsyncSQLSession":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AsyncSQLSession(max_inflight={self._max_inflight}, "
            f"inflight={self._inflight}, "
            f"queued={len(self._queue)}, commits={self._commit_seq})"
        )
