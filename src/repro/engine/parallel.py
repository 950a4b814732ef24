"""Morsel-driven parallel execution (the engine-side analogue of §4.2.3).

The paper parallelizes PatchIndex *maintenance* by exploiting that
shard-local bitmap work is independent; this module applies the same
discipline to *query execution*.  Tables are cut into fixed-size row
ranges ("morsels", after the morsel-driven scheduling of Leis et al.),
each morsel is processed by a worker of a shared
:class:`~concurrent.futures.ThreadPoolExecutor`, and the per-morsel
results are combined in morsel order.  Because numpy kernels release the
GIL for the heavy slice work — the same property
:mod:`repro.bitmap.parallel` relies on — scan/filter/patch-select
pipelines scale across cores despite running in threads.

Determinism contract
--------------------
Parallel execution must be indistinguishable from serial execution:

* morsels are formed from contiguous row ranges and concatenated in
  morsel order, so tuple order matches a serial scan bit-for-bit;
* joins match on the calling thread with one vectorised kernel whose
  pair order (probe ascending, build insertion order within a key)
  does not depend on the context;
* distinct and aggregation run on the calling thread over one group
  kernel (:mod:`repro.engine.groups`): every aggregate is a single
  pass in original row order, so IEEE rounding cannot depend on the
  context.

Operators consult the :class:`ExecutionContext` attached to their tree
(see :meth:`repro.engine.operators.Operator.bind_context`); with no
context, or ``parallelism=1``, every path degenerates to the serial
implementation.
"""

from __future__ import annotations

import dataclasses
import operator
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.engine.interrupt import CancellationToken, current_token
from repro.testing import faults

__all__ = [
    "DEFAULT_MORSEL_ROWS",
    "DEFAULT_MIN_PARALLEL_ROWS",
    "ExecutionContext",
    "Morsel",
    "row_chunks",
    "table_morsels",
    "validate_parallelism",
    "validate_stall_timeout",
]

#: Rows per morsel; large enough that numpy kernel time dominates the
#: per-task dispatch overhead, small enough to load-balance.
DEFAULT_MORSEL_ROWS = 65_536

#: Below this many input rows parallel dispatch is pure overhead (the
#: left side of the paper's Figure 6 U-curve) and operators run serially.
DEFAULT_MIN_PARALLEL_ROWS = 16_384

T = TypeVar("T")
R = TypeVar("R")


def validate_parallelism(value: object, name: str = "parallelism") -> int:
    """Validate a worker-count knob, returning it as a plain int.

    Shared by every surface that accepts a parallelism setting (the
    ``SET parallelism`` statement, session/context constructors and
    PatchIndex maintenance): the value must be a positive integer.
    Floats, bools and strings are rejected with a :class:`TypeError`,
    zero and negatives with a :class:`ValueError`, instead of surfacing
    later as worker-pool misbehavior.
    """
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    try:
        parallelism = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if parallelism < 1:
        raise ValueError(f"{name} must be a positive integer, got {parallelism}")
    return int(parallelism)


def validate_stall_timeout(value: object, name: str = "stall_timeout_s") -> float:
    """Validate a stall-timeout knob: a positive number of seconds.

    ``None`` (= disabled) is handled by callers before validation, never
    here; bools and non-numbers are rejected like
    :func:`validate_parallelism` rejects them.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return float(value)


def _run_morsel_task(
    fn: Callable[[T], R], item: T, token: Optional[CancellationToken]
) -> R:
    """One pool task: checkpoint, fault point, then the actual work.

    A module-level function (not a closure inside :meth:`map`) so the
    token travels *explicitly*: pool workers do not inherit the
    submitter's thread-local cancellation scope, and capturing the token
    at fan-out time is what makes checkpoints fire on worker threads.
    """
    if token is not None:
        token.check()
    if faults.ACTIVE:
        faults.fire("worker.morsel")
    return fn(item)


@dataclasses.dataclass(frozen=True)
class Morsel:
    """A contiguous row range of one table (or partition).

    ``rowid_offset`` is the global rowID of row ``start``, so scans can
    tell which of a PatchIndex's (global) patch rowIDs fall into it.
    """

    table: object
    start: int
    stop: int
    rowid_offset: int

    @property
    def num_rows(self) -> int:
        return self.stop - self.start


def row_chunks(num_rows: int, chunk_rows: int) -> List[Tuple[int, int]]:
    """Split ``[0, num_rows)`` into contiguous ``(start, stop)`` ranges."""
    if chunk_rows <= 0:
        raise ValueError("chunk_rows must be positive")
    return [
        (start, min(start + chunk_rows, num_rows))
        for start in range(0, num_rows, chunk_rows)
    ]


def table_morsels(table, morsel_rows: int = DEFAULT_MORSEL_ROWS) -> List[Morsel]:
    """Morsels covering ``table`` in row order.

    Partitioned tables contribute per-partition ranges (morsels never
    span a partition boundary, mirroring the partition-local processing
    of §3.2); plain tables are cut into ``morsel_rows`` ranges.
    """
    partitions = getattr(table, "partitions", None)
    if partitions is None:
        return [
            Morsel(table, start, stop, start)
            for start, stop in row_chunks(table.num_rows, morsel_rows)
        ]
    offsets = table.partition_offsets()
    morsels: List[Morsel] = []
    for part, offset in zip(partitions, offsets):
        for start, stop in row_chunks(part.num_rows, morsel_rows):
            morsels.append(Morsel(part, start, stop, int(offset) + start))
    return morsels


class ExecutionContext:
    """Shared worker pool plus the knobs of one parallel execution.

    Parameters
    ----------
    parallelism:
        Worker count; ``1`` disables parallel paths entirely and ``None``
        uses the CPU count.
    morsel_rows:
        Rows per morsel / per filter and top-n chunk.
    min_parallel_rows:
        Operators with fewer input rows stay serial.
    external_workers:
        Worker count of the *external lane* (see
        :meth:`submit_external`); defaults to ``max(2, parallelism)``.
    stall_timeout_s:
        If set, :meth:`map` treats a pool task that produces no result
        for this many seconds as *wedged*: the pool is quarantined
        (shut down without waiting and replaced lazily) and the
        unfinished morsels are recomputed inline — safe because morsel
        tasks are pure.  ``None`` (the default) disables stall
        detection; a healthy deployment relies on cooperative
        cancellation instead.

    The pool is created lazily on first use and shared by every operator
    bound to the context (and by concurrent queries of one session); it
    is safe to call :meth:`map` from several threads at once.

    The context is designed as a *shared handle*: a multi-client
    front-end (:class:`repro.sql.async_session.AsyncSQLSession`) creates
    one context and hands it to its blocking session core, so every
    client's morsel work multiplexes onto one worker pool instead of
    each client spinning up its own.
    """

    def __init__(
        self,
        parallelism: Optional[int] = None,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
        min_parallel_rows: int = DEFAULT_MIN_PARALLEL_ROWS,
        external_workers: Optional[int] = None,
        stall_timeout_s: Optional[float] = None,
    ) -> None:
        if parallelism is None:
            parallelism = os.cpu_count() or 1
        parallelism = validate_parallelism(parallelism)
        if morsel_rows < 1:
            raise ValueError("morsel_rows must be >= 1")
        if external_workers is None:
            external_workers = max(2, parallelism)
        if stall_timeout_s is not None:
            stall_timeout_s = validate_stall_timeout(stall_timeout_s)
        self._parallelism = parallelism
        self.morsel_rows = int(morsel_rows)
        self.min_parallel_rows = int(min_parallel_rows)
        self._external_workers = validate_parallelism(
            external_workers, name="external_workers"
        )
        self._stall_timeout_s = stall_timeout_s
        self._heal_count = 0
        self._pool: Optional[ThreadPoolExecutor] = None
        self._external: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def parallelism(self) -> int:
        return self._parallelism

    @property
    def active(self) -> bool:
        """Whether parallel paths should engage at all."""
        return self._parallelism > 1

    @property
    def stall_timeout_s(self) -> Optional[float]:
        """Seconds before a silent pool task counts as wedged (None = off)."""
        return self._stall_timeout_s

    @property
    def heal_count(self) -> int:
        """How many times a wedged pool was quarantined and replaced."""
        return self._heal_count

    def should_parallelize(self, num_rows: int, num_tasks: int = 2) -> bool:
        """Gate for operators: enough rows and at least two tasks."""
        return self.active and num_tasks >= 2 and num_rows >= self.min_parallel_rows

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> Optional[ThreadPoolExecutor]:
        if self._pool is None:
            with self._pool_lock:
                if self._closed:
                    return None
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(
                        max_workers=self._parallelism,
                        thread_name_prefix="repro-exec",
                    )
        return self._pool

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, returning results in item order.

        Runs inline when the context is serial, closed, or there is at
        most one item; otherwise dispatches to the shared pool.  The
        first worker exception propagates to the caller with its
        original traceback; the pool's threads survive task exceptions,
        so a poisoned morsel never wedges the context.

        The calling thread's :class:`CancellationToken` (if a
        cancellation scope is installed) is captured at fan-out time and
        checked before every morsel — on pool workers via the explicit
        capture, inline via the same path — so both execution modes
        interrupt with morsel granularity.

        With ``stall_timeout_s`` armed, a task that stays silent past
        the deadline triggers self-healing: the wedged pool is
        quarantined, its unfinished morsels are recomputed inline
        (morsel tasks are pure, so recomputation is safe), and the next
        parallel call lazily builds a replacement pool.

        ``fn`` must not call :meth:`map` recursively: only leaf-level
        morsel work goes to the pool, operator orchestration stays on the
        calling thread, which keeps the fixed-size pool deadlock-free.
        """
        token = current_token()
        if not self.active or len(items) <= 1:
            return self._map_inline(fn, items, token)
        pool = self._ensure_pool()
        if pool is None:
            # closed (e.g. by SET parallelism racing an in-flight query):
            # degrade to inline execution rather than resurrect a pool
            # nothing would ever shut down again.
            return self._map_inline(fn, items, token)
        try:
            futures = [pool.submit(_run_morsel_task, fn, item, token) for item in items]
        except RuntimeError:
            # the pool shut down between _ensure_pool and the submit;
            # morsel tasks are pure, so recomputing inline is safe
            if self._closed:
                return self._map_inline(fn, items, token)
            raise
        return self._collect(pool, futures, fn, items, token)

    @staticmethod
    def _map_inline(
        fn: Callable[[T], R],
        items: Sequence[T],
        token: Optional[CancellationToken],
    ) -> List[R]:
        """Serial fallback with the same per-morsel checkpoints as the pool."""
        out: List[R] = []
        for item in items:
            if token is not None:
                token.check()
            if faults.ACTIVE:
                faults.fire("worker.morsel")
            out.append(fn(item))
        return out

    def _collect(
        self,
        pool: ThreadPoolExecutor,
        futures: List["Future[R]"],
        fn: Callable[[T], R],
        items: Sequence[T],
        token: Optional[CancellationToken],
    ) -> List[R]:
        """Gather morsel results in item order, healing a wedged pool."""
        results: List[R] = [None] * len(futures)  # type: ignore[list-item]
        try:
            for i, future in enumerate(futures):
                results[i] = future.result(timeout=self._stall_timeout_s)
        except FuturesTimeoutError:
            # A task sat past stall_timeout_s with no result: treat the
            # pool as wedged.  Quarantine it (replacement is built lazily
            # by the next parallel call) and finish this map serially.
            for future in futures:
                future.cancel()
            self._quarantine(pool)
            for i, future in enumerate(futures):
                if (
                    future.done()
                    and not future.cancelled()
                    and future.exception() is None
                ):
                    results[i] = future.result()
                else:
                    if token is not None:
                        token.check()
                    results[i] = fn(items[i])
        except BaseException:
            # worker exception or an interrupt on this thread: drop the
            # not-yet-started morsels and propagate
            for future in futures:
                future.cancel()
            raise
        return results

    def _quarantine(self, pool: ThreadPoolExecutor) -> None:
        """Retire a wedged pool; the next parallel call builds a new one."""
        with self._pool_lock:
            if self._closed or self._pool is not pool:
                # someone else already replaced (or closed) it
                pool.shutdown(wait=False, cancel_futures=True)
                return
            self._pool = None
            self._heal_count += 1
        pool.shutdown(wait=False, cancel_futures=True)

    def map_grouped(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        keys: Sequence[object],
    ) -> List[R]:
        """Apply ``fn`` to every item with affinity grouping.

        Items sharing a key form one pool task that processes them
        sequentially on a single worker — the NUMA-style affinity the
        parallel sort uses to keep a partition's chunks (and their
        minmax/patch caches) on one thread.  Results come back in item
        order regardless of grouping, and the same recursion rule as
        :meth:`map` applies: ``fn`` must be leaf-level work.
        """
        if len(keys) != len(items):
            raise ValueError("need one affinity key per item")
        token = current_token()
        if not self.active or len(items) <= 1:
            return self._map_inline(fn, items, token)
        groups: dict = {}
        for pos, (item, key) in enumerate(zip(items, keys)):
            groups.setdefault(key, []).append((pos, item))
        if len(groups) <= 1:
            return self._map_inline(fn, items, token)

        def run_group(entries: List[Tuple[int, T]]) -> List[Tuple[int, R]]:
            out = []
            for pos, item in entries:
                # morsel-granular checkpoints *within* an affinity group
                # too, not just between groups
                if token is not None:
                    token.check()
                out.append((pos, fn(item)))
            return out

        out: List[R] = [None] * len(items)  # type: ignore[list-item]
        for batch in self.map(run_group, list(groups.values())):
            for pos, result in batch:
                out[pos] = result
        return out

    # ------------------------------------------------------------------
    # external lane (statement-granular work)
    # ------------------------------------------------------------------
    @property
    def external_workers(self) -> int:
        """Worker count of the external lane."""
        return self._external_workers

    def _ensure_external(self) -> Optional[ThreadPoolExecutor]:
        if self._external is None:
            with self._pool_lock:
                if self._closed:
                    return None
                if self._external is None:
                    self._external = ThreadPoolExecutor(
                        max_workers=self._external_workers,
                        thread_name_prefix="repro-extern",
                    )
        return self._external

    def submit_external(self, fn: Callable[..., R], *args, **kwargs) -> "Future[R]":
        """Run ``fn`` on the external lane, returning its Future.

        The external lane is a second, separately-sized pool for
        *statement-granular* work — e.g. one client query dispatched off
        an event loop — as opposed to the morsel-granular tasks
        :meth:`map` fans out.  Keeping the lanes apart preserves the
        executor's deadlock-freedom rule: morsel workers never block on
        other morsel tasks, and a statement running on the external lane
        may freely call :meth:`map` (the fan-out lands on the morsel
        pool, not back on its own lane).  Unlike :meth:`map`, this works
        at any ``parallelism`` including 1 — a serial context still
        offers the lane so a front-end can push blocking statements off
        its event loop.

        Raises :class:`RuntimeError` once the context is closed.
        """
        pool = self._ensure_external()
        if pool is None:
            raise RuntimeError("cannot submit external work to a closed context")
        return pool.submit(fn, *args, **kwargs)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut both worker pools down (idempotent and permanent).

        In-flight :meth:`map` callers finish; later calls run inline.
        In-flight external-lane work finishes; later
        :meth:`submit_external` calls raise.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
            external, self._external = self._external, None
            self._closed = True
        for p in (pool, external):
            if p is not None:
                # a pool thread closing its own context (e.g. a SET
                # statement executing on the external lane) must not
                # join itself; the interpreter reaps the workers.
                wait = threading.current_thread() not in getattr(p, "_threads", ())
                p.shutdown(wait=wait)

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ExecutionContext(parallelism={self._parallelism}, "
            f"morsel_rows={self.morsel_rows})"
        )
