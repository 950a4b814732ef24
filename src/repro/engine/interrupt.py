"""Cooperative query interruption: tokens, deadlines, checkpoints.

A :class:`CancellationToken` carries two independent stop signals — an
explicit :meth:`~CancellationToken.cancel` flag and an optional
monotonic deadline derived from ``timeout_ms`` — and is *polled*, never
preemptive: morsel pipelines call :func:`checkpoint` (or
``token.check()``) between units of work and unwind via a typed
:class:`QueryInterruptedError` subclass.  Because every check sits
*between* morsels, interruption can never observe (or produce) a
half-processed morsel: reads leave tables and PatchIndexes untouched,
and DML performs one final check before applying its mutation, so a
write is either fully applied or provably un-applied.

The active token travels through a thread-local *scope*
(:func:`cancellation_scope`), installed by the session layer around a
statement.  Worker threads of an
:class:`~repro.engine.parallel.ExecutionContext` pool do not inherit
the submitter's thread-local state — the context captures the current
token at fan-out time and closes over it in the per-morsel task, which
is why checkpoints fire on pool workers too.

The no-token fast path is a single thread-local read per checkpoint, so
instrumenting operators costs nothing when interruption is not armed.
"""

from __future__ import annotations

import operator
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = [
    "QueryInterruptedError",
    "QueryCancelledError",
    "QueryTimeoutError",
    "CancellationToken",
    "cancellation_scope",
    "current_token",
    "checkpoint",
    "validate_timeout_ms",
]


class QueryInterruptedError(RuntimeError):
    """A statement unwound cooperatively before completing.

    Base class of the two interruption causes; catching it covers both.
    The engine raises it only *between* morsels (or before a DML
    mutation is applied), so whatever raised it left the stored data
    exactly as it was.
    """


class QueryCancelledError(QueryInterruptedError):
    """The statement's :class:`CancellationToken` was explicitly cancelled."""


class QueryTimeoutError(QueryInterruptedError):
    """The statement ran past its ``statement_timeout_ms`` deadline."""


def validate_timeout_ms(value, name: str = "statement_timeout_ms") -> int:
    """Validate a millisecond timeout knob: a positive integer.

    Mirrors :func:`~repro.engine.parallel.validate_parallelism`: rejects
    ``bool`` (a common footgun since ``True == 1``), non-integers, and
    values below 1.  ``None`` (= disabled) is handled by callers before
    validation, never here.
    """
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got bool")
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(
            f"{name} must be an integer, got {type(value).__name__}"
        ) from None
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


class CancellationToken:
    """One statement's stop signal: an explicit flag plus a deadline.

    Thread-safe by construction: ``cancel()`` flips a single boolean
    that readers poll, and the deadline is immutable after ``__init__``.
    The token is created by the session when the statement is admitted,
    so a ``timeout_ms`` deadline covers queue wait as well as execution.
    """

    __slots__ = ("_cancelled", "_deadline", "_timeout_ms")

    def __init__(self, timeout_ms: Optional[int] = None) -> None:
        self._cancelled = False
        if timeout_ms is None:
            self._timeout_ms = None
            self._deadline = None
        else:
            self._timeout_ms = validate_timeout_ms(timeout_ms)
            self._deadline = time.monotonic() + self._timeout_ms / 1000.0

    def cancel(self) -> None:
        """Request interruption; the statement unwinds at its next check."""
        self._cancelled = True

    @property
    def deadline(self) -> Optional[float]:
        """Absolute ``time.monotonic()`` deadline, if a timeout is armed."""
        return self._deadline

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (may be negative); None if unarmed."""
        if self._deadline is None:
            return None
        return self._deadline - time.monotonic()

    def check(self) -> None:
        """Raise the matching :class:`QueryInterruptedError` if signalled.

        Explicit cancellation wins over an expired deadline when both
        apply — the user's intent is the more specific signal.
        """
        if self._cancelled:
            raise QueryCancelledError("query cancelled")
        if self._deadline is not None and time.monotonic() >= self._deadline:
            raise QueryTimeoutError(
                f"query timed out after {self._timeout_ms} ms"
            )


class _Scope(threading.local):
    """Per-thread stack cell holding the active token."""

    token: Optional[CancellationToken] = None


_SCOPE = _Scope()


def current_token() -> Optional[CancellationToken]:
    """The token installed on this thread, or None outside any scope."""
    return _SCOPE.token


@contextmanager
def cancellation_scope(token: Optional[CancellationToken]) -> Iterator[None]:
    """Install ``token`` as this thread's active token for the block.

    Scopes nest: the previous token is restored on exit, so a statement
    run from inside another statement's scope (tests do this) sees its
    own token only.  ``None`` explicitly clears the scope for the block.
    """
    previous = _SCOPE.token
    _SCOPE.token = token
    try:
        yield
    finally:
        _SCOPE.token = previous


def checkpoint() -> None:
    """Poll this thread's active token; no-op when no scope is installed.

    This is the call operators sprinkle between morsels — the disarmed
    cost is one thread-local attribute read.
    """
    token = _SCOPE.token
    if token is not None:
        token.check()
