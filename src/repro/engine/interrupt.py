"""Cooperative query interruption: tokens, deadlines, checkpoints.

A :class:`CancellationToken` carries two independent stop signals — an
explicit :meth:`~CancellationToken.cancel` flag and an optional
monotonic deadline derived from ``timeout_ms`` — and is *polled*, never
preemptive: operators call :func:`checkpoint` (or ``token.check()``)
between units of work and unwind via a typed
:class:`QueryInterruptedError` subclass.  Because every check sits
*between* chunks, interruption can never observe (or produce) a
half-processed chunk: reads leave tables and PatchIndexes untouched,
and DML performs one final check before applying its mutation, so a
write is either fully applied or provably un-applied.

The active token travels through a thread-local *scope*
(:func:`cancellation_scope`), installed by the session layer around a
statement on the thread that runs it.

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
    "validate_positive_int",
    "validate_optional_positive_int",
    "CHECKPOINT_ROWS",
]

#: Rows between two checkpoints while a token is armed: scans and DML
#: predicates then run in pieces of this size.  65 536 rows keep the
#: numpy kernel time of a piece well above the per-piece overhead (one
#: slice per column and one concatenation), and still let a 1 M-row
#: statement stop after at most 1/16 of its work.
CHECKPOINT_ROWS = 65_536


class QueryInterruptedError(RuntimeError):
    """A statement unwound cooperatively before completing.

    Base class of the two interruption causes; catching it covers both.
    The engine raises it only *between* chunks (or before a DML
    mutation is applied), so whatever raised it left the stored data
    exactly as it was.
    """


class QueryCancelledError(QueryInterruptedError):
    """The statement's :class:`CancellationToken` was explicitly cancelled."""


class QueryTimeoutError(QueryInterruptedError):
    """The statement ran past its ``statement_timeout_ms`` deadline."""


def validate_positive_int(value, name: str) -> int:
    """Validate a knob that must be a positive integer: a timeout in
    milliseconds, a statement-lane width, a queue or connection cap or
    a checkpoint interval.

    Rejects ``bool`` (a common footgun since ``True == 1``) and other
    non-integers with :class:`TypeError`, values below 1 with
    :class:`ValueError`.  A knob that can be switched off validates
    through :func:`validate_optional_positive_int` instead.
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


def validate_optional_positive_int(value, name: str) -> Optional[int]:
    """:func:`validate_positive_int` for a knob that can be switched off.

    ``None`` and the strings ``off`` / ``none`` (any case, as a ``SET``
    statement spells them) disable the knob and return None.
    """
    if value is None or (isinstance(value, str) and value.lower() in ("off", "none")):
        return None
    return validate_positive_int(value, name)


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
            self._timeout_ms = validate_positive_int(timeout_ms, "timeout_ms")
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

    This is the call operators sprinkle between chunks — the disarmed
    cost is one thread-local attribute read.
    """
    token = _SCOPE.token
    if token is not None:
        token.check()
