"""Worker-count validation shared by every knob that sizes a thread pool.

Query execution is serial.  The knobs validated here size the pools
that remain: the async session's statement lane (``max_inflight``), its
admission queue bound (``max_queued``), the server's connection cap and
PatchIndex maintenance on the sharded bitmap
(:class:`~repro.bitmap.parallel.ShardTaskPool`, §4.2.3).
"""

from __future__ import annotations

import operator

__all__ = ["validate_parallelism"]


def validate_parallelism(value: object, name: str = "parallelism") -> int:
    """Validate a worker-count knob, returning it as a plain int.

    The value must be a positive integer.  Floats, bools and strings are
    rejected with a :class:`TypeError`, zero and negatives with a
    :class:`ValueError`, instead of surfacing later as worker-pool
    misbehavior.
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
