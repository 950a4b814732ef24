"""Seeded, deterministic fault injection behind zero-cost no-ops.

Production code marks *injection points* like this::

    from repro.testing import faults

    if faults.ACTIVE:
        faults.fire("worker.morsel")

With no injector armed (``ACTIVE`` is False, the default and the only
production state) a point is one module-global boolean read.  The chaos
suites arm a :class:`FaultInjector` — a seeded RNG plus per-point
:class:`FaultRule` s — via the :func:`inject` context manager, and every
draw is made from that single seeded stream, so a failing schedule is
reproduced by re-running with the same seed.

Supported actions:

``raise``
    Raise ``rule.exc`` (default :class:`InjectedWorkerError`) at the
    point — a worker crash, a dropped connection, a poisoned task.
``sleep``
    Sleep ``rule.sleep_s`` — a slow scan piece or a laggy peer.
``block``
    Park the calling thread on an event until the test calls
    :meth:`FaultInjector.release` (or a safety cap expires) — a wedged
    statement thread holding its admission slot.

Byte corruption is separate: codecs call :func:`mutate` on outgoing
frames, and a ``corrupt`` rule flips one deterministically chosen byte.

Known injection points (the :data:`KNOWN_POINTS` registry; grep for
``faults.fire`` / ``faults.mutate`` — a test asserts the two agree):

- ``worker.morsel`` — once per piece of a piecewise scan, before the
  piece's checkpoint (:meth:`repro.engine.operators.Scan.execute`).
- ``session.dispatch`` — at the top of the async session's worker-thread
  statement body.
- ``server.send`` — before a server frame is written to a connection.
- ``server.frame`` — mutate point for outgoing server frames.
- ``wal.append`` — before a WAL frame is written
  (:meth:`repro.storage.wal.WriteAheadLog.append`); a ``raise`` rule
  here is a crash at the commit point, before the statement logged.
- ``wal.fsync`` — before ``os.fsync`` of the WAL
  (:meth:`repro.storage.wal.WriteAheadLog.sync`); a crash between a
  record's flush and its fsync, the window group/off policies leave
  open under power loss.
- ``checkpoint.write`` — after a checkpoint temp file is written and
  fsynced but before its atomic rename
  (:meth:`repro.storage.wal.DurabilityManager.checkpoint`); a crash
  here must leave the previous checkpoint + un-rotated WAL fully
  recoverable.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional

__all__ = [
    "ACTIVE",
    "KNOWN_POINTS",
    "FaultInjector",
    "FaultRule",
    "InjectedDisconnectError",
    "InjectedFaultError",
    "InjectedWorkerError",
    "fire",
    "inject",
    "mutate",
]

#: Fast-path guard read by every injection point.  Only :func:`inject`
#: flips it, and only for the duration of a test block.
ACTIVE = False

#: Every injection point compiled into the codebase, in rough
#: request-path order.  The chaos suites iterate this to kill at every
#: point, and ``tests/testing/test_faults_registry.py`` asserts it
#: matches the ``faults.fire``/``faults.mutate`` call sites *and* the
#: module docstring, so the registry cannot drift.
KNOWN_POINTS = (
    "server.frame",
    "server.send",
    "session.dispatch",
    "worker.morsel",
    "wal.append",
    "wal.fsync",
    "checkpoint.write",
)

_INJECTOR: Optional["FaultInjector"] = None

#: Upper bound on how long a ``block`` action may park a thread, so a
#: test that forgets to release an injector cannot hang the suite.
BLOCK_CAP_S = 30.0


class InjectedFaultError(RuntimeError):
    """Base class for every deliberately injected failure."""


class InjectedWorkerError(InjectedFaultError):
    """An injected crash inside a worker task."""


class InjectedDisconnectError(ConnectionError):
    """An injected connection drop (a :class:`ConnectionError` so the
    normal peer-vanished handling applies)."""


@dataclass
class FaultRule:
    """How one injection point misbehaves under an armed injector."""

    probability: float = 1.0
    max_fires: Optional[int] = None
    action: str = "raise"  # raise | sleep | block | corrupt
    exc: Optional[type] = None
    sleep_s: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ("raise", "sleep", "block", "corrupt"):
            raise ValueError(f"unknown fault action {self.action!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")


@dataclass
class FaultInjector:
    """A seeded schedule of faults over named injection points.

    All randomness flows through one ``random.Random(seed)`` guarded by
    a lock: given the same seed and the same *sequence* of point visits,
    the injector makes the same decisions.  ``fired`` counts decisions
    per point for post-hoc assertions.
    """

    seed: int
    rules: Mapping[str, FaultRule] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        self.fired: Dict[str, int] = {}
        self._blocks: Dict[str, threading.Event] = {}

    def decide(self, point: str) -> Optional[FaultRule]:
        """Draw for ``point``; return the rule to apply, or None."""
        rule = self.rules.get(point)
        if rule is None:
            return None
        with self._lock:
            if rule.max_fires is not None and self.fired.get(point, 0) >= rule.max_fires:
                return None
            if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                return None
            self.fired[point] = self.fired.get(point, 0) + 1
        return rule

    def block_event(self, point: str) -> threading.Event:
        """The event a ``block`` action at ``point`` parks on."""
        with self._lock:
            if point not in self._blocks:
                self._blocks[point] = threading.Event()
            return self._blocks[point]

    def release(self, point: str) -> None:
        """Unpark threads blocked at ``point``."""
        self.block_event(point).set()

    def release_all(self) -> None:
        """Unpark every blocked thread (always call from test teardown)."""
        with self._lock:
            events = list(self._blocks.values())
        for event in events:
            event.set()

    def corrupt(self, data: bytes) -> bytes:
        """Flip one deterministically chosen byte of ``data``."""
        if not data:
            return data
        with self._lock:
            pos = self._rng.randrange(len(data))
            bit = 1 << self._rng.randrange(8)
        out = bytearray(data)
        out[pos] ^= bit
        return bytes(out)


def fire(point: str) -> None:
    """Apply the armed injector's rule for ``point``, if any.

    Call only behind an ``if faults.ACTIVE:`` guard so production code
    pays a single boolean read.
    """
    injector = _INJECTOR
    if injector is None:
        return
    rule = injector.decide(point)
    if rule is None or rule.action == "corrupt":
        return
    if rule.action == "sleep":
        import time

        time.sleep(rule.sleep_s)
        return
    if rule.action == "block":
        injector.block_event(point).wait(BLOCK_CAP_S)
        return
    exc = rule.exc if rule.exc is not None else InjectedWorkerError
    raise exc(f"injected fault at {point!r}")


def mutate(point: str, data: bytes) -> bytes:
    """Return ``data``, corrupted if a ``corrupt`` rule fires at ``point``."""
    injector = _INJECTOR
    if injector is None:
        return data
    rule = injector.decide(point)
    if rule is None or rule.action != "corrupt":
        return data
    return injector.corrupt(data)


@contextmanager
def inject(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Arm ``injector`` for the block; restores the no-op state on exit.

    Not reentrant (one injector at a time, enforced), and the exit path
    releases any still-blocked threads before disarming.
    """
    global ACTIVE, _INJECTOR
    if _INJECTOR is not None:
        raise RuntimeError("a FaultInjector is already armed")
    _INJECTOR = injector
    ACTIVE = True
    try:
        yield injector
    finally:
        ACTIVE = False
        _INJECTOR = None
        injector.release_all()
