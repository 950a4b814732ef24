"""Test-only instrumentation shipped with the library.

Production code imports :mod:`repro.testing.faults` for its injection
points; with no injector armed every point is a single module-level
boolean read, so the harness costs nothing outside the chaos suites.
:mod:`repro.testing.differential` is the cross-engine correctness
oracle: it replays a versioned SQL corpus through :class:`SQLSession`
and stdlib ``sqlite3`` side by side and reports row-level divergences.
Its names are re-exported lazily — the differential module pulls in the
whole SQL stack, while :mod:`repro.engine.operators` imports *this*
package for the fault points, so an eager import would be circular.
"""

from repro.testing.faults import (
    KNOWN_POINTS,
    FaultInjector,
    FaultRule,
    InjectedDisconnectError,
    InjectedFaultError,
    InjectedWorkerError,
    inject,
)

_DIFFERENTIAL_NAMES = frozenset(
    {
        "CORPUS_VERSION",
        "XFAIL_MANIFEST",
        "DifferentialPair",
        "DifferentialReport",
        "Query",
        "ResultMismatch",
        "UnsupportedSQL",
        "build_reference_catalog",
        "default_corpus",
        "mirror_catalog",
        "run_corpus",
    }
)

__all__ = [
    "KNOWN_POINTS",
    "FaultInjector",
    "FaultRule",
    "InjectedDisconnectError",
    "InjectedFaultError",
    "InjectedWorkerError",
    "inject",
    *sorted(_DIFFERENTIAL_NAMES),
]


def __getattr__(name: str):
    """Resolve differential names on first use (PEP 562)."""
    if name in _DIFFERENTIAL_NAMES:
        from repro.testing import differential

        return getattr(differential, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
