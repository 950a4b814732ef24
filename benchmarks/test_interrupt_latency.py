"""Time-to-interrupt of a running scan (PR 8 acceptance).

Measures how long a cooperative cancel takes to unwind a full-table
aggregation that is already executing: a worker thread runs the query
under a caller-held :class:`CancellationToken`, the main thread fires
``cancel()`` mid-scan, and the latency is the gap between the cancel
and the worker observing :class:`QueryCancelledError`.  With a token
armed the scan runs in ``CHECKPOINT_ROWS`` pieces with a checkpoint
between them, so p99 must stay under one piece's work: the armed
runtime divided by ``rows / CHECKPOINT_ROWS`` (with a 50 ms scheduling
floor).  A second pass measures deadline overshoot: how far past
``timeout_ms`` a timed-out query actually returns.

Set ``BENCH_QUICK=1`` to shrink the dataset (the CI smoke job).
"""

import os
import threading
import time

import numpy as np

from repro.bench import format_table, write_report
from repro.engine import (
    CancellationToken,
    QueryCancelledError,
    QueryTimeoutError,
    cancellation_scope,
)
from repro.engine.interrupt import CHECKPOINT_ROWS
from repro.sql import SQLSession
from repro.storage import Catalog, Table

QUICK = bool(int(os.environ.get("BENCH_QUICK", "0")))
N_ROWS = 200_000 if QUICK else 1_500_000
ITERS = 10 if QUICK else 30
SQL = "SELECT SUM(val) AS s FROM events WHERE val >= 0"


def make_session() -> SQLSession:
    rng = np.random.default_rng(7)
    catalog = Catalog()
    catalog.register(
        Table.from_arrays(
            "events",
            {
                "eid": np.arange(N_ROWS, dtype=np.int64),
                "grp": rng.integers(0, 64, N_ROWS).astype(np.int64),
                "val": rng.random(N_ROWS),
            },
        )
    )
    return SQLSession(catalog)


def percentile(samples, q):
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def test_interrupt_latency():
    session = make_session()
    try:
        # warm up, then time the piecewise scan an armed token runs:
        # one piece's share of it is the yardstick
        never = CancellationToken(timeout_ms=3_600_000)
        with cancellation_scope(never):
            session.execute(SQL)
            start = time.perf_counter()
            session.execute(SQL)
            runtime = time.perf_counter() - start
        per_piece = runtime / max(1.0, N_ROWS / CHECKPOINT_ROWS)

        # --- cancel latency -------------------------------------------
        cancel_delay = 0.25 * runtime
        latencies = []
        for _ in range(ITERS):
            token = CancellationToken()
            caught = {}

            def work():
                try:
                    with cancellation_scope(token):
                        session.execute(SQL)
                    caught["t"] = None  # finished before the cancel
                except QueryCancelledError:
                    caught["t"] = time.perf_counter()

            worker = threading.Thread(target=work)
            worker.start()
            time.sleep(cancel_delay)
            cancelled_at = time.perf_counter()
            token.cancel()
            worker.join()
            if caught["t"] is not None:
                latencies.append(caught["t"] - cancelled_at)
        assert len(latencies) >= ITERS // 2, (
            f"cancel landed mid-query only {len(latencies)}/{ITERS} times"
        )
        cancel_p50 = percentile(latencies, 50)
        cancel_p99 = percentile(latencies, 99)

        # acceptance: p99 under one piece's work, 50 ms floor
        bound = max(0.050, per_piece)
        assert cancel_p99 <= bound, (
            f"cancel p99 {cancel_p99 * 1e3:.2f} ms exceeds "
            f"{bound * 1e3:.2f} ms (piece {per_piece * 1e3:.3f} ms)"
        )

        # --- deadline overshoot ---------------------------------------
        timeout_ms = max(1, int(runtime * 1000 * 0.3))
        overshoots = []
        for _ in range(ITERS):
            token = CancellationToken(timeout_ms=timeout_ms)
            start = time.perf_counter()
            try:
                with cancellation_scope(token):
                    session.execute(SQL)
            except QueryTimeoutError:
                elapsed = time.perf_counter() - start
                overshoots.append(elapsed - timeout_ms / 1000.0)
        assert overshoots, "the deadline never fired mid-query"
        timeout_p50 = percentile(overshoots, 50)
        timeout_p99 = percentile(overshoots, 99)

        rows = [
            ["cancel latency", len(latencies), cancel_p50 * 1e3, cancel_p99 * 1e3],
            ["timeout overshoot", len(overshoots), timeout_p50 * 1e3, timeout_p99 * 1e3],
        ]
        report = format_table(
            ["measure", "samples", "p50 (ms)", "p99 (ms)"],
            rows,
            title=(
                f"Interrupt latency: {N_ROWS} rows, {CHECKPOINT_ROWS}-row pieces, "
                f"scan {runtime * 1e3:.1f} ms (~{per_piece * 1e3:.3f} ms/piece), "
                f"deadline {timeout_ms} ms"
            ),
        )
        write_report("interrupt_latency", report)
    finally:
        session.close()
