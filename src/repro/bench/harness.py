"""Timing and report helpers shared by the benchmark suite.

Benchmarks regenerate the paper's tables and figures as text reports:
each run prints the rows/series and writes them under
``benchmarks/results/`` so EXPERIMENTS.md can cite stable artifacts.
Absolute timings are Python-scale; the reports therefore focus on the
ratios and orderings the paper's conclusions rest on.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterable, List, Optional, Sequence

__all__ = [
    "time_fn",
    "format_table",
    "write_report",
    "results_dir",
]


def time_fn(fn: Callable[[], object], repeats: int = 3, warmup: int = 1) -> float:
    """Median wall-clock seconds of ``fn`` over ``repeats`` runs."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width text table."""
    rendered: List[List[str]] = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.001:
            return f"{value:.2e}"
        return f"{value:.4f}"
    return str(value)


def results_dir() -> str:
    """Directory for benchmark report artifacts."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(__file__))))
    path = os.path.join(here, "benchmarks", "results")
    os.makedirs(path, exist_ok=True)
    return path


def write_report(name: str, text: str) -> str:
    """Print a report; persist it only when ``BENCH_WRITE`` is set.

    Every benchmark prints its report unconditionally, but the file
    under ``benchmarks/results/`` is refreshed only when the
    ``BENCH_WRITE`` environment variable is truthy (the dedicated
    bench CI job sets it) — a plain test run used to rewrite every
    result file it happened to execute, churning noisy timing artifacts
    through unrelated commits.  Only the benchmark that actually ran
    ever touches its own file; nothing else is rewritten.
    """
    print()
    print(text)
    path = os.path.join(results_dir(), f"{name}.txt")
    if os.environ.get("BENCH_WRITE", "").lower() not in ("", "0", "false"):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return path
