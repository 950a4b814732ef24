"""Benchmark support: timing, report formatting, qualitative scoring."""

from repro.bench.harness import (
    format_table,
    time_dml_serial_vs_parallel,
    time_fn,
    time_serial_vs_parallel,
    write_report,
)
from repro.bench.qualitative import qualitative_scores, rank_scores

__all__ = [
    "time_fn",
    "time_serial_vs_parallel",
    "time_dml_serial_vs_parallel",
    "format_table",
    "write_report",
    "rank_scores",
    "qualitative_scores",
]
