"""Microbenchmark data generator (paper §6.2, [1]).

Reimplements the paper's generator at laptop scale: two-column datasets
(a unique key and a value column) whose value column violates a given
constraint at a configurable exception rate *e*.

* **NUC datasets** — ``e·n`` exception tuples draw their values from a
  small pool of ``num_exception_values`` shared values (each pool value
  occurs at least twice, so all its occurrences are exceptions); the
  remaining tuples carry globally unique values disjoint from the pool.
* **NSC datasets** — the value column is ascending except at ``e·n``
  randomly chosen, randomly revalued positions.

Exceptions are placed uniformly at random, as in the paper.  The key
column is unique and contiguous, so range partitioning on it yields
near-equal partitions.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Union

import numpy as np

from repro.storage.partition import PartitionedTable
from repro.storage.table import Table

__all__ = ["GeneratedDataset", "generate_dataset", "insert_batch", "modify_batch"]


@dataclasses.dataclass
class GeneratedDataset:
    """A generated table plus its generation parameters."""

    table: Union[Table, PartitionedTable]
    constraint: str
    exception_rate: float
    num_rows: int
    seed: int


def generate_dataset(
    num_rows: int,
    exception_rate: float,
    constraint: str = "nuc",
    num_exception_values: Optional[int] = None,
    num_partitions: int = 1,
    seed: int = 0,
    name: str = "gen",
    payload_columns: int = 0,
) -> GeneratedDataset:
    """Build a §6.2 microbenchmark dataset.

    ``num_exception_values`` defaults to a pool scaled like the paper's
    100 K values at 1 B tuples (but never larger than ``e·n/2`` so every
    pool value repeats).  ``payload_columns`` adds int64 payload columns
    (the paper's tuples are 128 bytes wide; 14 payloads reproduce that),
    which is what makes physically reordering materializations pay for
    the full tuple width.
    """
    if not 0.0 <= exception_rate <= 1.0:
        raise ValueError("exception_rate must be in [0, 1]")
    if constraint not in ("nuc", "nsc"):
        raise ValueError("constraint must be 'nuc' or 'nsc'")
    rng = np.random.default_rng(seed)
    keys = np.arange(num_rows, dtype=np.int64)
    n_exc = int(round(exception_rate * num_rows))
    if constraint == "nuc":
        values = _nuc_values(num_rows, n_exc, num_exception_values, rng)
    else:
        values = _nsc_values(num_rows, n_exc, rng)
    columns: Dict[str, np.ndarray] = {"k": keys, "v": values}
    for p in range(payload_columns):
        columns[f"p{p:02d}"] = rng.integers(0, 1 << 30, num_rows).astype(np.int64)
    table: Union[Table, PartitionedTable] = Table.from_arrays(name, columns)
    if num_partitions > 1:
        table = PartitionedTable.from_table(table, "k", num_partitions)
    return GeneratedDataset(
        table=table,
        constraint=constraint,
        exception_rate=exception_rate,
        num_rows=num_rows,
        seed=seed,
    )


def _nuc_values(
    num_rows: int, n_exc: int, pool_size: Optional[int], rng: np.random.Generator
) -> np.ndarray:
    values = np.arange(num_rows, dtype=np.int64) + num_rows  # unique, >= n
    if n_exc < 2:
        return values
    if pool_size is None:
        # the paper uses 100K values for 1B tuples; scale proportionally
        pool_size = max(1, int(num_rows * 1e5 / 1e9))
    pool_size = max(1, min(pool_size, n_exc // 2))
    positions = rng.choice(num_rows, size=n_exc, replace=False)
    # round-robin over the pool guarantees every value repeats
    values[positions] = np.arange(n_exc, dtype=np.int64) % pool_size
    return values


def _nsc_values(num_rows: int, n_exc: int, rng: np.random.Generator) -> np.ndarray:
    values = np.arange(num_rows, dtype=np.int64)
    if n_exc == 0:
        return values
    positions = rng.choice(num_rows, size=n_exc, replace=False)
    values[positions] = rng.integers(0, num_rows, size=n_exc)
    return values


def insert_batch(
    dataset: GeneratedDataset,
    count: int,
    collide_fraction: float = 0.0,
    seed: int = 1,
) -> Dict[str, np.ndarray]:
    """New tuples to insert: fresh keys, mostly-fresh values.

    ``collide_fraction`` of the values intentionally duplicate existing
    ones (NUC) or fall below the sorted boundary (NSC), exercising the
    patch-adding paths.
    """
    rng = np.random.default_rng(seed)
    next_key = int(dataset.table.column("k").max()) + 1 if dataset.table.num_rows else 0
    keys = np.arange(next_key, next_key + count, dtype=np.int64)
    hi = int(dataset.table.column("v").max()) if dataset.table.num_rows else 0
    values = hi + 1 + np.arange(count, dtype=np.int64)
    n_collide = int(round(collide_fraction * count))
    if n_collide:
        idx = rng.choice(count, size=n_collide, replace=False)
        existing = dataset.table.column("v")
        values[idx] = existing[rng.integers(0, len(existing), size=n_collide)]
    return {"k": keys, "v": values}


def modify_batch(
    dataset: GeneratedDataset, count: int, seed: int = 2
) -> Dict[str, np.ndarray]:
    """Rowids and new values for a modify statement."""
    rng = np.random.default_rng(seed)
    n = dataset.table.num_rows
    rowids = np.sort(rng.choice(n, size=min(count, n), replace=False))
    values = rng.integers(0, n, size=len(rowids)).astype(np.int64)
    return {"rowids": rowids, "v": values}
