"""Morsel-parallel executor — serial vs parallel on the Figure 7 suite.

Runs the Figure 7 query shapes (NUC distinct and NSC sort over
PatchIndex plans) plus a scan→filter→aggregate pipeline with a serial
and a morsel-parallel execution context and reports the speedup.  Only
the scan and the filter of that pipeline fan out: the aggregate runs on
the group kernel, one code path whatever the context (its two-phase
parallel twin measured 0.99x here and was deleted).

Two properties are asserted:

* parallel results are bit-identical to serial results, and
* parallel execution does not regress vs serial beyond scheduling noise
  (the speedup itself depends on the core count of the machine — on a
  single-core runner the best possible outcome is ≈1×, since threads
  only interleave the GIL-releasing numpy kernels).

Set ``BENCH_QUICK=1`` to shrink the datasets (the CI smoke job).
"""

import os

import numpy as np

from repro.bench import format_table, time_serial_vs_parallel, write_report
from repro.core import NearlySortedColumn, NearlyUniqueColumn, PatchIndexManager
from repro.engine import ExecutionContext, col
from repro.plan import DistinctNode, Optimizer, ScanNode, SortNode, execute_plan, nodes
from repro.storage import Catalog, Table
from repro.workloads import generate_dataset

QUICK = bool(int(os.environ.get("BENCH_QUICK", "0")))
NUM_ROWS = 60_000 if QUICK else 300_000
AGG_ROWS = 200_000 if QUICK else 1_000_000
PARTITIONS = 4
PARALLELISM = min(4, os.cpu_count() or 1) if (os.cpu_count() or 1) > 1 else 2
EXCEPTION_RATE = 0.1
#: Parallel dispatch on an oversubscribed or noisy machine costs a
#: little; the assertion only guards against pathological overhead
#: (many-times-slower), not scheduling noise.
REGRESSION_SLACK = 1.5
ABS_SLACK = 0.1


def fig7_patchindex_plan(constraint: str):
    ds = generate_dataset(
        NUM_ROWS,
        EXCEPTION_RATE,
        constraint,
        num_partitions=PARTITIONS,
        seed=3,
        name=f"par_{constraint}",
        payload_columns=0 if constraint == "nuc" else 4,
    )
    catalog = Catalog()
    catalog.register(ds.table)
    mgr = PatchIndexManager(catalog)
    cons = NearlyUniqueColumn() if constraint == "nuc" else NearlySortedColumn()
    mgr.create(ds.table, "v", cons)
    if constraint == "nuc":
        plan = DistinctNode(ScanNode(ds.table.name, ["v"]), ["v"])
    else:
        plan = SortNode(ScanNode(ds.table.name), ["v"])
    return Optimizer(catalog, mgr, use_cost_model=False).optimize(plan), catalog


def filter_aggregate_plan():
    rng = np.random.default_rng(1)
    table = Table.from_arrays(
        "par_agg",
        {
            "k": np.arange(AGG_ROWS, dtype=np.int64),
            "g": rng.integers(0, 100, AGG_ROWS).astype(np.int64),
            "v": rng.random(AGG_ROWS),
        },
    )
    catalog = Catalog()
    catalog.register(table)
    plan = nodes.AggregateNode(
        nodes.FilterNode(nodes.ScanNode("par_agg"), (col("v") > 0.25) & (col("g") < 80)),
        ["g"],
        {"n": ("count", None), "s": ("sum", "v"), "mx": ("max", "v")},
    )
    return plan, catalog


def assert_identical(serial, parallel, query: str) -> None:
    assert serial.column_names == parallel.column_names, query
    for name in serial.column_names:
        np.testing.assert_array_equal(
            serial.column(name), parallel.column(name), err_msg=f"{query}.{name}"
        )


def test_parallel_speedup(benchmark):
    suite = [
        ("fig7 NUC distinct (PatchIndex)", *fig7_patchindex_plan("nuc")),
        ("fig7 NSC sort (PatchIndex)", *fig7_patchindex_plan("nsc")),
        ("parallel filter, one-path aggregate", *filter_aggregate_plan()),
    ]
    rows = []
    for name, plan, catalog in suite:
        serial_s, parallel_s = time_serial_vs_parallel(
            lambda ctx, plan=plan, catalog=catalog: execute_plan(plan, catalog, context=ctx),
            parallelism=PARALLELISM,
        )
        rows.append([name, serial_s, parallel_s, serial_s / max(parallel_s, 1e-9)])

        with ExecutionContext(parallelism=PARALLELISM) as ctx:
            assert_identical(
                execute_plan(plan, catalog),
                execute_plan(plan, catalog, context=ctx),
                name,
            )

    report = format_table(
        ["query", "serial [s]", "parallel [s]", "speedup"],
        rows,
        title=(
            f"Morsel-parallel executor (parallelism={PARALLELISM}, "
            f"cpus={os.cpu_count()}, n={NUM_ROWS})"
        ),
    )
    write_report("parallel_speedup", report)

    for name, serial_s, parallel_s, _ in rows:
        assert parallel_s <= serial_s * REGRESSION_SLACK + ABS_SLACK, (
            f"{name}: parallel {parallel_s:.4f}s regressed vs serial {serial_s:.4f}s"
        )

    plan, catalog = suite[0][1], suite[0][2]
    benchmark.pedantic(lambda: execute_plan(plan, catalog), rounds=1, iterations=1)
