"""Constraint drift: perfect constraints becoming approximate over time.

The paper's closing argument (§6.3): with a classical UNIQUE
constraint, an insert that collides must be *aborted*.  A PatchIndex
instead lets the update through and transitions the constraint from
perfect to approximate, while queries keep exploiting it.  This example
simulates an HTAP-style trickle of updates against an initially clean
table, tracks the exception rate, and then answers a DISTINCT query
through the PatchIndex plan on the now-approximate constraint.

Run:  python examples/constraint_drift.py
"""

import numpy as np

from repro.core import NearlyUniqueColumn, PatchIndexManager
from repro.plan import DistinctNode, Optimizer, ScanNode, execute_plan
from repro.storage import Catalog, Table


def main() -> None:
    rng = np.random.default_rng(7)
    n = 30_000
    orders = Table.from_arrays(
        "order_ids",
        {"id": np.arange(n), "order_no": np.arange(n, dtype=np.int64)},
    )
    catalog = Catalog()
    catalog.register(orders)
    manager = PatchIndexManager(catalog)
    handle = manager.create(orders, "order_no", NearlyUniqueColumn())
    print(f"initially perfect: e = {handle.exception_rate:.3%} "
          f"({handle.num_patches} patches)\n")

    # trickle updates: occasionally a duplicate order number arrives
    # (classic constraints would abort these statements)
    for day in range(10):
        fresh = np.arange(50, dtype=np.int64) + n + day * 50
        dup_count = rng.integers(1, 6)
        dups = rng.integers(0, n, size=dup_count)
        order_no = np.concatenate([fresh, orders.column("order_no")[dups]])
        ids = np.arange(len(order_no)) + orders.num_rows
        orders.insert({"id": ids, "order_no": order_no})
        print(f"day {day}: inserted {len(order_no):3d} orders "
              f"({dup_count} duplicates) -> e = {handle.exception_rate:.3%}")
    assert handle.verify()

    # queries still exploit the (now approximate) constraint
    plan = Optimizer(catalog, manager, use_cost_model=False).optimize(
        DistinctNode(ScanNode("order_ids", ["order_no"]), ["order_no"])
    )
    result = execute_plan(plan, catalog)
    print(f"\ndistinct order numbers via PatchIndex plan: {result.num_rows}")


if __name__ == "__main__":
    main()
