"""TPC-H join acceleration with an NSC PatchIndex (paper §6.3).

Generates a TPC-H subset, perturbs 5 % of the lineitem order, defines a
PatchIndex on ``l_orderkey`` and compares Q3 with a plain hash join,
with the PatchIndex rewrite (a join whose build needs no sort on the
sorted 95 % + a join built on the patches), and with zero-branch
pruning on clean data.

Run:  python examples/tpch_join_acceleration.py
"""

import time

from repro.core import NearlySortedColumn, PatchIndexManager
from repro.plan import Optimizer, execute_plan
from repro.storage import Catalog
from repro.workloads import generate_tpch, perturb_order
from repro.workloads.tpch_queries import q3_plan


def timed(label: str, fn):
    start = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - start
    print(f"{label:<38} {elapsed * 1000:8.1f} ms   ({out.num_rows} result rows)")
    return out


def main() -> None:
    data = generate_tpch(scale=0.02, seed=1)
    catalog = Catalog()
    data.register(catalog)
    catalog.add_structure("sortkey", "orders", "o_orderkey", object())

    # 5 % of lineitem rows moved out of order: the sorting constraint on
    # l_orderkey is now only approximately true
    lineitem = perturb_order(data.lineitem, 0.05, seed=2)
    catalog.register(lineitem)

    manager = PatchIndexManager(catalog)
    handle = manager.create(lineitem, "l_orderkey", NearlySortedColumn())
    print(f"lineitem rows: {lineitem.num_rows}, patches: {handle.num_patches} "
          f"(e = {handle.exception_rate:.2%})\n")

    reference = timed("Q3, plain hash join", lambda: execute_plan(q3_plan(), catalog))

    optimizer = Optimizer(catalog, manager, use_cost_model=False)
    rewritten = optimizer.optimize(q3_plan())
    result = timed("Q3, PatchIndex merge join", lambda: execute_plan(rewritten, catalog))
    assert result.num_rows == reference.num_rows

    # clean data: zero-branch pruning removes the patch subtree entirely
    manager.drop("lineitem", "l_orderkey")
    catalog.register(data.lineitem)
    handle = manager.create(data.lineitem, "l_orderkey", NearlySortedColumn())
    assert handle.num_patches == 0
    zbp = Optimizer(catalog, manager, zero_branch_pruning=True,
                    use_cost_model=False).optimize(q3_plan())
    timed("Q3, PatchIndex + zero-branch pruning", lambda: execute_plan(zbp, catalog))
    print("\noptimized plan with ZBP:")
    print(zbp.explain())


if __name__ == "__main__":
    main()
