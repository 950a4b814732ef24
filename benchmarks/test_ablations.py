"""Ablations over the paper's design choices.

Not a paper figure — these isolate the individual mechanisms the paper
motivates qualitatively:

* **dynamic range propagation** (§5.1): insert-handling join with and
  without the minmax-pruned probe scan;
* **cost-model gating** (§3.5/§6.3): forced rewrites vs cost-gated
  rewrites on a query where cloning does not pay (the Q12 effect);
* **condense** (§4.2.4): bit-access cost before/after reclaiming lost
  capacity.

Measured, then removed: **parallel bulk delete** (§4.2.3), a thread
pool vs sequential shard-local shifting of 30 k deletes from a 2^22-bit
bitmap at 2^14-bit shards: 0.148 s parallel vs 0.134 s sequential, so
the pool was removed.  CPython threads serialize the per-bit shift loop
on the GIL; the pool only added hand-offs.
"""

import numpy as np

from repro.bench import format_table, time_fn, write_report
from repro.bitmap import ShardedBitmap
from repro.core import NearlyUniqueColumn, NearlySortedColumn, PatchIndexManager
from repro.plan import JoinNode, Optimizer, ScanNode, execute_plan
from repro.plan.cost import CostModel
from repro.storage import Catalog
from repro.workloads import generate_dataset, insert_batch


def ablate_drp():
    """Insert maintenance cost with/without dynamic range propagation."""
    rows = []
    for drp in (True, False):
        ds = generate_dataset(150_000, 0.2, "nuc", seed=1, name=f"drp{drp}")
        mgr = PatchIndexManager()
        mgr.create(ds.table, "v", NearlyUniqueColumn(),
                   dynamic_range_propagation=drp)
        # fresh keys & values: the touched range sits beyond the table's
        # blocks, which is what DRP can exploit
        def work():
            for s in range(10):
                ds.table.insert(insert_batch(ds, 20, collide_fraction=0.0, seed=s))
        elapsed = time_fn(work, repeats=1, warmup=0)
        rows.append(["DRP on" if drp else "DRP off", elapsed])
        mgr.drop(ds.table.name, "v")
    return rows


def serial_bulk_delete():
    """The bulk delete the removed ablation timed, on its serial path."""
    rng = np.random.default_rng(2)
    bits = 1 << 22
    positions = np.sort(rng.choice(bits, size=30_000, replace=False))
    bm = ShardedBitmap(bits, shard_bits=1 << 14)
    bm.bulk_delete(positions)


def ablate_cost_gating():
    """Forced vs cost-gated join rewrite on a tiny join (Q12 effect)."""
    dim_n, fact_n = 200, 2_000
    rng = np.random.default_rng(3)
    from repro.storage import Table

    dim = Table.from_arrays("abl_d", {"dk": np.arange(dim_n, dtype=np.int64)})
    fact = Table.from_arrays(
        "abl_f",
        {"fk": np.sort(rng.integers(0, dim_n, fact_n)).astype(np.int64)},
    )
    catalog = Catalog()
    catalog.register(dim)
    catalog.register(fact)
    catalog.add_structure("sortkey", "abl_d", "dk", object())
    mgr = PatchIndexManager(catalog)
    mgr.create(fact, "fk", NearlySortedColumn())
    plan = JoinNode(ScanNode("abl_d"), ScanNode("abl_f"), "dk", "fk")
    forced = Optimizer(catalog, mgr, use_cost_model=False).optimize(plan)
    gated = Optimizer(catalog, mgr, use_cost_model=True).optimize(plan)
    cm = CostModel(catalog)
    t_plain = time_fn(lambda: execute_plan(plan, catalog), repeats=3)
    t_forced = time_fn(lambda: execute_plan(forced, catalog), repeats=3)
    t_gated = time_fn(lambda: execute_plan(gated, catalog), repeats=3)
    return [
        ["plain hash join", t_plain, cm.cost(plan)],
        ["forced rewrite", t_forced, cm.cost(forced)],
        ["cost-gated", t_gated, cm.cost(gated)],
    ]


def ablate_condense():
    """Bit access latency on a heavily deleted bitmap vs after condense."""
    bits = 1 << 20
    bm = ShardedBitmap(bits, shard_bits=1 << 10)
    rng = np.random.default_rng(4)
    bm.bulk_delete(np.sort(rng.choice(bits, size=100_000, replace=False)))
    probes = rng.integers(0, len(bm), 20_000).astype(np.int64)

    def probe():
        for p in probes:
            bm.get(int(p))

    before = time_fn(probe, repeats=1)
    lost_before = bm.lost_bits()
    bm.condense()
    after = time_fn(probe, repeats=1)
    return [
        ["before condense", before, lost_before],
        ["after condense", after, bm.lost_bits()],
    ]


def test_ablations(benchmark):
    drp_rows = ablate_drp()
    gate_rows = ablate_cost_gating()
    cond_rows = ablate_condense()
    report = "\n\n".join(
        [
            format_table(["variant", "10 insert stmts [s]"], drp_rows,
                         title="Ablation: dynamic range propagation (§5.1)"),
            format_table(["variant", "tiny join [s]", "est. cost"], gate_rows,
                         title="Ablation: cost-model gating of the join rewrite (§3.5)"),
            format_table(["variant", "20k probes [s]", "lost bits"], cond_rows,
                         title="Ablation: condense and bit-access cost (§4.2.4)"),
        ]
    )
    write_report("ablations", report)

    # DRP should not hurt, and usually helps clearly for localized inserts
    assert drp_rows[0][1] <= drp_rows[1][1] * 1.3
    # the cost model never picks a plan it scores worse than the original
    assert gate_rows[2][2] <= gate_rows[0][2]
    # condense reclaims all lost capacity and never slows access down much
    assert cond_rows[1][2] == 0
    assert cond_rows[1][1] <= cond_rows[0][1] * 1.5

    benchmark.pedantic(serial_bulk_delete, rounds=1, iterations=1)
