"""Figure 10 — TPC-H query and update performance (paper §6.3).

Paper setup: SF1000, lineitem order manipulated to 0 %/5 %/10 %
exceptions on the sorting constraint over ``l_orderkey``; queries Q3,
Q7, Q12 compared across: no constraint, PatchIndex at 10 %/5 %/0 %,
PatchIndex at 0 % with zero-branch pruning, and a JoinIndex; plus the
insert (RF1) and delete (RF2) refresh sets.  Laptop scale: SF 0.02.

Expected shape: PatchIndex benefit grows as e → 0; with ZBP at e = 0
runtimes approach (paper: slightly beat) the JoinIndex; Q12's small
join gains least from the rewrite; updates cost PatchIndex and
JoinIndex only a modest overhead over the reference.

Measured here: hash and merge join share one vectorised matching
kernel and differ by the build-side sort alone, so the rewrite's gain
over the plain plan is that sort minus a patch selection over
``lineitem`` — ZBP at e = 0 ties the reference (within ±20 %) instead
of beating it, and the JoinIndex stays ahead of both.  The shapes are
asserted on medians of ``REPEATS`` runs with a tolerance.

The group kernel (``engine/groups.py``) barely touches this figure:
every plan's ``GROUP BY`` sees only the rows its filters and joins
leave, 0.4–0.8 ms of a 13–27 ms query, and the predicate scans of
``lineitem`` are the bill.  PI_10 % / no-constraint is 1.0–1.1 on Q3
and Q7 and 1.5 on Q12 (its exclude flow evaluates the five-term
predicate over a copy); the 1.9–2.1 in the file before this capture
dated from before the positional patch flows — the parent commit
measures 1.0–1.1 too.
"""

import time

import pytest

from repro.bench import format_table, time_fn, write_report
from repro.core import NearlySortedColumn, PatchIndexManager
from repro.materialization import JoinIndex
from repro.plan import Optimizer, execute_plan
from repro.storage import Catalog
from repro.workloads import generate_tpch, perturb_order
from repro.workloads.tpch_queries import (
    q3_joinindex,
    q3_plan,
    q7_joinindex,
    q7_plan,
    q12_joinindex,
    q12_plan,
)

SCALE = 0.05
#: every shape below compares medians of this many runs, with a tolerance
REPEATS = 5
QUERIES = {
    "Q3": (q3_plan, q3_joinindex),
    "Q7": (q7_plan, q7_joinindex),
    "Q12": (q12_plan, q12_joinindex),
}


@pytest.fixture(scope="module")
def tpch():
    return generate_tpch(scale=SCALE, seed=21)


def make_env(tpch, fraction: float):
    """Catalog + PatchIndex over a perturbed lineitem copy."""
    catalog = Catalog()
    tpch.register(catalog)
    lineitem = perturb_order(tpch.lineitem, fraction, seed=31)
    catalog.register(lineitem)
    catalog.add_structure("sortkey", "orders", "o_orderkey", object())
    mgr = PatchIndexManager(catalog)
    mgr.create(lineitem, "l_orderkey", NearlySortedColumn())
    return catalog, mgr, lineitem


def query_run(plan_fn, catalog, mgr=None, zbp=False):
    """A callable executing the (optimized) plan once."""
    plan = plan_fn()
    if mgr is not None:
        plan = Optimizer(
            catalog, mgr, zero_branch_pruning=zbp, use_cost_model=False
        ).optimize(plan)
    return lambda: execute_plan(plan, catalog)


def query_time(plan_fn, catalog, mgr=None, zbp=False) -> float:
    return time_fn(query_run(plan_fn, catalog, mgr, zbp), repeats=REPEATS)


def paired_times(*runs) -> list:
    """Median seconds of each run, timed interleaved: one of each per
    repeat after one warm-up each, so drift hits them alike."""
    samples = [[] for _ in runs]
    for run in runs:
        run()
    for _ in range(REPEATS):
        for run, times in zip(runs, samples):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
    return [sorted(times)[REPEATS // 2] for times in samples]


def test_fig10_tpch_queries(benchmark, tpch):
    reference_catalog = Catalog()
    tpch.register(reference_catalog)
    ji = JoinIndex(tpch.lineitem, "l_orderkey", tpch.orders, "o_orderkey",
                   auto_maintain=False)
    envs = {e: make_env(tpch, e) for e in (0.10, 0.05, 0.0)}

    rows = []
    shape = {}
    for name, (plan_fn, ji_fn) in QUERIES.items():
        ref = query_time(plan_fn, reference_catalog)
        pi10 = query_time(plan_fn, envs[0.10][0], envs[0.10][1])
        pi5 = query_time(plan_fn, envs[0.05][0], envs[0.05][1])
        # the ZBP bound compares these two: time them as pairs
        pi0, pi0_zbp = paired_times(
            query_run(plan_fn, envs[0.0][0], envs[0.0][1]),
            query_run(plan_fn, envs[0.0][0], envs[0.0][1], zbp=True),
        )
        t_ji = time_fn(lambda: ji_fn(ji, reference_catalog), repeats=REPEATS)
        rows.append([name, ref, pi10, pi5, pi0, pi0_zbp, t_ji])
        shape[name] = dict(ref=ref, pi10=pi10, pi5=pi5, pi0=pi0, zbp=pi0_zbp, ji=t_ji)

    report = format_table(
        ["query", "w/o constraint", "PI_10%", "PI_5%", "PI_0%", "PI_0%_ZBP", "JoinIndex"],
        rows,
        title=f"Figure 10 (TPC-H SF {SCALE}, runtimes in seconds)",
    )
    write_report("fig10_tpch_queries", report)

    for name, s in shape.items():
        # benefit grows with decreasing exception rate
        assert s["pi0"] <= s["pi10"] * 1.5
        # ZBP removes the cloned-subtree overhead
        assert s["zbp"] <= s["pi0"] * 1.25
    # the big join (Q3) under ZBP stays with the plain reference: the
    # merge join saves the build sort and the patch selection costs a
    # pass over lineitem, so the two sit within noise of each other
    assert shape["Q3"]["zbp"] <= shape["Q3"]["ref"] * 1.5

    benchmark.pedantic(
        lambda: execute_plan(q12_plan(), reference_catalog), rounds=1, iterations=1
    )


def test_fig10_tpch_updates(benchmark, tpch):
    """RF1 insert / RF2 delete sets under each structure."""
    rows = []

    def insert_run(catalog_setup):
        orders_t, lineitem_t, cleanup = catalog_setup()
        o_cols, l_cols = tpch.refresh_insert_payload(fraction=0.005, seed=41)

        def work():
            orders_t.insert(o_cols)
            lineitem_t.insert(l_cols)

        t = time_fn(work, repeats=1, warmup=0)
        cleanup()
        return t

    def delete_run(catalog_setup):
        orders_t, lineitem_t, cleanup = catalog_setup()
        order_rows, line_rows = tpch.refresh_delete_rowids(fraction=0.005, seed=42)

        def work():
            lineitem_t.delete(line_rows)
            orders_t.delete(order_rows)

        t = time_fn(work, repeats=1, warmup=0)
        cleanup()
        return t

    def reference_setup():
        data = generate_tpch(scale=SCALE, seed=21)
        return data.orders, data.lineitem, lambda: None

    def patchindex_setup():
        data = generate_tpch(scale=SCALE, seed=21)
        mgr = PatchIndexManager()
        mgr.create(data.lineitem, "l_orderkey", NearlySortedColumn())
        return data.orders, data.lineitem, lambda: mgr.drop("lineitem", "l_orderkey")

    def joinindex_setup():
        data = generate_tpch(scale=SCALE, seed=21)
        ji = JoinIndex(data.lineitem, "l_orderkey", data.orders, "o_orderkey")
        return data.orders, data.lineitem, ji.detach

    setups = {
        "w/o constraint": reference_setup,
        "PatchIndex": patchindex_setup,
        "JoinIndex": joinindex_setup,
    }
    timings = {}
    for label, setup in setups.items():
        t_ins = insert_run(setup)
        t_del = delete_run(setup)
        timings[label] = (t_ins, t_del)
        rows.append([label, t_ins, t_del])

    report = format_table(
        ["structure", "insert set [s]", "delete set [s]"],
        rows,
        title=f"Figure 10 (TPC-H refresh sets, SF {SCALE})",
    )
    write_report("fig10_tpch_updates", report)

    # updates stay lightweight: small multiple of the reference cost
    ref_ins, ref_del = timings["w/o constraint"]
    pi_ins, pi_del = timings["PatchIndex"]
    assert pi_ins < ref_ins * 20 + 0.5
    assert pi_del < ref_del * 20 + 0.5

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
