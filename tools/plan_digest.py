#!/usr/bin/env python3
"""Plan digests: one sha256 per plan source over its ``EXPLAIN (costs)`` text.

Two checkouts plan alike when this prints the same lines in both::

    python3 tools/plan_digest.py           # one digest per source
    python3 tools/plan_digest.py --text    # the EXPLAIN texts, to diff

The sources:

* every read statement of the in-process spine workloads
  (``pi_query``, ``plain_query``, ``pi_update``), rounds 0-2, seeds 11
  and 12, each planned twice: gated by the cost model (the workload's
  own session) and forced (``use_cost_model=False``).  Every statement
  of a round runs in order through the workload's session, as in the
  spine, so a later read plans against the tables the DML before it
  left;
* the Fig. 10 TPC-H plans (Q3, Q7, Q12 at 10 %, 5 % and 0 % exceptions,
  ``benchmarks/test_fig10_tpch.py``), forced, with zero-branch pruning
  on and with it off.

The spine tables are built at the benchmark's scale, 1.  The tool
imports the spine's workload module and the Fig. 10 benchmark and
writes no file.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from typing import Dict, List

sys.dont_write_bytecode = True  # the imported benchmark directories stay as they are

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in ("src", "benchmarks", os.path.join("benchmarks", "spine")):
    sys.path.insert(0, os.path.join(REPO, path))

import test_fig10_tpch as fig10  # noqa: E402
from spine_workloads import make_workload  # noqa: E402

from repro.plan import Optimizer  # noqa: E402
from repro.plan.cost import CostModel  # noqa: E402
from repro.plan.executor import explain_plan  # noqa: E402
from repro.sql import SQLSession  # noqa: E402
from repro.workloads import generate_tpch  # noqa: E402

WORKLOADS = ("pi_query", "plain_query", "pi_update")
SEEDS = (11, 12)
ROUNDS = 3


def spine_plans(name: str, seed: int) -> Dict[str, List[str]]:
    """The EXPLAIN texts of one workload's reads, gated and forced."""
    workload = make_workload(name, seed, 1.0, None)
    workload.setup()
    forced = SQLSession(
        workload.catalog, index_manager=workload.manager, use_cost_model=False
    )
    out: Dict[str, List[str]] = {"gated": [], "forced": []}
    try:
        for round_no in range(ROUNDS):
            for stmt in workload.script(round_no):
                if stmt.is_read:
                    out["gated"].append(workload.session.explain(stmt.sql, costs=True))
                    out["forced"].append(forced.explain(stmt.sql, costs=True))
                workload.session.execute(stmt.sql)
    finally:
        forced.close()
        workload.teardown()
        workload.close()
    return out


def fig10_plans() -> Dict[str, List[str]]:
    """The forced Fig. 10 plans' EXPLAIN texts, by zero-branch pruning."""
    tpch = generate_tpch(scale=fig10.SCALE, seed=21)
    out: Dict[str, List[str]] = {"off": [], "on": []}
    for fraction in (0.10, 0.05, 0.0):
        catalog, manager, _ = fig10.make_env(tpch, fraction)
        for plan_fn, _ in fig10.QUERIES.values():
            for pruning, key in ((False, "off"), (True, "on")):
                optimizer = Optimizer(
                    catalog, manager, zero_branch_pruning=pruning, use_cost_model=False
                )
                plan, report = optimizer.optimize_staged(plan_fn())
                out[key].append(
                    explain_plan(plan, catalog, cost_model=CostModel(catalog), report=report)
                )
    return out


def main() -> int:
    """Print one digest (or the EXPLAIN texts) per source."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--text", action="store_true", help="print the EXPLAIN texts, not digests")
    args = parser.parse_args()

    sources: Dict[str, List[str]] = {}
    for name in WORKLOADS:
        for seed in SEEDS:
            for mode, texts in spine_plans(name, seed).items():
                sources[f"{name} seed={seed} {mode}"] = texts
    for pruning, texts in fig10_plans().items():
        sources[f"fig10 forced zbp={pruning}"] = texts

    for source, texts in sources.items():
        body = "\n\n".join(texts)
        if args.text:
            print(f"==== {source}\n{body}\n")
        else:
            digest = hashlib.sha256(body.encode()).hexdigest()
            print(f"{digest}  {source} ({len(texts)} plans)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
