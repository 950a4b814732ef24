"""A descending order is not a sorted build side.

``is_sorted_on`` answers whether a plan node's output is non-decreasing
on a key: the join kernel skips its build sort only on such keys, and
the cost model prices a pinned build side that ``is_sorted_on`` its key
as the sort-free merge join of §3.3.  It used to answer True for a
descending NSC exclude flow (``NearlySortedColumn(ascending=False)``)
and for a scan whose SortKey structure has ``ascending=False``; the
kernel then sorted after all, and the model priced that build as free.
"""

import numpy as np
import pytest

from repro.core import NearlySortedColumn, PatchIndexManager
from repro.materialization import SortKey
from repro.plan import JoinNode, PatchScanNode, ScanNode
from repro.plan.cost import CostModel
from repro.plan.stats import is_sorted_on
from repro.storage import Catalog, Table


def catalog_with(ascending):
    rng = np.random.default_rng(4)
    keys = np.arange(500, dtype=np.int64)
    if not ascending:
        keys = keys[::-1].copy()
    keys[rng.choice(500, size=20, replace=False)] = rng.integers(0, 500, 20)
    cat = Catalog()
    nsc = Table.from_arrays("nsc_t", {"s": keys, "p": np.arange(500, dtype=np.int64)})
    dim = Table.from_arrays("dim", {"d": rng.permutation(200).astype(np.int64)})
    cat.register(nsc)
    cat.register(dim)
    mgr = PatchIndexManager(cat)
    mgr.create(nsc, "s", NearlySortedColumn(ascending=ascending))
    SortKey(dim, "d", ascending=ascending, refresh_policy="manual", catalog=cat)
    return cat, PatchScanNode("nsc_t", mgr.get("nsc_t", "s"), "exclude_patches")


@pytest.mark.parametrize("ascending", [True, False])
def test_exclude_flow_is_sorted_only_ascending(ascending):
    cat, flow = catalog_with(ascending)
    assert is_sorted_on(flow, "s", cat) is ascending


@pytest.mark.parametrize("ascending", [True, False])
def test_sortkey_scan_is_sorted_only_ascending(ascending):
    cat, _ = catalog_with(ascending)
    assert is_sorted_on(ScanNode("dim"), "d", cat) is ascending


def test_descending_build_keeps_the_hash_price():
    cat, flow = catalog_with(ascending=False)
    model = CostModel(cat)
    pinned = JoinNode(flow, ScanNode("dim"), "s", "d", build_side="left")
    auto = JoinNode(flow, ScanNode("dim"), "s", "d")
    assert model.operator_cost(pinned)["total"] == model.operator_cost(auto)["total"]
