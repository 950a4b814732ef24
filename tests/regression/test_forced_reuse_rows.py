"""A forced join rewrite estimates its reused X side like a gated one.

The join rewrite of §3.3 buffers the sorted X side once and reads it
back for the patch join through a ``ReuseLoad``, whose row estimate is
X's.  A forced plan (``use_cost_model=False``) used to stamp a flat
1 000 rows on it instead, so ``EXPLAIN (costs)`` and the admission cost
hint priced a 200-row dimension as a 1 000-row one.
"""

import numpy as np
import pytest

from repro.core import NearlySortedColumn, PatchIndexManager
from repro.materialization import SortKey
from repro.sql import SQLSession
from repro.storage import Catalog, Table

SQL = "SELECT dk, fv FROM dim JOIN fact ON dk = fk"


@pytest.fixture(scope="module")
def indexed():
    rng = np.random.default_rng(3)
    fk = np.sort(rng.integers(0, 200, 20_000)).astype(np.int64)
    fk[rng.choice(20_000, size=500, replace=False)] = rng.integers(0, 200, 500)
    dim = Table.from_arrays("dim", {"dk": np.arange(200, dtype=np.int64)})
    fact = Table.from_arrays("fact", {"fk": fk, "fv": rng.integers(0, 9, 20_000)})
    cat = Catalog()
    cat.register(dim)
    cat.register(fact)
    SortKey(dim, "dk", refresh_policy="manual", catalog=cat)
    mgr = PatchIndexManager(cat)
    mgr.create(fact, "fk", NearlySortedColumn())
    return cat, mgr


def reuse_load_line(text):
    (line,) = [line for line in text.splitlines() if "ReuseLoad(" in line]
    return line.strip()


def explain(indexed, gated):
    cat, mgr = indexed
    return SQLSession(cat, index_manager=mgr, use_cost_model=gated).explain(SQL, costs=True)


def test_forced_reuse_load_estimates_the_x_side(indexed):
    forced = explain(indexed, gated=False)
    assert "rows~200, cost~20.0]" in reuse_load_line(forced)


def test_forced_and_gated_plans_price_the_reuse_alike(indexed):
    forced, gated = explain(indexed, gated=False), explain(indexed, gated=True)
    assert "PatchIndex[join]" in gated  # the gate takes the rewrite too
    assert reuse_load_line(forced) == reuse_load_line(gated)
    hint = [line for line in forced.splitlines() if line.startswith("admission cost hint")]
    assert hint == [line for line in gated.splitlines() if line.startswith("admission cost hint")]
