"""Edge-case and failure-injection tests across the engine."""

import numpy as np
import pytest

from repro.engine import (
    Distinct,
    Filter,
    GroupAggregate,
    HashJoin,
    MergeUnion,
    Relation,
    RelationSource,
    Scan,
    Sort,
    col,
    lit,
)
from repro.engine.expressions import expression_columns
from repro.storage import Table


def rel(**cols):
    return Relation({k: np.asarray(v) for k, v in cols.items()})


def src(**cols):
    return RelationSource(rel(**cols))


class TestEmptyInputs:
    def test_join_with_empty_build(self):
        out = HashJoin(src(k=np.array([], dtype=np.int64)), src(k=[1, 2]), "k", "k").execute()
        assert out.num_rows == 0

    def test_join_with_empty_probe(self):
        out = HashJoin(src(k=[1, 2]), src(k=np.array([], dtype=np.int64)), "k", "k").execute()
        assert out.num_rows == 0

    def test_join_with_empty_build(self):
        out = HashJoin(
            src(k=np.array([], dtype=np.int64)), src(k=[1]), "k", "k", build_side="left"
        ).execute()
        assert out.num_rows == 0

    def test_sort_empty(self):
        out = Sort(src(a=np.array([], dtype=np.int64)), ["a"]).execute()
        assert out.num_rows == 0

    def test_distinct_empty(self):
        out = Distinct(src(a=np.array([], dtype=np.int64)), ["a"]).execute()
        assert out.num_rows == 0

    def test_filter_empty(self):
        out = Filter(src(a=np.array([], dtype=np.int64)), col("a") > 1).execute()
        assert out.num_rows == 0

    def test_aggregate_empty_with_groups(self):
        out = GroupAggregate(
            src(g=np.array([], dtype=np.int64), v=np.array([], dtype=np.float64)),
            ["g"],
            {"s": ("sum", "v")},
        ).execute()
        assert out.num_rows == 0

    def test_global_aggregate_empty(self):
        out = GroupAggregate(
            src(v=np.array([], dtype=np.float64)), [], {"s": ("sum", "v"), "c": ("count", None)}
        ).execute()
        assert out.column("s").tolist() == [0]
        assert out.column("c").tolist() == [0]


class TestStringJoinsAndDistinct:
    def test_hash_join_on_string_keys(self):
        left = src(k=np.array(["a", "b"], dtype=object), lv=[1, 2])
        right = src(k=np.array(["b", "b", "c"], dtype=object), rv=[10, 11, 12])
        out = HashJoin(left, right, "k", "k").execute()
        assert sorted(out.column("rv").tolist()) == [10, 11]

    def test_distinct_on_strings(self):
        out = Distinct(src(s=np.array(["x", "y", "x"], dtype=object)), ["s"]).execute()
        assert sorted(out.column("s").tolist()) == ["x", "y"]

    def test_sort_on_strings(self):
        out = Sort(src(s=np.array(["b", "a", "c"], dtype=object)), ["s"]).execute()
        assert out.column("s").tolist() == ["a", "b", "c"]


class TestScanEdges:
    def test_scan_empty_table(self):
        t = Table.from_arrays("e", {"v": np.array([], dtype=np.int64)})
        out = Scan(t).execute()
        assert out.num_rows == 0
        assert out.column_names == ["v"]

    def test_scan_empty_table_with_predicate(self):
        t = Table.from_arrays("e", {"v": np.array([], dtype=np.int64)})
        out = Scan(t, predicate=col("v") > 0).execute()
        assert out.num_rows == 0

    def test_scan_range_prunes_everything(self):
        t = Table.from_arrays("t", {"v": np.arange(100)}, minmax_block_size=10)
        scan = Scan(t)
        scan.push_range("v", 1_000, 2_000)
        assert scan.execute().num_rows == 0

    def test_predicate_only_column_not_leaked(self):
        t = Table.from_arrays("t", {"a": np.arange(5), "b": np.arange(5) * 2})
        out = Scan(t, columns=["a"], predicate=col("b") > 4).execute()
        assert out.column_names == ["a"]
        assert out.column("a").tolist() == [3, 4]


class TestExpressionHelpers:
    def test_expression_columns_walks_everything(self):
        from repro.engine import where

        expr = where((col("a") > 1) & col("b").isin([1]), col("c"), col("d") + 1)
        assert expression_columns(expr) == {"a", "b", "c", "d"}

    def test_literal_only(self):
        assert expression_columns(lit(5)) == set()


class TestComparisonNulls:
    """NULL never matches, whichever side the literal is on."""

    REL = Relation(
        {
            "s": np.array(["a", None, "b", "a", None], dtype=object),
            "f": np.array([1.0, np.nan, 2.0, np.nan, 1.0]),
            "i": np.arange(5),
        }
    )

    @pytest.mark.parametrize(
        "expr, want",
        [
            (col("s") == "a", [True, False, False, True, False]),
            (col("s") != "a", [False, False, True, False, False]),
            (lit("a") < col("s"), [False, False, True, False, False]),
            (col("s") == lit(None), [False] * 5),
            (col("i") == lit(None), [False] * 5),
            (lit(None) != col("s"), [False] * 5),
            (col("f") != 1.0, [False, False, True, False, False]),
            (lit(1.0) == col("f"), [True, False, False, False, True]),
            (col("f") == col("f"), [True, False, True, False, True]),
            (col("s") == col("s"), [True, False, True, True, False]),
            (lit("a") == lit("a"), [True] * 5),
            (lit(1) > lit(2), [False] * 5),
            (lit("a") == lit(None), [False] * 5),
        ],
        ids=repr,
    )
    def test_literal_and_column_sides(self, expr, want):
        out = expr.evaluate(self.REL)
        assert out.dtype == bool
        assert out.tolist() == want

    def test_null_free_string_column_and_empty_relation(self):
        r = rel(s=np.array(["x", "y", "x"], dtype=object))
        assert (col("s") == "x").evaluate(r).tolist() == [True, False, True]
        empty = Relation({"s": np.array([], dtype=object)})
        assert (col("s") == "x").evaluate(empty).tolist() == []


class TestMergeUnionEdges:
    def test_all_empty_inputs(self):
        out = MergeUnion(
            [src(a=np.array([], dtype=np.int64)), src(a=np.array([], dtype=np.int64))], "a"
        ).execute()
        assert out.num_rows == 0

    def test_single_input(self):
        out = MergeUnion([src(a=[1, 2, 3])], "a").execute()
        assert out.column("a").tolist() == [1, 2, 3]

    def test_duplicate_keys_across_inputs(self):
        out = MergeUnion([src(a=[1, 2, 2]), src(a=[2, 3])], "a").execute()
        assert out.column("a").tolist() == [1, 2, 2, 2, 3]

    def test_descending_string_keys_merge(self):
        # the former numeric-negation path raised TypeError here; the
        # k-way merge now handles descending runs of any orderable dtype
        a = src(s=np.array(["b", "a"], dtype=object))
        b = src(s=np.array(["c"], dtype=object))
        out = MergeUnion([a, b], "s", ascending=False).execute()
        assert out.column("s").tolist() == ["c", "b", "a"]
