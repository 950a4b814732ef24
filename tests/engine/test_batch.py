"""Unit tests for relations and expressions."""

import numpy as np
import pytest

from repro.engine import Relation, col, lit, where


def rel(**cols):
    return Relation({k: np.asarray(v) for k, v in cols.items()})


class TestRelation:
    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            rel(a=[1, 2], b=[1])

    def test_shape(self):
        r = rel(a=[1, 2, 3])
        assert r.num_rows == 3 and len(r) == 3
        assert r.column_names == ["a"]
        assert "a" in r and "b" not in r

    def test_unknown_column(self):
        with pytest.raises(KeyError):
            rel(a=[1]).column("b")

    def test_take_filter_select(self):
        r = rel(a=[1, 2, 3], b=[10, 20, 30])
        np.testing.assert_array_equal(r.take(np.array([2, 0])).column("a"), [3, 1])
        np.testing.assert_array_equal(r.filter(np.array([True, False, True])).column("b"), [10, 30])
        assert r.select(["b"]).column_names == ["b"]

    def test_drop(self):
        r = rel(a=[1], b=[2])
        assert r.drop(["a"]).column_names == ["b"]

    def test_with_column(self):
        r = rel(a=[1, 2])
        r2 = r.with_column("c", np.array([5, 6]))
        np.testing.assert_array_equal(r2.column("c"), [5, 6])
        with pytest.raises(ValueError):
            r.with_column("c", np.array([5]))

    def test_concat(self):
        r = Relation.concat([rel(a=[1]), rel(a=[2, 3])])
        np.testing.assert_array_equal(r.column("a"), [1, 2, 3])

    def test_concat_mismatched(self):
        with pytest.raises(ValueError):
            Relation.concat([rel(a=[1]), rel(b=[2])])

    def test_sort_by_multi_key(self):
        r = rel(a=[2, 1, 2, 1], b=[1, 2, 0, 1])
        s = r.sort_by(["a", "b"])
        assert s.to_rows() == [(1, 1), (1, 2), (2, 0), (2, 1)]

    def test_sort_by_descending(self):
        r = rel(a=[1, 3, 2])
        assert r.sort_by(["a"], [False]).column("a").tolist() == [3, 2, 1]


class TestExpressions:
    def test_comparisons(self):
        r = rel(x=[1, 2, 3])
        np.testing.assert_array_equal((col("x") > 1).evaluate(r), [False, True, True])
        np.testing.assert_array_equal((col("x") == 2).evaluate(r), [False, True, False])
        np.testing.assert_array_equal((col("x") <= 2).evaluate(r), [True, True, False])
        np.testing.assert_array_equal((col("x") != 2).evaluate(r), [True, False, True])

    def test_boolean_connectives(self):
        r = rel(x=[1, 2, 3, 4])
        e = (col("x") > 1) & (col("x") < 4)
        np.testing.assert_array_equal(e.evaluate(r), [False, True, True, False])
        e = (col("x") == 1) | (col("x") == 4)
        np.testing.assert_array_equal(e.evaluate(r), [True, False, False, True])
        np.testing.assert_array_equal((~(col("x") > 2)).evaluate(r), [True, True, False, False])

    def test_arithmetic(self):
        r = rel(x=[1.0, 2.0], y=[10.0, 20.0])
        np.testing.assert_array_equal((col("x") + col("y")).evaluate(r), [11, 22])
        np.testing.assert_array_equal((col("y") * (lit(1) - lit(0.5))).evaluate(r), [5, 10])
        np.testing.assert_array_equal((lit(1) - col("x")).evaluate(r), [0, -1])

    def test_string_literal_broadcast(self):
        r = rel(s=np.array(["a", "b"], dtype=object))
        np.testing.assert_array_equal((col("s") == lit("a")).evaluate(r), [True, False])

    def test_isin(self):
        r = rel(s=np.array(["MAIL", "SHIP", "AIR"], dtype=object))
        np.testing.assert_array_equal(
            col("s").isin(["MAIL", "SHIP"]).evaluate(r), [True, True, False]
        )

    def test_where(self):
        r = rel(x=[1, 5, 10])
        out = where(col("x") > 4, col("x"), 0).evaluate(r)
        np.testing.assert_array_equal(out, [0, 5, 10])
