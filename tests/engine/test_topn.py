"""TopN operator: the first ``n`` rows of the stable ``ORDER BY``.

Its input may come from a plain scan, a partitioned one or a piecewise
one (a token armed, the rows arriving as many concatenated pieces); the
rows TopN returns must not depend on which.
"""

import numpy as np
import pytest

from repro.engine import operators as ops
from repro.engine.interrupt import CancellationToken, cancellation_scope
from repro.storage import PartitionedTable, Table


def make_table(n, seed, name="t"):
    rng = np.random.default_rng(seed)
    return Table.from_arrays(name, {
        # heavy ties: stability of the (keys, position) order matters
        "a": rng.integers(0, 7, n).astype(np.int64),
        "b": rng.integers(0, 50, n).astype(np.int64),
        "payload": np.arange(n, dtype=np.int64),
    })


def reference_topn(table, keys, ascending, n):
    """``np.lexsort`` (stable) over the int keys, negated where descending."""
    rel = ops.Scan(table).execute()
    signed = [rel.column(k) if asc else -rel.column(k) for k, asc in zip(keys, ascending)]
    return rel.take(np.lexsort(signed[::-1])[:n])


def assert_rel_equal(expected, actual):
    assert actual.num_rows == expected.num_rows
    assert actual.column_names == expected.column_names
    for name in expected.column_names:
        np.testing.assert_array_equal(actual.column(name), expected.column(name))


class TestTopNOperator:
    @pytest.mark.parametrize("n", [0, 1, 7, 100, 4999, 5000, 9000])
    def test_matches_sort_then_limit(self, n):
        table = make_table(5000, seed=1)
        expected = reference_topn(table, ["a", "b"], [True, True], n)
        got = ops.TopN(ops.Scan(table), ["a", "b"], [True, True], n).execute()
        assert_rel_equal(expected, got)

    def test_descending_and_mixed_directions(self):
        table = make_table(3000, seed=2)
        for ascending in ([False, False], [False, True], [True, False]):
            expected = reference_topn(table, ["a", "b"], ascending, 40)
            got = ops.TopN(ops.Scan(table), ["a", "b"], ascending, 40).execute()
            assert_rel_equal(expected, got)

    def test_all_ties_keeps_original_positions(self):
        table = Table.from_arrays("ties", {
            "k": np.zeros(1000, dtype=np.int64),
            "pos": np.arange(1000, dtype=np.int64),
        })
        got = ops.TopN(ops.Scan(table), ["k"], [True], 10).execute()
        np.testing.assert_array_equal(got.column("pos"), np.arange(10))

    def test_negative_n_rejected(self):
        table = make_table(10, seed=3)
        with pytest.raises(ValueError):
            ops.TopN(ops.Scan(table), ["a"], [True], -1)

    def test_partitioned_input(self):
        table = PartitionedTable.from_table(make_table(6000, seed=7), "payload", 3)
        expected = reference_topn(table, ["b", "a"], [False, True], 25)
        got = ops.TopN(ops.Scan(table), ["b", "a"], [False, True], 25).execute()
        assert_rel_equal(expected, got)

    @pytest.mark.parametrize("n", [0, 3, 64, 500, 20_000])
    def test_piecewise_input_matches_sort_then_limit(self, piece_rows, n):
        table = PartitionedTable.from_table(make_table(20_000, seed=4), "b", 3)
        expected = reference_topn(table, ["a", "b"], [True, False], n)
        piece_rows(1024)
        with cancellation_scope(CancellationToken(timeout_ms=3_600_000)):
            got = ops.TopN(ops.Scan(table), ["a", "b"], [True, False], n).execute()
        assert_rel_equal(expected, got)
