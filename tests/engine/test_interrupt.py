"""Cooperative interruption primitives and their engine integration.

Covers the token/scope/checkpoint machinery of
:mod:`repro.engine.interrupt`, the fault injection harness itself, the
piecewise scan an armed token switches to — it covers every row once in
pieces that never span a partition, interrupts between pieces, fires
the ``worker.morsel`` fault point once per piece, and is bit-identical
to the plain scan — and the checkpoint every blocking operator and the
run merge take before their kernels.
"""

import threading
import time

import numpy as np
import pytest

from repro.engine import operators as ops
from repro.engine.batch import Relation
from repro.engine.expressions import col
from repro.engine.interrupt import (
    CHECKPOINT_ROWS,
    CancellationToken,
    QueryCancelledError,
    QueryInterruptedError,
    QueryTimeoutError,
    cancellation_scope,
    checkpoint,
    current_token,
    validate_positive_int,
)
from repro.engine.sort import merge_sorted_runs
from repro.testing import FaultInjector, FaultRule, InjectedWorkerError, inject
from repro.storage import PartitionedTable, Table

#: Enough rows for three scan pieces while a token is armed.
PIECEWISE_ROWS = 2 * CHECKPOINT_ROWS + 5


def make_table(n=1000, name="t"):
    return Table.from_arrays(
        name, {"k": np.arange(n, dtype=np.int64), "v": np.arange(n, dtype=np.float64)}
    )


class TestValidatePositiveInt:
    """The one check behind ``timeout_ms``, ``max_inflight``,
    ``max_queued``, ``max_connections`` and ``checkpoint_interval``."""

    @pytest.mark.parametrize(
        "value", [1, 3, 250, 10_000, np.int64(2), np.int64(7), np.int64(64)]
    )
    def test_accepts_positive_integers(self, value):
        got = validate_positive_int(value, "knob")
        assert got == int(value) and type(got) is int

    @pytest.mark.parametrize("value", [0, -1, -8, -100, -250])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="knob"):
            validate_positive_int(value, "knob")

    @pytest.mark.parametrize(
        "value", [1.5, 2.5, 1.0, "4", "10", True, False, None, [100]]
    )
    def test_rejects_non_integers(self, value):
        with pytest.raises(TypeError, match="knob"):
            validate_positive_int(value, "knob")


class TestCancellationToken:
    def test_fresh_token_passes_checks(self):
        token = CancellationToken()
        token.check()  # no signal: no raise
        assert token.deadline is None and token.remaining() is None

    def test_cancel_raises_typed_error(self):
        token = CancellationToken()
        token.cancel()
        with pytest.raises(QueryCancelledError):
            token.check()
        # QueryInterruptedError covers both causes
        with pytest.raises(QueryInterruptedError):
            token.check()

    def test_deadline_expires(self):
        token = CancellationToken(timeout_ms=1)
        assert token.deadline is not None
        time.sleep(0.01)
        assert token.remaining() < 0
        with pytest.raises(QueryTimeoutError, match="timed out after 1 ms"):
            token.check()

    def test_cancel_wins_over_expired_deadline(self):
        token = CancellationToken(timeout_ms=1)
        time.sleep(0.01)
        token.cancel()
        with pytest.raises(QueryCancelledError):
            token.check()

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            CancellationToken(timeout_ms=0)
        with pytest.raises(TypeError):
            CancellationToken(timeout_ms=True)


class TestScope:
    def test_no_scope_by_default(self):
        assert current_token() is None
        checkpoint()  # no-op, no raise

    def test_scope_installs_and_restores(self):
        token = CancellationToken()
        with cancellation_scope(token):
            assert current_token() is token
        assert current_token() is None

    def test_scopes_nest(self):
        outer, inner = CancellationToken(), CancellationToken()
        with cancellation_scope(outer):
            with cancellation_scope(inner):
                assert current_token() is inner
            assert current_token() is outer
        assert current_token() is None

    def test_none_clears_scope(self):
        token = CancellationToken()
        with cancellation_scope(token):
            with cancellation_scope(None):
                assert current_token() is None
                checkpoint()
            assert current_token() is token

    def test_scope_restored_on_exception(self):
        token = CancellationToken()
        token.cancel()
        with pytest.raises(QueryCancelledError):
            with cancellation_scope(token):
                checkpoint()
        assert current_token() is None

    def test_scope_is_thread_local(self):
        token = CancellationToken()
        seen = []
        with cancellation_scope(token):
            t = threading.Thread(target=lambda: seen.append(current_token()))
            t.start()
            t.join()
        assert seen == [None]


class TestFaultInjector:
    def test_same_seed_same_decisions(self):
        def draw(seed):
            inj = FaultInjector(
                seed=seed,
                rules={"p": FaultRule(probability=0.5, action="sleep", sleep_s=0.0)},
            )
            return [inj.decide("p") is not None for _ in range(32)]

        assert draw(42) == draw(42)
        assert draw(42) != draw(43)  # astronomically unlikely to collide

    def test_corrupt_flips_exactly_one_bit(self):
        inj = FaultInjector(seed=3)
        data = bytes(range(64))
        out = inj.corrupt(data)
        assert len(out) == len(data)
        diff = [(a ^ b) for a, b in zip(data, out)]
        changed = [d for d in diff if d]
        assert len(changed) == 1 and bin(changed[0]).count("1") == 1

    def test_mutate_applies_corrupt_rules_only(self):
        inj = FaultInjector(seed=5, rules={"f": FaultRule(action="corrupt")})
        with inject(inj):
            from repro.testing import faults

            assert faults.mutate("other", b"abc") == b"abc"
            assert faults.mutate("f", b"abc") != b"abc"

    def test_injectors_do_not_nest(self):
        with inject(FaultInjector(seed=1)):
            with pytest.raises(RuntimeError):
                with inject(FaultInjector(seed=2)):
                    pass

    def test_disarmed_by_default(self):
        from repro.testing import faults

        assert faults.ACTIVE is False

    def test_max_fires_bounds_draws(self):
        inj = FaultInjector(seed=9, rules={"p": FaultRule(max_fires=2)})
        hits = [inj.decide("p") is not None for _ in range(5)]
        assert hits == [True, True, False, False, False]

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule(action="explode")
        with pytest.raises(ValueError):
            FaultRule(probability=1.5)


class TestScanInterruption:
    def test_cancelled_scan_unwinds(self):
        token = CancellationToken()
        token.cancel()
        with cancellation_scope(token):
            with pytest.raises(QueryCancelledError):
                ops.Scan(make_table(2_000)).execute()

    @pytest.mark.parametrize("partitions", [None, 3])
    def test_armed_scan_is_bit_identical_to_plain(self, partitions):
        table = make_table(PIECEWISE_ROWS)
        if partitions is not None:
            table = PartitionedTable.from_table(table, "k", partitions)
        plain = ops.Scan(table, predicate=col("v") >= 7).execute()
        with cancellation_scope(CancellationToken(timeout_ms=3_600_000)):
            armed = ops.Scan(table, predicate=col("v") >= 7).execute()
        assert plain.column_names == armed.column_names
        for name in plain.column_names:
            np.testing.assert_array_equal(plain.column(name), armed.column(name))

    @pytest.mark.parametrize("partitions", [None, 2])
    @pytest.mark.parametrize("complement", [False, True])
    def test_armed_restricted_scan_is_bit_identical_to_plain(self, partitions, complement):
        # rowid restriction and minmax pruning cut across piece boundaries
        table = make_table(PIECEWISE_ROWS)
        if partitions is not None:
            table = PartitionedTable.from_table(table, "k", partitions)
        rowids = np.arange(3, PIECEWISE_ROWS, 7, dtype=np.int64)

        def scan():
            op = ops.Scan(table, columns=["v"], predicate=col("k") % 3 != 0)
            op.push_range("k", 1_000, PIECEWISE_ROWS - 1_000)
            op.restrict_rows(rowids, complement=complement)
            return op.execute()

        plain = scan()
        with cancellation_scope(CancellationToken(timeout_ms=3_600_000)):
            armed = scan()
        assert plain.num_rows > 0
        np.testing.assert_array_equal(plain.column("v"), armed.column("v"))

    def test_expired_deadline_interrupts_scan(self):
        token = CancellationToken(timeout_ms=1)
        time.sleep(0.01)
        with cancellation_scope(token):
            with pytest.raises(QueryTimeoutError):
                ops.Scan(make_table(2_000)).execute()

    def test_fault_point_fires_once_per_piece(self):
        injector = FaultInjector(
            seed=3, rules={"worker.morsel": FaultRule(action="sleep", sleep_s=0.0)}
        )
        with inject(injector):
            ops.Scan(make_table(2_000)).execute()  # unarmed, unpartitioned: one slice
            assert injector.fired.get("worker.morsel", 0) == 0
            with cancellation_scope(CancellationToken(timeout_ms=3_600_000)):
                ops.Scan(make_table(PIECEWISE_ROWS)).execute()
            assert injector.fired["worker.morsel"] == 3

    def test_injected_crash_unwinds_and_the_next_scan_succeeds(self):
        table = PartitionedTable.from_table(make_table(2_000), "k", 2)
        injector = FaultInjector(seed=7, rules={"worker.morsel": FaultRule(max_fires=1)})
        with inject(injector):
            with pytest.raises(InjectedWorkerError):
                ops.Scan(table).execute()
            assert injector.fired["worker.morsel"] == 1
            # rule exhausted: the very next scan succeeds
            assert ops.Scan(table).execute().num_rows == 2_000

    def test_exception_in_a_piece_propagates_unwrapped(self):
        # a predicate that cannot evaluate fails the same way whole or
        # piecewise: the piece loop neither wraps nor swallows it
        table = Table.from_arrays(
            "s", {"name": np.array(["a", "b"] * 100, dtype=object), "k": np.arange(200)}
        )
        with pytest.raises(TypeError) as whole:
            ops.Scan(table, predicate=col("name") > 1).execute()
        with cancellation_scope(CancellationToken(timeout_ms=3_600_000)):
            with pytest.raises(TypeError) as piecewise:
                ops.Scan(table, predicate=col("name") > 1).execute()
        assert str(piecewise.value) == str(whole.value)


def counting_injector():
    return FaultInjector(seed=5, rules={"worker.morsel": FaultRule(action="sleep", sleep_s=0.0)})


STEP = 64


class TestScanPieces:
    """Armed, a scan cuts each partition into ``CHECKPOINT_ROWS`` pieces
    (shrunk to 64 rows here): one piece per started 64 rows, none
    spanning a partition, every row read exactly once."""

    @pytest.mark.parametrize("n", [0, 1, STEP - 1, STEP, STEP + 1, 3 * STEP + 2])
    def test_plain_table_cover(self, piece_rows, n):
        piece_rows(STEP)
        table = make_table(n)
        whole = ops.Scan(table).execute()
        injector = counting_injector()
        with inject(injector), cancellation_scope(CancellationToken(timeout_ms=3_600_000)):
            armed = ops.Scan(table).execute()
        assert injector.fired.get("worker.morsel", 0) == -(-n // STEP)
        assert armed.column_names == whole.column_names == ["k", "v"]
        for name in whole.column_names:
            assert armed.column(name).dtype == whole.column(name).dtype
            np.testing.assert_array_equal(armed.column(name), whole.column(name))

    def test_partitioned_table_respects_boundaries(self, piece_rows):
        piece_rows(STEP)
        # unequal partitions, none a multiple of the piece size
        table = PartitionedTable.from_table(make_table(5 * STEP + 17), "k", 3)
        sizes = [p.num_rows for p in table.partitions]
        assert len(set(sizes)) > 1 or sizes[0] % STEP
        injector = counting_injector()
        with inject(injector), cancellation_scope(CancellationToken(timeout_ms=3_600_000)):
            armed = ops.Scan(table).execute()
        assert injector.fired["worker.morsel"] == sum(-(-size // STEP) for size in sizes)
        np.testing.assert_array_equal(armed.column("k"), np.arange(5 * STEP + 17))

    def test_unarmed_partitioned_scan_is_one_piece_per_partition(self):
        table = PartitionedTable.from_table(make_table(1_000), "k", 4)
        injector = counting_injector()
        with inject(injector):
            rel = ops.Scan(table).execute()
        assert injector.fired["worker.morsel"] == 4
        np.testing.assert_array_equal(rel.column("k"), np.arange(1_000))


def _sorted_relation(n=300):
    return Relation({"k": np.arange(n, dtype=np.int64), "v": np.arange(n) % 7})


BLOCKING_OPERATORS = {
    "sort": lambda src: ops.Sort(src, ["v"]),
    "topn": lambda src: ops.TopN(src, ["v"], [True], 5),
    "distinct": lambda src: ops.Distinct(src, ["v"]),
    "aggregate": lambda src: ops.GroupAggregate(src, ["v"], {"n": ("count", None)}),
    "hash_join": lambda src: ops.HashJoin(
        ops.RelationSource(Relation({"k": np.arange(20, dtype=np.int64)})), src, "k", "k"
    ),
}


class TestOperatorCheckpoints:
    @pytest.mark.parametrize("kind", sorted(BLOCKING_OPERATORS))
    def test_cancelled_token_stops_the_operator(self, kind):
        # the input does not check the token (a materialized relation):
        # the operator's own checkpoint must, before its kernel runs
        op = BLOCKING_OPERATORS[kind](ops.RelationSource(_sorted_relation()))
        token = CancellationToken()
        token.cancel()
        with cancellation_scope(token):
            with pytest.raises(QueryCancelledError):
                op.execute()
        assert op.execute().num_rows > 0  # and runs normally unarmed

    def test_cancelled_token_stops_the_run_merge(self):
        runs = [np.arange(i, 300, 3, dtype=np.int64) for i in range(3)]
        token = CancellationToken()
        token.cancel()
        with cancellation_scope(token):
            with pytest.raises(QueryCancelledError):
                merge_sorted_runs(runs)

    def test_unsignalled_token_changes_nothing(self):
        runs = [np.arange(i, 300, 3, dtype=np.int64) for i in range(3)]
        src = ops.RelationSource(_sorted_relation())
        want_merge = merge_sorted_runs(runs)
        want_sort = ops.Sort(src, ["v"]).execute()
        with cancellation_scope(CancellationToken(timeout_ms=3_600_000)):
            got_merge = merge_sorted_runs(runs)
            got_sort = ops.Sort(src, ["v"]).execute()
        np.testing.assert_array_equal(got_merge, want_merge)
        for name in want_sort.column_names:
            np.testing.assert_array_equal(got_sort.column(name), want_sort.column(name))
