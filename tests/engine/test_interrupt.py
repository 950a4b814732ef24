"""Cooperative interruption primitives and their engine integration.

Covers the token/scope/checkpoint machinery of
:mod:`repro.engine.interrupt`, the morsel-granular interruption of
:meth:`ExecutionContext.map` (inline and pool paths), the
worker-exception and wedged-pool self-heal behaviors, the fault
injection harness itself, and the bit-identity of an interruptible
serial scan against the plain one.
"""

import threading
import time

import numpy as np
import pytest

from repro.engine import operators as ops
from repro.engine.interrupt import (
    CancellationToken,
    QueryCancelledError,
    QueryInterruptedError,
    QueryTimeoutError,
    cancellation_scope,
    checkpoint,
    current_token,
    validate_timeout_ms,
)
from repro.engine.parallel import ExecutionContext, validate_stall_timeout
from repro.testing import FaultInjector, FaultRule, InjectedWorkerError, inject
from repro.storage import Table


def make_table(n=1000, name="t"):
    return Table.from_arrays(
        name, {"k": np.arange(n, dtype=np.int64), "v": np.arange(n, dtype=np.float64)}
    )


class TestValidateTimeoutMs:
    @pytest.mark.parametrize("value", [1, 250, 10_000, np.int64(7)])
    def test_accepts_positive_integers(self, value):
        assert validate_timeout_ms(value) == int(value)

    @pytest.mark.parametrize("value", [0, -1, -250])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError):
            validate_timeout_ms(value)

    @pytest.mark.parametrize("value", [1.5, "4", True, None, [100]])
    def test_rejects_non_integers(self, value):
        with pytest.raises(TypeError):
            validate_timeout_ms(value)

    def test_stall_timeout_validation(self):
        assert validate_stall_timeout(2.5) == 2.5
        assert validate_stall_timeout(3) == 3.0
        for bad in (0, -1.0):
            with pytest.raises(ValueError):
                validate_stall_timeout(bad)
        for bad in (True, "2", None):
            with pytest.raises(TypeError):
                validate_stall_timeout(bad)


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


class TestMapInterruption:
    def test_inline_map_checks_token(self):
        token = CancellationToken()
        token.cancel()
        with ExecutionContext(parallelism=1) as ctx:
            with cancellation_scope(token):
                with pytest.raises(QueryCancelledError):
                    ctx.map(lambda x: x * 2, [1, 2, 3])

    def test_pool_map_checks_token(self):
        # workers don't inherit thread-locals: the token must be
        # captured at fan-out for the pool path to interrupt at all
        token = CancellationToken()
        token.cancel()
        with ExecutionContext(parallelism=2) as ctx:
            with cancellation_scope(token):
                with pytest.raises(QueryCancelledError):
                    ctx.map(lambda x: x * 2, list(range(8)))

    def test_pool_map_timeout_token(self):
        token = CancellationToken(timeout_ms=1)
        time.sleep(0.01)
        with ExecutionContext(parallelism=2) as ctx:
            with cancellation_scope(token):
                with pytest.raises(QueryTimeoutError):
                    ctx.map(lambda x: x, list(range(8)))

    def test_unsignalled_token_changes_nothing(self):
        token = CancellationToken(timeout_ms=3_600_000)
        with ExecutionContext(parallelism=2) as ctx:
            plain = ctx.map(lambda x: x * 3, list(range(16)))
            with cancellation_scope(token):
                armed = ctx.map(lambda x: x * 3, list(range(16)))
        assert plain == armed

    def test_map_grouped_checks_token(self):
        token = CancellationToken()
        token.cancel()
        items = list(range(8))
        with ExecutionContext(parallelism=2) as ctx:
            with cancellation_scope(token):
                with pytest.raises(QueryCancelledError):
                    ctx.map_grouped(lambda x: x, items, [i % 2 for i in items])


class TestWorkerExceptionRecovery:
    def test_worker_exception_propagates_with_original_traceback(self):
        def boom(x):
            raise ValueError(f"morsel {x} exploded")

        with ExecutionContext(parallelism=2) as ctx:
            with pytest.raises(ValueError, match="exploded") as err:
                ctx.map(boom, list(range(8)))
        # the traceback reaches into the worker fn, not just the
        # future.result() re-raise site
        frames = []
        tb = err.value.__traceback__
        while tb is not None:
            frames.append(tb.tb_frame.f_code.co_name)
            tb = tb.tb_next
        assert "boom" in frames

    def test_pool_survives_poisoned_morsel(self):
        def boom(x):
            if x == 3:
                raise RuntimeError("poisoned")
            return x * 2

        with ExecutionContext(parallelism=2) as ctx:
            with pytest.raises(RuntimeError):
                ctx.map(boom, list(range(8)))
            # the same context keeps working at full fan-out
            assert ctx.map(lambda x: x + 1, list(range(8))) == list(range(1, 9))
            assert ctx.heal_count == 0

    def test_injected_worker_crash_recycles(self):
        injector = FaultInjector(
            seed=7, rules={"worker.morsel": FaultRule(max_fires=1)}
        )
        with ExecutionContext(parallelism=2) as ctx:
            with inject(injector):
                with pytest.raises(InjectedWorkerError):
                    ctx.map(lambda x: x, list(range(8)))
                assert injector.fired["worker.morsel"] == 1
                # rule exhausted: the very next map succeeds
                assert ctx.map(lambda x: x, [1, 2, 3]) == [1, 2, 3]


class TestStallSelfHeal:
    def test_wedged_pool_quarantined_and_results_recomputed(self):
        injector = FaultInjector(
            seed=11,
            rules={"worker.morsel": FaultRule(action="block", max_fires=1)},
        )
        ctx = ExecutionContext(parallelism=2, stall_timeout_s=0.2)
        try:
            with inject(injector):
                got = ctx.map(lambda x: x * 2, list(range(6)))
            assert got == [x * 2 for x in range(6)]
            assert ctx.heal_count == 1
            # a replacement pool is built lazily and works
            assert ctx.map(lambda x: x + 5, list(range(6))) == list(range(5, 11))
            assert ctx.heal_count == 1
        finally:
            injector.release_all()
            ctx.close()

    def test_stall_timeout_knob_surfaces(self):
        with ExecutionContext(parallelism=2, stall_timeout_s=1.5) as ctx:
            assert ctx.stall_timeout_s == 1.5
        with pytest.raises(ValueError):
            ExecutionContext(parallelism=2, stall_timeout_s=0)


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
        table = make_table(2_000)
        token = CancellationToken()
        token.cancel()
        op = ops.Scan(table)
        op.bind_context(ExecutionContext(parallelism=1, morsel_rows=256))
        with cancellation_scope(token):
            with pytest.raises(QueryCancelledError):
                op.execute()

    def test_armed_scan_is_bit_identical_to_plain(self):
        table = make_table(2_000)
        plain = ops.Scan(table).execute()
        token = CancellationToken(timeout_ms=3_600_000)
        op = ops.Scan(table)
        op.bind_context(ExecutionContext(parallelism=1, morsel_rows=256))
        with cancellation_scope(token):
            armed = op.execute()
        assert plain.column_names == armed.column_names
        for name in plain.column_names:
            np.testing.assert_array_equal(plain.column(name), armed.column(name))

    def test_expired_deadline_interrupts_scan(self):
        table = make_table(2_000)
        token = CancellationToken(timeout_ms=1)
        time.sleep(0.01)
        op = ops.Scan(table)
        op.bind_context(ExecutionContext(parallelism=1, morsel_rows=256))
        with cancellation_scope(token):
            with pytest.raises(QueryTimeoutError):
                op.execute()
