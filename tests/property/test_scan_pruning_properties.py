"""Property-based tests of scan pruning by the predicate's own ranges.

A :class:`~repro.engine.operators.Scan` bounds each numeric column its
predicate's top-level ``AND`` conjuncts compare with a number, skips the
minmax blocks outside the bounds and runs the full predicate on what is
left; UPDATE and DELETE find their rows through the same scan
(``Scan.rowids``).  The oracle is the unpruned selection: the predicate
evaluated over every row of every column, the rows kept by its mask.

Tables are sorted (one bisected slice per range), clustered (sorted
blocks shuffled), spiked (sorted with upward exceptions), random, with
duplicates, with NaN and partitioned, with keys near the int64 limits.  Predicates compare with literals on either side, with float
literals on integer columns, with integers at and beyond the int64
limits, with NULL, NaN, bool and infinite literals, and nest OR and NOT,
which must not prune.  Random INSERT, UPDATE (of the key and of other
columns) and DELETE run between the reads, so stale summaries show; the
reads run whole, piecewise under an armed token, and restricted to
random rowIDs as a PatchIndex scan restricts them.
"""

import contextlib
import operator
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.operators as operators_mod
from repro.engine.batch import Relation, stored
from repro.engine.expressions import col, lit
from repro.engine.interrupt import CancellationToken, cancellation_scope
from repro.engine.operators import Scan
from repro.storage import PartitionedTable, Table
from repro.storage.column import ColumnType

BLOCK = 8
INT64_MIN, INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
SHAPES = ["sorted", "clustered", "spiked", "random", "duplicates", "nan", "partitioned"]
#: where a sorted key starts: negative values, and both int64 limits
BASES = [-40, 0, INT64_MIN, INT64_MAX - 400, 2**53 - 60]
OPS = {"=": operator.eq, "<": operator.lt, "<=": operator.le, ">": operator.gt,
       ">=": operator.ge, "<>": operator.ne}
MIRRORED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<=", "<>": "<>"}
COLUMNS = ["k", "f", "v", "s"]
#: the columns a comparison draws from, the key most often
COMPARED = ["k", "k", "k", "f", "v", "s"]


def _key(shape, n, base, rng):
    if shape == "random":
        return rng.integers(-50, 50, n)
    if shape == "duplicates":
        return np.sort(rng.integers(-3, 6, n)) + max(base, -(2**62))
    k = base + 3 * np.arange(n, dtype=np.int64)
    if shape == "clustered":  # sorted blocks in shuffled order
        blocks = [k[i : i + BLOCK] for i in range(0, n, BLOCK)]
        k = np.concatenate([blocks[i] for i in rng.permutation(len(blocks))] or [k])
    elif shape == "spiked":  # nearly sorted: upward exceptions break the block maxs' order
        spikes = rng.random(n) < 0.25
        k[spikes] = np.minimum(k[spikes], INT64_MAX - 200) + rng.integers(30, 200, int(spikes.sum()))
    return k


@st.composite
def tables(draw):
    shape = draw(st.sampled_from(SHAPES))
    n = draw(st.integers(0, 90))
    base = draw(st.sampled_from(BASES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = _key(shape, n, base, rng).astype(np.int64)
    # at 2**53 a float column compares with integers that no float holds
    f = np.arange(n) * 0.5 + draw(st.sampled_from([-7.0, 2.0**53]))
    if shape == "nan":
        f[rng.random(n) < 0.3] = np.nan
        f[: min(n, BLOCK)] = np.nan  # an all-NULL block
    cols = {
        "k": k,
        "f": f,
        "v": rng.integers(-5, 5, n),
        "s": np.array([None if i % 7 == 3 else "abc"[i % 3] for i in range(n)], dtype=object),
    }
    types = {"s": ColumnType.STRING}
    table = Table.from_arrays("t", cols, types=types, minmax_block_size=BLOCK)
    if shape == "partitioned" and n:
        table = PartitionedTable.from_table(table, "k", draw(st.integers(2, 3)))
    return shape, table


def _current(table):
    """Every column of the current image, partitions concatenated."""
    return {c: table.column(c) for c in COLUMNS}


def _literal(draw, column, values, op):
    """A literal for a comparison with ``column``: near its values, at
    the int64 limits or past them, float on integers, NULL/NaN/bool; a
    number on the STRING column where that compares without error."""
    if column == "s":
        return draw(st.sampled_from(["a", "b", "c", "zz", None] + [5] * (op in ("=", "<>"))))
    present = [v for v in values[column].tolist() if v == v]
    near = st.sampled_from(present) if present else st.just(0)
    kind = draw(st.sampled_from(["exact", "exact", "near", "float", "half", "limit", "odd"]))
    value = draw(near)
    if kind == "exact":
        return value
    if kind == "near":  # on the float column: an integer, compared as the float nearest it
        return int(value) + draw(st.integers(-2, 2))
    if kind == "float":
        return float(value)
    if kind == "half":
        return float(value) + 0.5
    if kind == "limit":
        return draw(st.sampled_from(
            [INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX, 2**63, 2**64, -(2**63) - 1,
             float(2**63), float(2**53) + 2.0, 2**53 + 1, 2**53 + 3, 10**400, -(10**400)]))
    return draw(st.sampled_from([None, float("nan"), True, False, float("inf"), -float("inf")]))


@st.composite
def predicates(draw, values, depth=2):
    if depth and draw(st.integers(0, 2)) == 0:
        form = draw(st.sampled_from(["AND", "AND", "OR", "NOT"]))
        left = draw(predicates(values, depth - 1))
        if form == "NOT":
            return ~left
        right = draw(predicates(values, depth - 1))
        return left & right if form == "AND" else left | right
    column = draw(st.sampled_from(COMPARED))
    op = draw(st.sampled_from(sorted(OPS)))
    value = _literal(draw, column, values, op)
    if draw(st.booleans()):  # the literal on the left, the operator mirrored
        return OPS[MIRRORED[op]](lit(value), col(column))
    return OPS[op](col(column), lit(value))


def _oracle_mask(table, predicate):
    """The predicate over every row, unpruned."""
    n = table.num_rows
    if n == 0:
        return np.zeros(0, dtype=bool)
    parts = [
        np.asarray(predicate.evaluate(Relation({c: stored(p, c) for c in COLUMNS})), dtype=bool)
        for p in table.partitions
        if p.num_rows
    ]
    return np.concatenate(parts)


@contextlib.contextmanager
def _armed(piece_rows):
    """An armed token and ``piece_rows`` rows per piece, or nothing."""
    if piece_rows is None:
        yield
        return
    with mock.patch.object(operators_mod, "CHECKPOINT_ROWS", piece_rows):
        with cancellation_scope(CancellationToken(timeout_ms=3_600_000)):
            yield


def check_read(table, predicate, restrict, piece_rows):
    mask = _oracle_mask(table, predicate)
    expected = _current(table)
    if restrict is not None:
        rowids, complement = restrict
        inside = np.zeros(table.num_rows, dtype=bool)
        inside[rowids] = True
        mask &= ~inside if complement else inside
    scan = Scan(table, COLUMNS, predicate)
    if restrict is not None:
        scan.restrict_rows(*restrict)
    with _armed(piece_rows):
        got = scan.execute()
    assert got.num_rows == int(mask.sum())
    for c in COLUMNS:
        want = expected[c][mask]
        assert got.column(c).dtype == want.dtype
        np.testing.assert_array_equal(got.column(c), want)


def check_rowids(table, predicate, piece_rows):
    with _armed(piece_rows):
        got = Scan(table, [], predicate).rowids()
    want = np.flatnonzero(_oracle_mask(table, predicate))
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    return got


@st.composite
def scenarios(draw):
    shape, table = draw(tables())
    steps = []
    for _ in range(draw(st.integers(1, 5))):
        step = draw(st.sampled_from(["read", "insert", "update_key", "update_other", "delete"]))
        steps += [step] if step == "read" else [step, "lookups", "read"]  # a write, then reads
    return shape, table, steps


@settings(max_examples=250, deadline=None)
@given(scenarios(), st.data())
def test_scans_and_dml_match_the_unpruned_oracle(scenario, data):
    shape, table, steps = scenario
    if shape in ("sorted", "duplicates") and table.num_rows:
        # a sorted key answers a range with bisects, not a block test
        assert table.minmax("k")._lists is not None
    for step in steps:
        values = _current(table)
        predicate = data.draw(predicates(values))
        piece_rows = data.draw(st.sampled_from([None, 5, 11]))
        n = table.num_rows
        if step == "read":
            check_read(table, predicate, _restriction(data, n), piece_rows)
            continue
        if step == "lookups":  # a stale summary shows at the blocks' edges
            for key in _block_maxima(values["k"].tolist()):
                check_read(table, col("k") == key, None, piece_rows)
            continue
        if step == "insert":
            count = data.draw(st.integers(1, 12))
            top = int(values["k"].max()) if n else 0
            start = min(top + 1, INT64_MAX - 3 * count)
            ascending = data.draw(st.booleans())
            k = (start + 3 * np.arange(count) if ascending
                 else np.array(data.draw(st.lists(st.integers(-60, 60), min_size=count,
                                                  max_size=count))))
            table.insert({
                "k": k.astype(np.int64),
                "f": np.array(data.draw(st.lists(
                    st.one_of(st.floats(-20, 60), st.just(float("nan"))),
                    min_size=count, max_size=count)), dtype=np.float64),
                "v": np.arange(count, dtype=np.int64),
                "s": np.array(["b"] * count, dtype=object),
            })
            continue
        rowids = check_rowids(table, predicate, piece_rows)
        if step == "delete":
            table.delete(rowids)
        elif step == "update_key":
            new = data.draw(st.lists(st.integers(-60, 60), min_size=len(rowids),
                                     max_size=len(rowids)))
            table.modify(rowids, {"k": np.array(new, dtype=np.int64)})
        else:
            table.modify(rowids, {"v": np.full(len(rowids), 99, dtype=np.int64),
                                  "f": np.full(len(rowids), -1.5)})


def _block_maxima(keys):
    return [max(keys[i : i + BLOCK]) for i in range(0, len(keys), BLOCK)]


def _restriction(data, n):
    """None, or random ascending rowIDs and whether to keep all others."""
    if not n or data.draw(st.booleans()):
        return None
    picked = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    return np.array(sorted(picked), dtype=np.int64), data.draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(tables(), st.data())
def test_lookups_of_present_keys_find_every_row(shaped, data):
    _, table = shaped
    keys = table.column("k").tolist()
    # block maxima first: an out-of-order one breaks a bisect over them
    picked = data.draw(st.lists(st.sampled_from(keys), max_size=4)) if keys else []
    for key in _block_maxima(keys) + picked:
        restrict = _restriction(data, table.num_rows)
        piece_rows = data.draw(st.sampled_from([None, 5, 11]))
        for predicate in (col("k") == key, col("k") >= key, lit(key) >= col("k")):
            check_read(table, predicate, restrict, piece_rows)


def test_or_not_and_string_columns_bound_nothing():
    k = np.arange(64, dtype=np.int64)
    s = np.array(["a", "b"] * 32, dtype=object)
    table = Table.from_arrays("t", {"k": k, "s": s}, minmax_block_size=BLOCK)
    for predicate in (
        (col("k") == 3) | (col("k") == 60),
        ~(col("k") < 60),
        (col("k") <= 0) | ((col("k") >= 63) & (col("k") == 63)),
        col("s") == 5,  # its summary would compare str with int
    ):
        assert Scan(table, ["k"], predicate)._runs(table) is None
    assert Scan(table, ["k"], col("s") == 5).execute().num_rows == 0
    # bounds on two columns meet: k >= 20 keeps rows 16.., 63 - k >= 20 rows ..48
    table = Table.from_arrays("t", {"k": k, "v": 63 - k}, minmax_block_size=BLOCK)
    assert Scan(table, ["k"], (col("k") >= 20) & (col("v") >= 20))._runs(table) == [(16, 48)]
    assert Scan(table, ["k"], (col("k") >= 9) & (col("k") < 17))._runs(table) == [(8, 24)]
    assert Scan(table, ["k"], lit(9) <= col("k"))._runs(table) == [(8, 64)]
