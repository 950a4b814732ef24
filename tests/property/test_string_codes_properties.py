"""Property-based tests: the string kernels on dictionary codes against
the object-array kernels they replaced.

A STRING column is stored as int32 codes into its append-only
:class:`~repro.storage.column.StringDictionary`; comparisons, IN and
IS NULL run once per dictionary entry and gather through the codes, and
group codes, sort keys, the run merge and the join read the codes'
ranks.  An object array with no dictionary (a computed column) is
encoded once on entry and takes the same path.  The object-array
kernels the engine ran before are kept here as the oracles
(``object_*``): every coded kernel must give their answer, for columns
with NULLs, duplicates, unicode and literals the dictionary has never
met, held three ways: coded by a table whose dictionary also holds
values the column lacks, coded by a table holding just the column, and
as a plain object array.

Random INSERT / UPDATE / DELETE sequences, UPDATEs to unseen strings
and to NULL among them, must keep ``Table.column()`` equal to a list
model, and a relation read before the writes must decode the same after
them.  A module fixture fails unless the kernels gathered through a
table's own dictionary and through one built on entry, for the
predicates, the group keys and the sort keys each.  Eight threads
sorting and grouping one table at once, after its dictionary grew,
must each see the single-reader answer: the lazily rebuilt rank is
shared state.
"""

import operator
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch import Relation, stored
from repro.engine.expressions import col, is_null, lit, not_null_mask
from repro.engine.groups import first_rows, group_codes, sorted_unique
from repro.engine.operators import Distinct, GroupAggregate, RelationSource, Sort, _expand_matches
from repro.engine.sort import merge_sorted_runs, serial_sort_permutation
from repro.storage import ColumnType, Table
from repro.storage.column import StringDictionary

#: every dictionary a test table made, by id; the fixture tells them from fresh ones
TABLE_DICTS = {}

STRINGS = st.one_of(
    st.sampled_from(["", "a", "b", "ab", "aa", "Z", "ä", "日本"]),
    st.text(max_size=3),
    st.none(),
)
COLUMNS = st.lists(STRINGS, max_size=30)
HOW = st.sampled_from(["table with extras", "table", "object"])
COMPARISONS = [operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge]


#: the kernels' gathers through a dictionary: predicates, group keys, sort keys
GATHERS = ("_per_entry", "_key_array", "_ranks")


@pytest.fixture(scope="module", autouse=True)
def both_string_paths_run():
    """Fails the module unless each kernel gathered through a stored
    column's own dictionary and through one built on entry."""
    seen = set()
    gather = StringDictionary.gather

    def spy(self, per_value, codes, null):
        caller = sys._getframe(1).f_code.co_name
        seen.add((caller, "stored" if id(self) in TABLE_DICTS else "entry"))
        return gather(self, per_value, codes, null)

    with mock.patch.object(StringDictionary, "gather", spy):
        yield
    want = {(kernel, path) for kernel in GATHERS for path in ("stored", "entry")}
    assert want <= seen, f"string paths never run: {sorted(want - seen)}"


def as_objects(values):
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


def string_table(values, extras=()):
    """A table over ``extras + values``; the codes of ``values`` come back."""
    table = Table.from_arrays(
        "t", {"s": as_objects(list(extras) + list(values))}, types={"s": ColumnType.STRING}
    )
    dictionary = table.codes("s")[1]
    TABLE_DICTS[id(dictionary)] = dictionary
    return table, stored(table, "s", slice(len(extras), None))


def held(values, how, extras):
    """``values`` as a relation column, coded or as an object array."""
    if how == "object":
        return as_objects(values)
    return string_table(values, extras if how == "table with extras" else ())[1]


# ----------------------------------------------------------------------
# the object-array kernels, as the engine ran them
# ----------------------------------------------------------------------
def object_compare(fn, left, right):
    valid = not_null_mask(left) & not_null_mask(right)
    if not valid.all():
        left, right = (side[valid] if side.ndim else side for side in (left, right))
    out = np.zeros(len(valid), dtype=bool)
    out[valid] = np.asarray(fn(left, right), dtype=bool)
    return out


def object_isin(values, members):
    members = [v for v in members if v is not None]
    return np.asarray(np.isin(values, members), dtype=bool) & not_null_mask(values)


def object_column_codes(arr):
    """The group kernel's dictionary strategy: codes in key order, NULL first."""
    seen = {}
    arrival = np.array([seen.setdefault(v, len(seen)) for v in arr.tolist()], dtype=np.int64)
    ordered = sorted(key for key in seen if key is not None)
    if None in seen:
        ordered.insert(0, None)
    rank = np.empty(len(ordered), dtype=np.int64)
    rank[[seen[key] for key in ordered]] = np.arange(len(ordered))
    return rank[arrival], len(ordered)


def object_sort_key(value):
    """``_orderable_key``'s wrapping: NULL after every value, all NULLs tied."""
    return (1, "") if value is None else (0, value)


def object_order(keys, ascending):
    """Least significant key first, each a stable sort in its direction."""
    order = list(range(len(keys[0]) if keys else 0))
    for key, asc in reversed(list(zip(keys, ascending))):
        values = key.tolist()
        order = sorted(order, key=lambda i: object_sort_key(values[i]), reverse=not asc)
    return np.array(order, dtype=np.int64)


def object_join(build, probe):
    table = {}
    for pos, key in enumerate(build.tolist()):
        if key is not None:
            table.setdefault(key, []).append(pos)
    pairs = [(b, i) for i, key in enumerate(probe.tolist()) for b in table.get(key, ())]
    build_idx = np.array([b for b, _ in pairs], dtype=np.int64)
    return build_idx, np.array([i for _, i in pairs], dtype=np.int64)


# ----------------------------------------------------------------------
# predicates
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(
    COLUMNS,
    COLUMNS,
    HOW,
    st.sampled_from(COMPARISONS),
    STRINGS,
    st.booleans(),
)
def test_comparisons_match_the_object_kernel(values, extras, how, fn, literal, flip):
    rel = Relation({"s": held(values, how, extras)})
    expr = fn(lit(literal), col("s")) if flip else fn(col("s"), lit(literal))
    constant = np.asarray(literal, dtype=object)
    arr = as_objects(values)
    want = object_compare(fn, constant, arr) if flip else object_compare(fn, arr, constant)
    np.testing.assert_array_equal(expr.evaluate(rel), want)


@settings(max_examples=200, deadline=None)
@given(COLUMNS, COLUMNS, HOW, st.lists(STRINGS, max_size=4), st.booleans())
def test_in_and_is_null_match_the_object_kernel(values, extras, how, members, negate):
    rel = Relation({"s": held(values, how, extras)})
    arr = as_objects(values)
    np.testing.assert_array_equal(col("s").isin(members).evaluate(rel), object_isin(arr, members))
    present = np.not_equal(arr, None)
    got = is_null(col("s"), negate).evaluate(rel)
    np.testing.assert_array_equal(got, present if negate else ~present)


# ----------------------------------------------------------------------
# group codes, distinct and sort
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(COLUMNS.filter(len), COLUMNS, HOW, st.data())
def test_group_codes_and_distinct_match_the_object_kernel(values, extras, how, data):
    rel = Relation({"s": held(values, how, extras)})
    arr = as_objects(values)
    want, ngroups = object_column_codes(arr)
    codes, got_groups = group_codes([rel.key("s")])
    np.testing.assert_array_equal(codes, want)
    assert got_groups == ngroups
    assert sorted_unique(arr).tolist() == arr[first_rows(want, ngroups)].tolist()
    distinct = Distinct(RelationSource(rel), ["s"]).execute()
    assert distinct.column("s").tolist() == arr[first_rows(want, ngroups)].tolist()
    # a second, integer key: the radix product of the two columns' codes
    ints = np.array(data.draw(st.lists(st.integers(0, 2), min_size=len(arr), max_size=len(arr))))
    grouped = GroupAggregate(
        RelationSource(rel.with_column("i", ints)), ["s", "i"], {"n": ("count", None)}
    ).execute()
    # NULL (None) first, as the group kernel orders it
    rows = sorted({(v is not None, v or "", i) for v, i in zip(values, ints.tolist())})
    assert grouped.column("s").tolist() == [v if present else None for present, v, _ in rows]
    assert grouped.column("i").tolist() == [i for _, _, i in rows]


@settings(max_examples=200, deadline=None)
@given(COLUMNS, COLUMNS, HOW, st.booleans(), st.booleans(), st.data())
def test_sort_matches_the_object_kernel(values, extras, how, asc, int_asc, data):
    rel = Relation({"s": held(values, how, extras)})
    arr = as_objects(values)
    np.testing.assert_array_equal(
        serial_sort_permutation([rel.key("s")], [asc]), object_order([arr], [asc])
    )
    ints = np.array(data.draw(st.lists(st.integers(0, 2), min_size=len(arr), max_size=len(arr))))
    want = object_order([arr, ints], [asc, int_asc])
    rel = rel.with_column("i", ints)
    got = Sort(RelationSource(rel), ["s", "i"], [asc, int_asc]).execute()
    assert got.column("s").tolist() == arr[want].tolist()
    np.testing.assert_array_equal(got.column("i"), ints[want])
    assert (got.codes("s") is None) == (how == "object")  # a coded column stays coded


# ----------------------------------------------------------------------
# run merge and join
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(COLUMNS, st.lists(st.integers(0, 30), max_size=3), st.booleans(), st.data())
def test_run_merge_matches_the_object_kernel(values, cuts, asc, data):
    arr = as_objects(values)
    bounds = [0] + sorted(min(c, len(arr)) for c in cuts) + [len(arr)]
    runs = [arr[a:b][object_order([arr[a:b]], [asc])] for a, b in zip(bounds, bounds[1:])]
    # each run coded by one shared table, by a table of its own, or as objects
    shared = string_table(np.concatenate(runs) if runs else [])[1]
    keys = []
    for (a, b), run in zip(zip(bounds, bounds[1:]), runs):
        how = data.draw(st.sampled_from(["shared", "own", "object"]))
        if how == "shared":
            keys.append((shared.codes[a:b], shared.dictionary))
        elif how == "own":
            coded = string_table(run)[1]
            keys.append((coded.codes, coded.dictionary))
        else:
            keys.append(run)
    whole = np.concatenate(runs) if runs else as_objects([])
    np.testing.assert_array_equal(merge_sorted_runs(keys, asc), object_order([whole], [asc]))


@settings(max_examples=200, deadline=None)
@given(COLUMNS, COLUMNS, COLUMNS, HOW, st.booleans())
def test_string_join_matches_the_object_kernel(build, probe, extras, how, one_table):
    want = object_join(as_objects(build), as_objects(probe))
    if how == "object":
        keys = as_objects(build), as_objects(probe)
    elif one_table:  # both sides coded by one dictionary
        table, _ = string_table(list(build) + list(probe), extras)
        codes, dictionary = table.codes("s")
        start = len(extras)
        keys = (
            (codes[start : start + len(build)], dictionary),
            (codes[start + len(build) :], dictionary),
        )
    else:
        keys = tuple(
            (c.codes, c.dictionary)
            for c in (held(build, how, extras)[:], held(probe, how, ())[:])
        )
    for got, exp in zip(_expand_matches(*keys), want):
        np.testing.assert_array_equal(got, exp)


# ----------------------------------------------------------------------
# the table under writes
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(COLUMNS, st.data())
def test_writes_keep_codes_and_readers_decoding(initial, data):
    table, _ = string_table(initial)
    model = list(initial)
    readers = []
    for _ in range(data.draw(st.integers(1, 8))):
        reader = Relation({"s": stored(table, "s")})
        readers.append((reader, list(model)))
        n = len(model)
        kind = data.draw(st.sampled_from(["insert", "update", "delete"]))
        if kind == "insert":
            new = data.draw(st.lists(STRINGS, max_size=5))
            table.insert({"s": as_objects(new)})
            model += new
        elif kind == "update" and n:
            rows = sorted(set(data.draw(st.lists(st.integers(0, n - 1), min_size=1))))
            # an unseen string, NULL, or one the column holds
            value = data.draw(st.one_of(st.text(min_size=4, max_size=6), st.none(), STRINGS))
            table.modify(np.array(rows), {"s": as_objects([value] * len(rows))})
            for r in rows:
                model[r] = value
        elif kind == "delete" and n:
            rows = set(data.draw(st.lists(st.integers(0, n - 1))))
            table.delete(np.array(sorted(rows), dtype=np.int64))
            model = [v for i, v in enumerate(model) if i not in rows]
        assert table.column("s").tolist() == model
        # the grown dictionary's ranks order the new values too
        codes, dictionary = table.codes("s")
        want = object_order([as_objects(model)], [True])
        np.testing.assert_array_equal(serial_sort_permutation([(codes, dictionary)]), want)
    for reader, then in readers:
        assert reader.column("s").tolist() == then
        codes, dictionary = reader.codes("s")
        assert dictionary.decode(codes).tolist() == then


def test_concurrent_readers_share_one_dictionary():
    """Readers of one table rebuild the grown dictionary's rank and
    decode its codes at once; each must see the single-reader answer."""
    rng = np.random.default_rng(5)
    words = [f"w{i:03d}" for i in range(300)] + [None]
    table, _ = string_table([words[i] for i in rng.integers(0, len(words), 2_000)])
    want_sort = want_groups = None
    errors = []

    def read():
        try:
            for _ in range(20):
                rel = Relation({"s": stored(table, "s")})
                got = Sort(RelationSource(rel), ["s"]).execute().column("s").tolist()
                groups = Distinct(RelationSource(rel), ["s"]).execute().column("s").tolist()
                assert (got, groups) == (want_sort, want_groups)
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_no in range(3):
            # grow the dictionary: every reader then finds its rank stale
            table.insert({"s": as_objects([f"new{round_no}-{i}" for i in range(50)])})
            values = table.column("s").tolist()
            want_sort = sorted(values, key=object_sort_key)
            want_groups = sorted(set(values), key=lambda v: (v is not None, v or ""))
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(switch)
    assert not errors, errors[0]
