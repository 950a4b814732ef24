"""The cross-engine differential corpus must run with zero surprises.

Tentpole contract: every query in the versioned corpus either agrees
with the sqlite3 reference row-for-row (under the canonical comparator)
or sits in :data:`XFAIL_MANIFEST` with a written excuse — and a manifest
entry that stops diverging is itself a failure (stale excuse).
"""

import math

import pytest

from repro.testing import (
    XFAIL_MANIFEST,
    DifferentialPair,
    ResultMismatch,
    build_reference_catalog,
    default_corpus,
    run_corpus,
)
from repro.testing.differential import canonical_rows, compare_rows

CORPUS = default_corpus(seed=7)


@pytest.fixture(scope="module")
def fresh_pair():
    with DifferentialPair(build_reference_catalog(seed=0)) as pair:
        yield pair


class TestCorpusShape:
    def test_at_least_forty_selects_plus_dml(self):
        selects = [q for q in CORPUS if q.kind == "select"]
        dml = [q for q in CORPUS if q.kind == "dml"]
        assert len(selects) >= 40
        assert len(dml) >= 5

    def test_query_ids_unique(self):
        ids = [q.qid for q in CORPUS]
        assert len(set(ids)) == len(ids)

    def test_every_manifest_entry_is_exercised(self):
        ids = {q.qid for q in CORPUS}
        missing = set(XFAIL_MANIFEST) - ids
        assert not missing, f"manifest excuses nothing in the corpus: {missing}"

    def test_every_manifest_entry_has_a_note(self):
        for qid, why in XFAIL_MANIFEST.items():
            assert why.strip(), f"empty excuse for {qid}"

    def test_corpus_is_deterministic(self):
        again = default_corpus(seed=7)
        assert [(q.qid, q.sql) for q in CORPUS] == [(q.qid, q.sql) for q in again]


class TestFullRun:
    def test_zero_unexplained_divergences(self):
        # a dedicated pair: the DML section mutates its catalog
        with DifferentialPair(build_reference_catalog(seed=0)) as pair:
            report = run_corpus(pair, CORPUS)
        detail = "; ".join(
            [str(m) for m in report.mismatches]
            + [str(u) for u in report.unsupported]
            + [f"stale xfail: {q}" for q in report.xpassed]
        )
        assert report.ok, f"{report.summary()} -- {detail}"
        assert len(report.passed) + len(report.xfailed) == len(CORPUS)
        # the manifest is exact: exactly the excused queries diverged
        assert set(report.xfailed) == set(XFAIL_MANIFEST)


class TestPerQuery:
    """Each non-excused SELECT individually (readable failure per query)."""

    SELECTS = [
        q for q in CORPUS if q.kind == "select" and q.qid not in XFAIL_MANIFEST
    ]

    @pytest.mark.parametrize("query", SELECTS, ids=lambda q: q.qid)
    def test_select_agrees_with_reference(self, fresh_pair, query):
        fresh_pair.check(query)

    @pytest.mark.parametrize(
        "qid", sorted(q for q in XFAIL_MANIFEST if q.startswith("null/"))
    )
    def test_excused_probes_still_diverge(self, fresh_pair, qid):
        query = next(q for q in CORPUS if q.qid == qid)
        with pytest.raises((ResultMismatch, AssertionError)):
            fresh_pair.check(query)


class TestComparator:
    def test_nan_and_none_unify(self):
        rows = canonical_rows([(float("nan"), "x"), (None, "y")])
        assert rows == [(None, "x"), (None, "y")]

    def test_float_tolerance_absorbs_rounding(self):
        compare_rows(
            "t", "sql", [(0.1 + 0.2,)], [(0.3,)]
        )  # no ResultMismatch despite 0.30000000000000004

    def test_real_divergence_raises(self):
        with pytest.raises(ResultMismatch):
            compare_rows("t", "sql", [(1, "a")], [(2, "a")])

    def test_row_count_divergence_raises(self):
        with pytest.raises(ResultMismatch):
            compare_rows("t", "sql", [(1,)], [(1,), (2,)])

    def test_order_insensitive(self):
        compare_rows("t", "sql", [(2,), (1,)], [(1,), (2,)])

    def test_null_sorts_deterministically(self):
        rows = canonical_rows([(1.5,), (None,), ("z",), (math.inf,)])
        assert rows[0] == (None,)


class TestDml:
    def test_apply_catches_wrong_rows_touched(self):
        with DifferentialPair(build_reference_catalog(seed=0)) as pair:
            # mutate only our side: content comparison must now fail
            pair.session.execute("UPDATE events SET amount = amount + 1 WHERE eid = 3")
            with pytest.raises(ResultMismatch):
                pair.check_table("probe", "events")
