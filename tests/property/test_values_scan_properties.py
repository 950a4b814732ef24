"""Property-based tests: the columnar VALUES scan against the row loop.

An INSERT is tokenized through ``VALUES`` only; its body is checked by
one pattern and read as columns of literal texts and kinds, which
``SQLSession`` turns into storage arrays.  The oracle is the path it
replaced, kept here verbatim: ``_parse_insert_oracle`` tokenizes the
whole statement and reads it row by row with ``_parse_literal``, and
``_coerce_oracle`` is ``_coerce_for_storage`` as it was, fed the
column's Python values.

For every generated INSERT, run into an INT64, a FLOAT64 and a STRING
table, both sides must store arrays of the same dtype and the same bits
(NaN and ``-0.0`` where the other has them, the same Python types in a
STRING column), or raise the same exception type with the same message.

The body pattern is the scan's only validator; past it the literals
are read by splitting the text.  ``_findall_scan`` is the reader it
replaced (one ``re.findall`` over the checked body, a Python step per
literal), kept verbatim: both must give the same texts and kinds.

One divergence is kept on purpose: the row loop converted each number
while parsing, the scan converts when the INSERT runs.  A literal past
``int()``'s digit limit therefore raises the same ``ValueError`` at run
time instead of at parse time (pinned below); no error changes.
"""

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import SQLSession, parse_statement
from repro.sql import parser as parser_module
from repro.sql.lexer import SQLSyntaxError, TokenKind, tokenize
from repro.sql.parser import FLOAT, INT, NULL, STRING, _Parser, _scan_values
from repro.sql.session import NullStorageError
from repro.storage import Catalog, Table
from repro.storage.column import ColumnType


# ----------------------------------------------------------------------
# the oracle: the token parser's row loop and the old coercion
# ----------------------------------------------------------------------
def _parse_insert_oracle(sql):
    """``(table, columns, rows)`` as the row-by-row INSERT parser read them."""
    p = _Parser(tokenize(sql))
    if not p._peek().matches(TokenKind.KEYWORD, "INSERT"):
        raise SQLSyntaxError(f"unsupported statement start {p._peek().value!r}")
    p._expect(TokenKind.KEYWORD, "INSERT")
    p._expect(TokenKind.KEYWORD, "INTO")
    table = p._expect(TokenKind.IDENT).value
    p._expect(TokenKind.PUNCT, "(")
    columns = [p._expect(TokenKind.IDENT).value]
    while p._accept(TokenKind.PUNCT, ","):
        columns.append(p._expect(TokenKind.IDENT).value)
    p._expect(TokenKind.PUNCT, ")")
    p._expect(TokenKind.KEYWORD, "VALUES")
    rows = []
    while True:
        p._expect(TokenKind.PUNCT, "(")
        row = [p._parse_literal()]
        while p._accept(TokenKind.PUNCT, ","):
            row.append(p._parse_literal())
        p._expect(TokenKind.PUNCT, ")")
        if len(row) != len(columns):
            raise SQLSyntaxError(
                f"VALUES row has {len(row)} items, expected {len(columns)}"
            )
        rows.append(row)
        if not p._accept(TokenKind.PUNCT, ","):
            break
    p._accept(TokenKind.PUNCT, ";")
    p._expect(TokenKind.EOF)
    return table, columns, rows


#: each literal of a checked body as (string, sign, number, null)
_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)"
_LITERAL = re.compile(rf"'([^']*)'|(?:(-)\s*)?({_NUMBER})|([Nn][Uu][Ll][Ll])")


def _findall_scan(sql, start, width):
    """``_scan_values`` as it was: one ``findall`` read the literals."""
    if parser_module._values_body(width).fullmatch(sql, start) is None:
        raise SQLSyntaxError("malformed VALUES body")
    texts = []
    kinds = []
    for string, sign, number, null in _LITERAL.findall(sql, start):
        if number:
            texts.append(sign + number)
            kinds.append(FLOAT if "." in number else INT)
        else:  # ``''`` fills no group: a STRING
            texts.append(null or string)
            kinds.append(NULL if null else STRING)
    return [texts[i::width] for i in range(width)], ["".join(kinds[i::width]) for i in range(width)]


def _coerce_oracle(column, field, raw):
    """``_coerce_for_storage`` over a Python value list, verbatim."""
    dtype = field.type.numpy_dtype
    if dtype is object:
        arr = np.empty(len(raw), dtype=object)
        arr[:] = [None if v is None else str(v) for v in raw]
        return arr
    if any(v is None for v in raw):
        if not np.issubdtype(dtype, np.floating):
            raise NullStorageError(
                f"cannot store NULL in column {column!r}: its type "
                f"({field.type.name}) has no NULL representation; only "
                "STRING (None) and FLOAT64 (NaN) columns are nullable"
            )
        raw = [np.nan if v is None else v for v in raw]
    return np.asarray(raw, dtype=dtype)


def _insert_oracle(table, sql):
    _, columns, rows = _parse_insert_oracle(sql)
    out = {}
    for i, column in enumerate(columns):
        field = table.schema.field(column)
        out[column] = _coerce_oracle(column, field, [row[i] for row in rows])
    return out


# ----------------------------------------------------------------------
# the path under test: a real INSERT through a session
# ----------------------------------------------------------------------
EMPTY = {
    ColumnType.INT64: np.zeros(0, dtype=np.int64),
    ColumnType.FLOAT64: np.zeros(0, dtype=np.float64),
    ColumnType.STRING: np.zeros(0, dtype=object),
}


def _table(ctype, width):
    names = [f"c{i}" for i in range(width)]
    return Table.from_arrays(
        "t", {n: EMPTY[ctype] for n in names}, types=dict.fromkeys(names, ctype)
    )


def _insert_new(table, sql):
    catalog = Catalog()
    catalog.register(table)
    SQLSession(catalog).execute(sql)
    return {n: table.column(n) for n in table.schema.names}


def _stored(arrays):
    """Dtype and exact contents of each column (bits for numbers)."""
    out = {}
    for name, arr in arrays.items():
        if arr.dtype == object:
            out[name] = ("object", [(type(v).__name__, v) for v in arr])
        else:
            out[name] = (arr.dtype.str, arr.tobytes())
    return out


def _outcome(insert, ctype, width, sql):
    try:
        return _stored(insert(_table(ctype, width), sql))
    except (ValueError, OverflowError, TypeError, KeyError) as exc:
        return type(exc).__name__, str(exc)


def _scan_outcome(scan, sql, width):
    start = sql.index("VALUES") + len("VALUES")
    try:
        return scan(sql, start, width)
    except SQLSyntaxError as exc:
        return str(exc)


def assert_same_outcome(sql, width):
    for ctype in (ColumnType.INT64, ColumnType.FLOAT64, ColumnType.STRING):
        new = _outcome(_insert_new, ctype, width, sql)
        old = _outcome(_insert_oracle, ctype, width, sql)
        assert new == old, (ctype, sql)
    if "VALUES" in sql:
        assert _scan_outcome(_scan_values, sql, width) == _scan_outcome(_findall_scan, sql, width)


# ----------------------------------------------------------------------
# generated INSERTs
# ----------------------------------------------------------------------
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
CORNER_INTS = [
    "0", "007", str(INT64_MAX), str(INT64_MIN)[1:], str(2**63), str(2**64 + 1),
    str(2**53 + 1), str(2**53 + 3), "9" * 40, "٣", "۱۲", "\U0001d7d8\U0001d7d9", "१०",
]
CORNER_FLOATS = [
    "5.", ".5", "0.0", "1.5", "12.25", "00.50", "9" * 40 + ".", "1" * 320 + ".5",
    "٣.٥", "0.1",
]
INTS = st.one_of(
    st.sampled_from(CORNER_INTS),
    st.integers(0, 2**65).map(str),
    st.from_regex(r"\A\d{1,4}\Z"),
)
FLOATS = st.one_of(
    st.sampled_from(CORNER_FLOATS),
    st.from_regex(r"\A\d{0,3}\.\d{0,3}\Z").filter(lambda s: s != "."),
    st.floats(0, 1e30).map(lambda f: f"{f:f}"),
)
#: a sign, and what may stand between it and its digits (``\s`` is Unicode)
SIGN = st.sampled_from(["", "", "-", "- ", "-\t", "-\n", "- \t\n ", "-\u3000", "-\x85", "-\xa0"])
STRINGS = st.one_of(
    st.sampled_from([
        "", "a", "a,b", "(", ")", "),(", "123", "5", "5.5", "-5", " 7 ", "NULL",
        "null", "é", "　", "1e3", "nan", "inf", "0x10", "1_000", "٣", ";", "(1, 2);",
        " - 5 ", "-", "- 5", "a  \t  b", "1,2", "null, 7", "(NULL)", "  ", ".5", "5.",
    ]),
    st.text(st.sampled_from("ab1.,() -N\n;\tlu"), max_size=6),
).map(lambda body: f"'{body}'")
#: NULL in every mix of case
NULLS = st.tuples(*(st.sampled_from(pair) for pair in ("Nn", "Uu", "Ll", "Ll"))).map("".join)
#: each column of a statement draws its literals from one of these
POOLS = [
    st.tuples(SIGN, INTS).map("".join),
    st.tuples(SIGN, FLOATS).map("".join),
    st.tuples(SIGN, st.one_of(INTS, FLOATS)).map("".join),
    STRINGS,
    st.one_of(st.tuples(SIGN, INTS).map("".join), STRINGS, NULLS),
    st.one_of(st.tuples(SIGN, FLOATS).map("".join), NULLS),
    st.one_of(st.tuples(SIGN, st.one_of(INTS, FLOATS)).map("".join), STRINGS, NULLS),
]
#: one malformed item: negated string or NULL, double sign, words that
#: are not NULL, a quote in a string, stray punctuation, exponents
BAD_ITEMS = [
    "- 'x'", "-'5'", "-NULL", "- null", "--5", "- -5", "+5", "NULLX", "NULL_",
    "nul", "x", "e5", "1e5", "5 5", "5.5.5", "..5", ".", "٣x", "'it''s'",
    "'open", ",", ")", "(", "", "5'a'", "NULL'x'",
]
SPACE = st.sampled_from(["", "", " ", "  ", "\n", "\t", "　", "\x85"])
END = st.sampled_from(["", "", ";", "; ", " ;\n", ";\t\n  ", "; \u3000", ";\x85"])
BAD_END = st.sampled_from([";;", ",", " x", "(1)", ")", "; x", ",(1"])


@st.composite
def inserts(draw):
    """``(sql, width)``: an INSERT of ``width`` columns; a third malformed.

    A malformed statement carries one fault: a bad item, a row of the
    wrong arity, a dropped parenthesis, text after the last row, or a
    broken head.
    """
    width = draw(st.integers(1, 3))
    pools = [draw(st.sampled_from(POOLS)) for _ in range(width)]
    nrows = draw(st.integers(1, 4))
    rows = [[draw(pool) for pool in pools] for _ in range(nrows)]
    fault = draw(st.sampled_from(["none"] * 10 + ["item", "arity", "paren", "end", "head"]))
    row = draw(st.integers(0, nrows - 1))
    if fault == "item":
        rows[row][draw(st.integers(0, width - 1))] = draw(st.sampled_from(BAD_ITEMS))
    elif fault == "arity":
        if width > 1 and draw(st.booleans()):
            rows[row].pop()
        else:
            rows[row].append(draw(pools[0]))
    columns = ", ".join(f"c{i}" for i in range(width))
    if fault == "head":
        columns = draw(st.sampled_from([columns.replace(",", ""), columns + ",", "c9", ""]))
    body = (draw(SPACE) + "," + draw(SPACE)).join(
        "(" + ",".join(draw(SPACE) + item + draw(SPACE) for item in items) + ")"
        for items in rows
    )
    if fault == "paren":
        parens = [i for i, ch in enumerate(body) if ch in "()"]
        cut = draw(st.sampled_from(parens))
        body = body[:cut] + body[cut + 1 :]
    end = draw(BAD_END if fault == "end" else END)
    sql = f"INSERT INTO t ({columns}) VALUES{draw(SPACE)}{body}{draw(SPACE)}{end}"
    return sql, width


@settings(max_examples=700, deadline=None)
@given(inserts())
def test_values_scan_stores_what_the_row_loop_stored(case):
    assert_same_outcome(*case)


@pytest.mark.parametrize(
    "body, width",
    [
        ("(- 5, -0.0, 5.)", 3),
        ("(.5, 007, -007)", 3),
        (f"({INT64_MAX}), ({INT64_MIN})", 1),
        (f"({2**63})", 1),
        (f"(-{2**63 + 1})", 1),
        (f"({2**53 + 1}, 1.5), (1.5, {2**53 + 1})", 2),
        (f"({2**53 + 1}), (1.5)", 1),
        ("(NULL, null, 1)", 3),
        ("(NULLX)", 1),
        ("('a,b', '(', ')'), ('12', 'NULL', '')", 3),
        ("('it''s')", 1),
        ("(007, 5., '5')", 3),
        ("('5'), ('-5'), ('5.5')", 1),
        ("(٣, ٣.٥, -۱۲)", 3),
        ("(1, 2", 2),
        ("(1, 2), (3)", 2),
        ("(- 'x')", 1),
        ("(- NULL)", 1),
        ("(1),", 1),
        ("(1) (2)", 1),
        ("(1); x", 1),
        ("(1);", 1),
        ("(1) ; \n", 1),
        ("('', 5), (5, ''), ('',-5), (-5,'')", 2),
        ("(5,''),('',.5)", 2),
        ("('(1, 2);', '- 5'), (' null ', 'a  \t  b')", 2),
        ("(-\t5, -\n.5, -\u30005.)", 3),
        ("(NULL, nUlL, NuLl, nulL)", 4),
        ("(1, '1', NULL, 1.5), ('x', 2, 2.5, NULL), (NULL, null, 'y', 3)", 4),
        ("(1) ;\t\n  ", 1),
    ],
)
def test_pinned_corners(body, width):
    columns = ", ".join(f"c{i}" for i in range(width))
    assert_same_outcome(f"INSERT INTO t ({columns}) VALUES {body}", width)


def test_head_errors_keep_their_precedence():
    """A lexer error in the body still wins over a parse error in the head."""
    for sql in [
        "INSERT INTO t (c0 c1) VALUES ('x)",
        "INSERT INTO t (c0 c1) VALUES (@)",
        "INSERT INTO t (c0) VALUE (1)",
        "INSERT INTO t (c0)",
        "INSERT t (c0) VALUES (1)",
    ]:
        assert_same_outcome(sql, 1)


# ----------------------------------------------------------------------
# pins
# ----------------------------------------------------------------------
def test_a_valid_insert_does_not_tokenize_its_body(monkeypatch):
    sql = "INSERT INTO t (a, b) VALUES (1, 'x'), (-2.5, NULL);"
    values = sql.index("VALUES")
    lexed = []

    def head_only(text):
        for tok in lexemes(text):
            lexed.append(tok)
            yield tok

    def no_tokenize(text):
        raise AssertionError("tokenize() ran on a valid INSERT")

    lexemes = parser_module._lex
    monkeypatch.setattr(parser_module, "_lex", head_only)
    monkeypatch.setattr(parser_module, "tokenize", no_tokenize)
    stmt = parse_statement(sql)
    assert stmt.texts == [["1", "-2.5"], ["x", "NULL"]] and stmt.kinds == ["IF", "SN"]
    assert lexed[-1].matches(TokenKind.KEYWORD, "VALUES")
    assert max(tok.position for tok in lexed) == values


def test_a_malformed_insert_is_walked_by_the_token_parser(monkeypatch):
    calls = []
    real = parser_module.tokenize
    monkeypatch.setattr(parser_module, "tokenize", lambda text: calls.append(text) or real(text))
    with pytest.raises(SQLSyntaxError, match="VALUES row has 1 items, expected 2"):
        parse_statement("INSERT INTO t (a, b) VALUES (1, 2), (3)")
    assert len(calls) == 1


def test_the_digit_limit_raises_when_the_insert_runs():
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    sql = f"INSERT INTO t (c0) VALUES (-{digits})"
    with pytest.raises(ValueError, match="Exceeds the limit") as old:
        _parse_insert_oracle(sql)
    stmt = parse_statement(sql)  # no longer raises while parsing
    assert stmt.texts == [[f"-{digits}"]]
    with pytest.raises(ValueError) as new:
        _insert_new(_table(ColumnType.INT64, 1), sql)
    assert str(new.value) == str(old.value)
