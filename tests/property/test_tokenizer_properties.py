"""Property-based tests: the one-regex tokenizer against the character loop.

``_tokenize_oracle`` is the tokenizer the SQL front end used to run — one
Python step per character, classifying with ``str.isspace``,
``str.isdigit``, ``str.isalpha`` and ``str.isalnum`` — kept here as the
oracle.  On full-Unicode text the regex tokenizer must return the same
tokens, or raise :class:`SQLSyntaxError` with the same message.

One divergence is kept on purpose, and pinned below: a numeral that is
not a decimal digit (``str.isdigit`` but not ``str.isdecimal``, e.g.
``'²'`` or ``'①'``).  The loop made it part of a NUMBER token, which the
parser's ``int()``/``float()`` then rejected with a bare ``ValueError``;
the regex tokenizer raises ``SQLSyntaxError`` at that character instead.
Inside string literals and identifiers both accept it.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import parse_statement
from repro.sql.lexer import (
    KEYWORDS,
    OPERATORS,
    PUNCT,
    SQLSyntaxError,
    Token,
    TokenKind,
    tokenize,
)


def _tokenize_oracle(text):
    """The per-character tokenizer, verbatim."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "'":
            end = text.find("'", i + 1)
            if end < 0:
                raise SQLSyntaxError(f"unterminated string literal at {i}")
            tokens.append(Token(TokenKind.STRING, text[i + 1 : end], i))
            i = end + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            tokens.append(Token(TokenKind.NUMBER, text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenKind.KEYWORD, upper, i))
            else:
                tokens.append(Token(TokenKind.IDENT, word, i))
            i = j
            continue
        matched = False
        for op in OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token(TokenKind.OPERATOR, op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in PUNCT:
            tokens.append(Token(TokenKind.PUNCT, ch, i))
            i += 1
            continue
        raise SQLSyntaxError(f"unexpected character {ch!r} at position {i}")
    tokens.append(Token(TokenKind.EOF, "", n))
    return tokens


def _outcome(fn, text):
    """Tokens, or the ``SQLSyntaxError`` message."""
    try:
        return fn(text)
    except SQLSyntaxError as exc:
        return str(exc)


def non_decimal_digit(ch):
    return ch.isdigit() and not ch.isdecimal()


# lexemes of every class, plus the Unicode corners of each class test:
# spaces \x1c-\x1f, \x85 and 　 (str.isspace), Arabic-Indic decimal
# digits, letters that upper-case into keywords (long s, dotless i, sharp
# s), a combining mark, fractions and Roman numerals (numeric, not alpha)
FRAGMENTS = st.sampled_from(
    [
        "SELECT", "select", "FROM", "WHERE", "in", "Null", "a", "_b", "x1", "t.c",
        "0", "12", "1.5", ".5", "1.", "1.2.3", "..", ".", "'s'", "''", "'", "'a b'",
        "<>", "<=", ">=", "!=", "!", "=", "<", ">", "+", "-", "*", "/", "%",
        "(", ")", ",", ";", " ", "\t", "\n", "\x1c", "\x85", "　", "@", "#",
        "٣٤", "ſELECT", "ın", "straße", "é", "½",
        "Ⅻ", "été", "一", "\U0001d7d8",
    ]
)
TEXTS = st.lists(st.one_of(FRAGMENTS, st.text(max_size=3)), max_size=12).map("".join)
# the pinned divergence's characters, for the second property
NON_DECIMAL_DIGITS = st.sampled_from(["²", "¹", "①", "⁵", "፩", "⓪"])


@settings(max_examples=600, deadline=None)
@given(TEXTS.filter(lambda text: not any(non_decimal_digit(ch) for ch in text)))
def test_regex_tokenizer_matches_the_character_loop(text):
    assert _outcome(tokenize, text) == _outcome(_tokenize_oracle, text)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(FRAGMENTS, NON_DECIMAL_DIGITS), max_size=10).map("".join))
def test_non_decimal_digits_diverge_only_where_the_loop_made_a_number(text):
    new = _outcome(tokenize, text)
    old = _outcome(_tokenize_oracle, text)
    if new == old:
        return
    # the only divergence: the regex tokenizer stops at a non-decimal digit
    assert isinstance(new, str), (new, old)
    found = re.fullmatch(r"unexpected character '(.)' at position (\d+)", new)
    assert found is not None, (new, old)
    pos = int(found.group(2))
    assert non_decimal_digit(text[pos])
    # ... everything before it tokenizes alike ...
    assert tokenize(text[:pos]) == _tokenize_oracle(text[:pos])
    # ... and where the loop went on, the digit was inside a NUMBER token
    if isinstance(old, str):
        assert int(re.search(r"(\d+)$", old).group(1)) > pos
    else:
        assert any(
            tok.kind is TokenKind.NUMBER and tok.position <= pos < tok.position + len(tok.value)
            for tok in old
        )


@pytest.mark.parametrize(
    "text, old_number",
    [("SELECT ²", "²"), ("SELECT 1²", "1²"), ("LIMIT .①", ".①")],
)
def test_pinned_divergence_non_decimal_digit(text, old_number):
    pos = text.index(old_number[-1])
    assert Token(TokenKind.NUMBER, old_number, text.index(old_number)) in _tokenize_oracle(text)
    with pytest.raises(SQLSyntaxError, match=rf"unexpected character '.' at position {pos}$"):
        tokenize(text)


def test_a_non_decimal_digit_is_a_syntax_error_for_the_parser():
    """The loop's NUMBER '²' reached ``int()`` and raised a bare ValueError."""
    with pytest.raises(SQLSyntaxError):
        parse_statement("SELECT a FROM t LIMIT ²")


@pytest.mark.parametrize("text", ["a²", "'²'", "x①y"])
def test_non_decimal_digits_inside_identifiers_and_strings_agree(text):
    assert tokenize(text) == _tokenize_oracle(text)


def test_token_is_an_immutable_hashable_record():
    tok = tokenize("SELECT")[0]
    assert tok == Token(TokenKind.KEYWORD, "SELECT", 0)
    assert (tok.kind, tok.value, tok.position) == (TokenKind.KEYWORD, "SELECT", 0)
    assert hash(tok) == hash(Token(TokenKind.KEYWORD, "SELECT", 0))
    assert tok.matches(TokenKind.KEYWORD) and tok.matches(TokenKind.KEYWORD, "SELECT")
    assert not tok.matches(TokenKind.KEYWORD, "FROM") and not tok.matches(TokenKind.IDENT)
    with pytest.raises(AttributeError):
        tok.value = "FROM"


def test_bad_characters_are_errors_not_skipped():
    with pytest.raises(SQLSyntaxError, match="unexpected character '@' at position 9"):
        tokenize("SELECT a @ FROM t")
    with pytest.raises(SQLSyntaxError, match="unterminated string literal at 7"):
        tokenize("SELECT 'abc")
